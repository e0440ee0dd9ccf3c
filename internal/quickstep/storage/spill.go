package storage

import "fmt"

// Cold-partition spilling. When the memory manager's budget is exceeded, it
// evicts partitions of relations that carry a live partitioned view — the
// full recursive relations R of the fixpoint loop — to temp files, LRU by
// the epoch (fixpoint iteration) in which the partition was last probed.
// Access through PartitionedView.Blocks faults a spilled partition back in
// transparently, so operators never see the difference. The policy (what and
// when to evict) lives in internal/quickstep/memory; this file holds the
// storage-side mechanics.

// Pager is implemented by the memory manager: it persists a partition's
// blocks, restores them, and supplies the LRU epoch clock.
type Pager interface {
	// Epoch returns the current reclamation epoch (the engine advances it
	// once per fixpoint iteration). Partitions touched in the current epoch
	// are part of the working set and are never evicted.
	Epoch() int64
	// SpillBlocks persists the blocks of one partition and returns an opaque
	// token plus the number of bytes written.
	SpillBlocks(arity int, blocks []*Block) (token any, bytes int64, err error)
	// FaultBlocks restores a spilled partition, allocating block memory
	// through lc under cat, and invalidates the token.
	FaultBlocks(token any, lc Lifecycle, cat Category, arity int) ([]*Block, error)
	// DropSpill discards a spilled partition that will never be faulted
	// (relation cleared or released).
	DropSpill(token any)
}

// spillSlot records one evicted partition of the carried view. faulting/done
// coordinate concurrent readers: the first reader faults the partition with
// the relation unlocked (so the allocation path can spill *other* partitions
// to stay under budget), later readers wait on done.
type spillSlot struct {
	token    any
	rows     int
	bytes    int64
	faulting bool
	done     chan struct{}
}

// EnableSpill makes the relation's carried-view partitions evictable through
// pg. Only relations registered this way ever spill; everything else keeps
// today's purely in-memory behaviour.
func (r *Relation) EnableSpill(pg Pager) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pager = pg
	if r.live != nil {
		r.resizeTouchLocked(r.live.parts)
	}
}

// resizeTouchLocked (re)builds the per-partition last-touch epochs when a
// carried view is (re)installed. A same-fan-out reinstall (the per-iteration
// merge) keeps the recorded touches — including explicit cooling — while a
// fan-out change starts fresh with every partition counting as touched now
// (just materialized, so working set by definition).
func (r *Relation) resizeTouchLocked(parts int) {
	if r.pager == nil {
		return
	}
	if len(r.touch) == parts {
		return
	}
	now := r.pager.Epoch()
	r.touch = make([]int64, parts)
	for i := range r.touch {
		r.touch[i] = now
	}
}

// partitionBlocks is the owner-routed access path for a carried view:
// records the LRU touch and faults the partition back in if it was spilled.
func (r *Relation) partitionBlocks(v *PartitionedView, p int) []*Block {
	if r.pager == nil {
		return v.blocks[p]
	}
	r.mu.Lock()
	if v != r.live {
		// Superseded view object still held by an in-flight operator: its
		// block lists were never spilled (spilling requires being live).
		r.mu.Unlock()
		return v.blocks[p]
	}
	if p < len(r.touch) {
		r.touch[p] = r.pager.Epoch()
	}
	for {
		slot, ok := r.slots[p]
		if !ok {
			break
		}
		if r.faultErr != nil {
			// A fault already failed on this relation: the run is aborting
			// (the pager reported the failure as the run error), so don't
			// keep re-reading a broken spill file. Serve resident blocks.
			break
		}
		if slot.faulting {
			// Another reader is restoring this partition; wait for it.
			ch := slot.done
			r.mu.Unlock()
			<-ch
			r.mu.Lock()
			continue
		}
		r.faultSlotLocked(p, slot)
		break
	}
	blocks := r.live.blocks[p]
	r.mu.Unlock()
	return blocks
}

// faultSlotLocked restores spilled partition p, marking its slot faulting so
// other readers of p wait on slot.done. Callers hold r.mu; it is released
// while the spill file is read and its blocks allocated: the allocations may
// push the manager over budget, and reclaiming then needs this relation's
// mutex to spill *other* (already cooled) partitions.
func (r *Relation) faultSlotLocked(p int, slot *spillSlot) {
	slot.faulting = true
	slot.done = make(chan struct{})
	r.mu.Unlock()
	blocks, err := r.pager.FaultBlocks(slot.token, r.lc, r.cat, len(r.colNames))
	r.mu.Lock()
	if err != nil {
		// Environmental failure, not an invariant violation: record it
		// (first-wins), roll the slot back to "spilled, idle" so waiters are
		// not stranded, and serve the resident blocks. The pager has already
		// escalated the error to the run; the partition's data stays on disk,
		// and the relation's *other* partitions remain fully usable.
		r.noteFaultErrLocked(err)
		slot.faulting = false
		close(slot.done)
		return
	}
	delete(r.slots, p)
	// r.live may have been merge-replaced meanwhile; partition indexing is
	// preserved by merges, so install into the current live view.
	r.live.blocks[p] = append(blocks, r.live.blocks[p]...)
	r.blocks = append(r.blocks, blocks...)
	close(slot.done)
}

// faultAllLocked restores every spilled partition — the prelude to any flat
// scan or flat mutation. A flat scan can race *partition* reads of the same
// relation: UNION ALL branches run concurrently, and with join-key-carried
// partitionings one branch's hash build faults individual partitions (via
// partitionBlocks) while another branch flat-scans the relation as its probe
// side. A slot found mid-fault is therefore waited out — the faulting reader
// installs the blocks and closes slot.done — rather than treated as a
// protocol violation.
func (r *Relation) faultAllLocked() {
	if r.pager == nil {
		return
	}
	// A flat scan reads every partition: mark them all hot even when nothing
	// is currently spilled, or the reclaimer would evict blocks out from
	// under the running scan.
	r.touchAllLocked()
	for len(r.slots) > 0 {
		if r.faultErr != nil {
			// A fault already failed: don't keep hammering a broken spill
			// path. The remaining slots stay on disk; the flat mutation that
			// follows disposes of them through invalidatePartitionsLocked's
			// fault-error branch, and the run is aborting regardless.
			return
		}
		// Fault an idle slot the way partitionBlocks does, with the relation
		// unlocked; only when every remaining slot is mid-fault, wait one out.
		// Either way the slot map changes under us, so re-scan.
		var inFlight chan struct{}
		idle := -1
		for p, slot := range r.slots {
			if !slot.faulting {
				idle = p
				break
			}
			inFlight = slot.done
		}
		if idle >= 0 {
			r.faultSlotLocked(idle, r.slots[idle])
			continue
		}
		r.mu.Unlock()
		<-inFlight
		r.mu.Lock()
	}
}

// touchAllLocked marks every partition of the carried view as part of the
// current epoch's working set.
func (r *Relation) touchAllLocked() {
	if r.pager == nil {
		return
	}
	now := r.pager.Epoch()
	for i := range r.touch {
		r.touch[i] = now
	}
}

// noteFaultErrLocked records the first fault-read failure (first-wins).
// Callers hold r.mu.
func (r *Relation) noteFaultErrLocked(err error) {
	if r.faultErr == nil {
		r.faultErr = fmt.Errorf("storage: faulting spilled partition of %q: %w", r.name, err)
	}
}

// FaultError reports the first fault-read failure recorded on this relation,
// nil if none. A relation with a fault error still serves every resident
// partition; only the partitions whose spill files could not be restored are
// unreachable.
func (r *Relation) FaultError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faultErr
}

// Cool marks partition p of a carried view evictable again: the reader that
// faulted it declares it is done with the partition's blocks for this
// iteration. The fused delta step cools each of R's partitions as soon as
// its per-partition pass completes, so a budget-pressed run keeps only the
// in-flight partitions resident instead of re-pinning all of R every
// iteration.
func (v *PartitionedView) Cool(p int) {
	r := v.owner
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v != r.live || r.pager == nil || p >= len(r.touch) {
		return
	}
	r.touch[p] = r.pager.Epoch() - 1
}

// dropSlotsLocked discards all spilled partitions without restoring them
// (the data is being destroyed anyway).
func (r *Relation) dropSlotsLocked() {
	for _, slot := range r.slots {
		r.pager.DropSpill(slot.token)
	}
	r.slots = nil
}

// spillableBlocksLocked returns the subset of partition p's resident blocks
// that can be evicted: exclusively owned by this relation. Shared blocks
// (refs > 1 — typically the newest ∆R blocks, still referenced by the delta
// table until the engine's next epoch release) stay resident: spilling them
// would free nothing while duplicating state on disk.
func (r *Relation) spillableBlocksLocked(p int) (evict []*Block, bytes int64) {
	for _, b := range r.live.blocks[p] {
		if b.Refs() == 1 {
			evict = append(evict, b)
			bytes += b.CapBytes()
		}
	}
	return evict, bytes
}

// ColdestPartition reports the least-recently-touched partition eligible for
// eviction: not already spilled, not touched in the current epoch, and with
// exclusively-owned resident blocks worth freeing. Returns ok=false when
// nothing is evictable, and also — with busy set — when the relation's mutex
// is contended, since the reclaimer must never block an allocation path that
// may already hold it.
func (r *Relation) ColdestPartition(curEpoch int64) (part int, lastTouch int64, bytes int64, ok, busy bool) {
	if !r.mu.TryLock() {
		return 0, 0, 0, false, true
	}
	defer r.mu.Unlock()
	if r.pager == nil || r.live == nil {
		return 0, 0, 0, false, false
	}
	best := -1
	var bestTouch int64
	var bestBytes int64
	for p := 0; p < r.live.parts; p++ {
		if _, spilled := r.slots[p]; spilled || len(r.live.blocks[p]) == 0 {
			continue
		}
		if p >= len(r.touch) || r.touch[p] >= curEpoch {
			continue
		}
		if best != -1 && r.touch[p] >= bestTouch {
			continue
		}
		_, sz := r.spillableBlocksLocked(p)
		if sz == 0 {
			continue
		}
		best, bestTouch, bestBytes = p, r.touch[p], sz
	}
	if best == -1 {
		return 0, 0, 0, false, false
	}
	return best, bestTouch, bestBytes, true, false
}

// SpillPartition evicts the exclusively-owned blocks of one partition of the
// carried view to the pager, releasing them. Returns the bytes freed. The
// caller should have picked the partition via ColdestPartition; the
// eligibility checks are re-validated under the lock (ok=false if the
// partition became hot, fully shared or contended in between).
func (r *Relation) SpillPartition(p int, pg Pager) (freed int64, ok bool) {
	if !r.mu.TryLock() {
		return 0, false
	}
	defer r.mu.Unlock()
	if r.pager != pg || r.live == nil || p >= r.live.parts {
		return 0, false
	}
	if _, spilled := r.slots[p]; spilled {
		return 0, false
	}
	if p < len(r.touch) && r.touch[p] >= pg.Epoch() {
		return 0, false
	}
	evict, _ := r.spillableBlocksLocked(p)
	if len(evict) == 0 {
		return 0, false
	}
	rows := 0
	for _, b := range evict {
		rows += b.Rows()
	}
	token, bytes, err := pg.SpillBlocks(len(r.colNames), evict)
	if err != nil {
		return 0, false
	}
	if r.slots == nil {
		r.slots = make(map[int]*spillSlot)
	}
	r.slots[p] = &spillSlot{token: token, rows: rows, bytes: bytes}
	// De-list the evicted blocks from the flat list and the partition, then
	// release them.
	inEvict := make(map[*Block]struct{}, len(evict))
	for _, b := range evict {
		inEvict[b] = struct{}{}
	}
	kept := r.blocks[:0]
	for _, b := range r.blocks {
		if _, drop := inEvict[b]; drop {
			continue
		}
		kept = append(kept, b)
	}
	r.blocks = kept
	resident := make([]*Block, 0, len(r.live.blocks[p])-len(evict))
	for _, b := range r.live.blocks[p] {
		if _, drop := inEvict[b]; drop {
			continue
		}
		resident = append(resident, b)
	}
	r.live.blocks[p] = resident
	var freedBytes int64
	for _, b := range evict {
		freedBytes += b.CapBytes()
		b.Release()
	}
	// r.rows is unchanged: NumTuples includes spilled tuples, exactly as the
	// optimizer's cardinality estimates require.
	return freedBytes, true
}

// Block coalescing. A long fixpoint adopts one small ∆R block per partition
// (or, unpartitioned, one per iteration) into R; left alone, a block list
// becomes hundreds of near-empty blocks whose pool-class padding dominates
// the relation's footprint. At epoch boundaries the engine coalesces each
// list's small resident blocks into one; a coalesced block stops
// participating once it reaches coalesceSmallRows, so every tuple is copied
// O(coalesceSmallRows / (coalesceMinRun · |small block|)) times — constant —
// over the whole run.
const (
	// coalesceMinRun is the number of small blocks a list accumulates
	// before a coalesce pass rewrites them.
	coalesceMinRun = 16
	// coalesceSmallRows is the row count at which a block is left alone, and
	// the size merged chunks are filled to: well below a full block, to
	// bound the transient footprint of one chunk-copy step, and a power of
	// two, so that a chunk that stops participating fills its pool class
	// exactly (arities 1, 2 and 4) instead of padding the next one up.
	coalesceSmallRows = 1024
)

// CoalescePartitions rewrites the block lists that have accumulated many
// small blocks: every partition of the carried view, or — for a relation
// that carries no view, as every relation does at fan-out 1 — the flat list
// itself. Must run at a quiescent point (no operator holds block lists of
// this relation).
func (r *Relation) CoalescePartitions() {
	r.mu.Lock()
	parts := 0
	if r.live != nil {
		parts = r.live.parts
	}
	r.mu.Unlock()

	if parts == 0 {
		r.coalesceList(false, func() *[]*Block {
			if r.live != nil {
				return nil
			}
			return &r.blocks
		})
	}
	for p := 0; p < parts; p++ {
		ok := r.coalesceList(true, func() *[]*Block {
			if r.live == nil || r.live.parts != parts {
				return nil
			}
			return &r.live.blocks[p]
		})
		if !ok {
			break
		}
	}
}

// coalesceList rewrites one block list. list runs with r.mu held and returns
// the list, or nil once the layout it belongs to is gone (false is then
// returned); alsoFlat marks lists whose blocks are also members of the flat
// list (the carried view's partitions). Small blocks are detached under the
// lock, but the chunk allocation and copying run with the relation unlocked:
// the coalescer's own allocations may exceed the memory budget, and the
// reclaimer then needs this relation's mutex to evict cold partitions.
func (r *Relation) coalesceList(alsoFlat bool, list func() *[]*Block) bool {
	r.mu.Lock()
	l := list()
	if l == nil {
		r.mu.Unlock()
		return false
	}
	// Shared blocks (refs > 1 — the newest ∆R, still held by the delta
	// table) are left alone: copying them frees nothing while the merged
	// chunk adds net footprint. They become coalescable one epoch later,
	// when the engine releases the old delta table.
	small := func(b *Block) bool { return b.Rows() < coalesceSmallRows && b.Refs() == 1 }
	// Count before allocating: most calls find too few small blocks to
	// rewrite anything.
	n := 0
	for _, b := range *l {
		if small(b) {
			n++
		}
	}
	if n < coalesceMinRun {
		r.mu.Unlock()
		return true
	}
	smalls := make([]*Block, 0, n)
	keep := make([]*Block, 0, len(*l)-n)
	for _, b := range *l {
		if small(b) {
			smalls = append(smalls, b)
		} else {
			keep = append(keep, b)
		}
	}
	r.sealLocked() // the open tail block may be among the rewritten ones
	*l = keep
	if alsoFlat {
		dropped := make(map[*Block]struct{}, len(smalls))
		for _, b := range smalls {
			dropped[b] = struct{}{}
		}
		kept := r.blocks[:0]
		for _, b := range r.blocks {
			if _, drop := dropped[b]; !drop {
				kept = append(kept, b)
			}
		}
		r.blocks = kept
	}
	arity := len(r.colNames)
	r.mu.Unlock()

	// Copy into merged chunks and release originals, unlocked.
	rows := 0
	for _, b := range smalls {
		rows += b.Rows()
	}
	var merged []*Block
	var cur *Block
	for _, b := range smalls {
		for data := b.Data(); len(data) > 0; {
			if cur == nil || cur.Rows() == coalesceSmallRows {
				cur = NewBlockIn(r.lc, r.cat, arity, min(rows, coalesceSmallRows))
				merged = append(merged, cur)
			}
			n := min(len(data), (coalesceSmallRows-cur.Rows())*arity)
			cur.AppendBulk(data[:n])
			data = data[n:]
			rows -= n / arity
		}
		// Release as soon as the rows are copied, so the pass never doubles
		// more than one chunk's worth of data.
		b.Release()
	}
	cur.Compact()

	r.mu.Lock()
	defer r.mu.Unlock()
	if l = list(); l == nil {
		for _, b := range merged {
			b.Release()
		}
		return false
	}
	*l = append(*l, merged...)
	if alsoFlat {
		r.blocks = append(r.blocks, merged...)
	}
	return true
}

// SpilledPartitions reports how many partitions are currently on disk.
func (r *Relation) SpilledPartitions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots)
}
