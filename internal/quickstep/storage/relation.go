package storage

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Relation is a bag of fixed-arity int32 tuples stored in blocks. Appends are
// serialized by a mutex; scans take a snapshot of the block list and then read
// lock-free (sealed blocks are immutable). RecStep relations are bags at the
// storage level — set semantics are enforced by the dedup stage, exactly as in
// the paper (UNION ALL plus a separate dedup call).
//
// Block ownership: every block in the flat list holds one reference, as does
// every retired block. Sharing blocks between relations (AppendRelation, the
// ⊎ of Algorithm 1) retains them, so releasing one holder never frees data
// another still scans. Release returns every owned block to its pool;
// ReclaimRetired sweeps retired blocks — superseded layouts and operators'
// scatter copies — at engine-chosen quiescent points.
type Relation struct {
	name     string
	colNames []string

	// lc/cat select where this relation's own appends allocate block memory
	// and which accounting category they charge. Adopted blocks keep the
	// lifecycle they were allocated with.
	lc  Lifecycle
	cat Category

	mu     sync.Mutex
	blocks []*Block
	open   *Block // tail block still accepting single-row appends, or nil
	rows   int
	// gen counts mutations, so a carried view built from an older snapshot
	// is never installed over newer contents.
	gen uint64
	// live is the partitioning the relation *carries*: its contents are
	// exactly the concatenation of live's partitions. It survives compatible
	// partitioned appends (the block lists are merged per partition), so a
	// relation that accumulates partition-native deltas never needs a
	// re-scatter. Any flat mutation drops it.
	live *PartitionedView
	// retired holds owned blocks no longer part of the contents: superseded
	// layouts and the scatter copies operators made of the relation. An
	// in-flight operator may still scan them, so they are released only at
	// ReclaimRetired/Release.
	retired []*Block
	// Spill state (cold-partition eviction of the carried view); see spill.go.
	pager Pager
	slots map[int]*spillSlot
	touch []int64
	// faultErr is the first fault-read failure (first-wins, sticky): the
	// failed partition's data is unreachable, so the run must abort, but the
	// relation stays usable for its resident partitions in the meantime.
	faultErr error
	// Attachments (see attach.go): derived structures kept alive between
	// queries, each guarded by the version it was derived from.
	atts map[string]attachment
}

// NewRelation creates an empty relation. colNames fixes the arity; names are
// used by the SQL binder to resolve qualified column references.
func NewRelation(name string, colNames []string) *Relation {
	if len(colNames) == 0 {
		panic("storage: relation needs at least one column")
	}
	return &Relation{name: name, colNames: append([]string(nil), colNames...)}
}

// SetLifecycle routes the relation's future block allocations through lc,
// charged to cat. Blocks appended before the call keep their original
// lifecycle. Blocks of a different category adopted later (e.g. ∆R blocks
// entering an IDB relation) are re-categorized to cat.
func (r *Relation) SetLifecycle(lc Lifecycle, cat Category) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lc, r.cat = lc, cat
}

// NumberedColumns returns n column names c0..c(n-1), for relations whose
// attribute names are irrelevant (temporaries, deltas).
func NumberedColumns(n int) []string {
	cols := make([]string, n)
	for i := range cols {
		cols[i] = "c" + strconv.Itoa(i)
	}
	return cols
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.colNames) }

// ColNames returns the attribute names. Read-only.
func (r *Relation) ColNames() []string { return r.colNames }

// ColIndex returns the position of the named column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.colNames {
		if c == name {
			return i
		}
	}
	return -1
}

// NumTuples returns the current tuple count, including spilled partitions.
func (r *Relation) NumTuples() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows
}

// Blocks returns a snapshot of the block list. The open tail block is sealed
// first so every returned block is immutable; spilled partitions are faulted
// back in (a flat scan touches the whole relation).
func (r *Relation) Blocks() []*Block {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealLocked()
	r.faultAllLocked()
	out := make([]*Block, len(r.blocks))
	copy(out, r.blocks)
	return out
}

func (r *Relation) sealLocked() {
	if r.open != nil {
		r.open = nil
	}
}

// adoptCategoryLocked folds a foreign block into this relation's accounting
// category (∆R blocks adopted into R become IDB bytes).
func (r *Relation) adoptCategoryLocked(b *Block) {
	if r.cat != CatIntermediate {
		b.Recat(r.cat)
	}
}

// Append adds a single tuple.
func (r *Relation) Append(tuple []int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(tuple) != len(r.colNames) {
		panic(fmt.Sprintf("storage: tuple arity %d does not match relation %q arity %d", len(tuple), r.name, len(r.colNames)))
	}
	r.faultAllLocked()
	if r.open == nil || r.open.Full() {
		r.open = NewBlockIn(r.lc, r.cat, len(r.colNames), 0)
		r.blocks = append(r.blocks, r.open)
	}
	r.open.Append(tuple)
	r.rows++
	r.invalidatePartitionsLocked()
}

// BlocksFromRows packs row-major tuple data into sealed blocks of at most
// DefaultBlockRows rows each, allocated through lc under cat. The single
// block-splitting implementation behind AppendRows and the partition-native
// emitters (the aggregate merge's per-partition ∆R blocks).
func BlocksFromRows(lc Lifecycle, cat Category, arity int, rows []int32) []*Block {
	if len(rows)%arity != 0 {
		panic(fmt.Sprintf("storage: row data length %d not divisible by arity %d", len(rows), arity))
	}
	var out []*Block
	stride := arity * DefaultBlockRows
	for off := 0; off < len(rows); off += stride {
		end := off + stride
		if end > len(rows) {
			end = len(rows)
		}
		b := NewBlockIn(lc, cat, arity, (end-off)/arity)
		b.AppendBulk(rows[off:end])
		out = append(out, b)
	}
	return out
}

// AppendRows bulk-appends row-major tuple data, splitting it into blocks. The
// data is copied.
func (r *Relation) AppendRows(rows []int32) {
	arity := len(r.colNames)
	if len(rows)%arity != 0 {
		panic(fmt.Sprintf("storage: row data length %d not divisible by arity %d", len(rows), arity))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealLocked()
	r.faultAllLocked()
	r.blocks = append(r.blocks, BlocksFromRows(r.lc, r.cat, arity, rows)...)
	r.rows += len(rows) / arity
	r.invalidatePartitionsLocked()
}

// AdoptBlock appends a block without copying. The caller relinquishes
// ownership; the block must not be mutated afterwards. Empty blocks are
// released back to their pool immediately.
func (r *Relation) AdoptBlock(b *Block) {
	if b.Arity() != len(r.colNames) {
		panic(fmt.Sprintf("storage: block arity %d does not match relation %q arity %d", b.Arity(), r.name, len(r.colNames)))
	}
	if b.Rows() == 0 {
		b.Release()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealLocked()
	r.faultAllLocked()
	r.adoptCategoryLocked(b)
	r.blocks = append(r.blocks, b)
	r.rows += b.Rows()
	r.invalidatePartitionsLocked()
}

// AppendRelation appends all tuples of other by sharing its (sealed) blocks.
// This implements R ← R ⊎ ∆R from Algorithm 1 in O(blocks). When both sides
// carry the same partitioning (or the destination is empty and the source
// carries one), the per-partition block lists are merged and the destination
// keeps carrying that partitioning — the block-adopting append that lets the
// fixpoint loop install partition-native deltas without a re-scatter. Shared
// blocks are retained by the destination, so either relation can be released
// without freeing data the other still holds.
func (r *Relation) AppendRelation(other *Relation) {
	if other.Arity() != r.Arity() {
		panic(fmt.Sprintf("storage: arity mismatch appending %q to %q", other.name, r.name))
	}
	blocks, view := other.snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendSnapshotLocked(blocks, view)
}

// appendSnapshotLocked appends another relation's snapshot (see snapshot).
func (r *Relation) appendSnapshotLocked(blocks []*Block, view *PartitionedView) {
	r.sealLocked()
	wasEmpty := r.rows == 0
	mergeable := view != nil &&
		(wasEmpty || (r.live != nil && r.live.Partitioning().Equal(view.Partitioning())))
	if !mergeable {
		// The merge below keeps spill slots valid (partition indexing is
		// preserved); any other append is a flat mutation and must restore
		// spilled partitions before the carried view is dropped.
		r.faultAllLocked()
	}
	for _, b := range blocks {
		if b.Rows() == 0 {
			continue
		}
		b.Retain()
		r.adoptCategoryLocked(b)
		r.blocks = append(r.blocks, b)
		r.rows += b.Rows()
	}
	switch {
	case mergeable && wasEmpty:
		// Clone rather than share the view object: the destination's spill
		// and ownership state must never alias another relation's (the PR 2
		// aliasing audit — a shared view object would let one relation's
		// release or spill mutate the other's carried partitioning).
		r.installLiveLocked(view.clone())
	case mergeable:
		r.installLiveLocked(mergeViews(r.live, view))
	default:
		r.invalidatePartitionsLocked()
	}
}

// snapshot returns the sealed block list plus the carried partitioned view
// (nil if none), consistent with each other.
// Spilled partitions are faulted back first: the caller is about to scan (or
// share) the whole contents.
func (r *Relation) snapshot() ([]*Block, *PartitionedView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealLocked()
	r.faultAllLocked()
	out := make([]*Block, len(r.blocks))
	copy(out, r.blocks)
	return out, r.live
}

// AdoptPartitioned installs a partitioned view's blocks as the relation's
// contents without copying and carries the view's partitioning. The relation
// must be empty; the caller relinquishes ownership of the view's blocks (the
// flat list takes their references, the view becomes an alias of the flat
// contents).
func (r *Relation) AdoptPartitioned(v *PartitionedView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rows != 0 || len(r.blocks) != 0 {
		panic(fmt.Sprintf("storage: AdoptPartitioned into non-empty relation %q", r.name))
	}
	for p := 0; p < v.Parts(); p++ {
		for _, b := range v.Blocks(p) {
			if b.Rows() == 0 {
				continue
			}
			r.adoptCategoryLocked(b)
			r.blocks = append(r.blocks, b)
			r.rows += b.Rows()
		}
	}
	r.installLiveLocked(v)
}

// Partitioning returns the partitioning the relation currently carries.
func (r *Relation) Partitioning() (Partitioning, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live == nil {
		return Partitioning{}, false
	}
	return r.live.Partitioning(), true
}

// CarriedView returns the carried partitioned view if it matches the wanted
// partitioning: the short-circuit consulted before any scatter.
func (r *Relation) CarriedView(keyCols []int, parts int) (*PartitionedView, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	want := Partitioning{KeyCols: keyCols, Parts: parts}
	if r.live != nil && r.live.Partitioning().Equal(want) {
		return r.live, true
	}
	return nil, false
}

// Generation returns the relation's current mutation generation, to pair
// with the gen-guarded StoreCarriedView (a promotion built from an older
// snapshot is refused if a mutation interleaved).
func (r *Relation) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// installLiveLocked replaces the carried view: the mutation generation
// advances, so stale in-flight promotions are refused. The previous live
// view's blocks stay owned by the flat list (views installed here alias the
// flat contents), so nothing is released.
func (r *Relation) installLiveLocked(v *PartitionedView) {
	r.gen++
	if r.live != nil && r.live != v {
		r.live.owner = nil
	}
	r.live = v
	v.owner = r
	r.resizeTouchLocked(v.parts)
}

// Clear drops all tuples, releasing every owned block and dropping any
// spilled partition files.
func (r *Relation) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropSlotsLocked()
	for _, b := range r.blocks {
		b.Release()
	}
	r.blocks, r.open, r.rows = nil, nil, 0
	r.invalidatePartitionsLocked()
	r.reclaimRetiredLocked()
	r.releaseAttachmentsLocked()
}

// Release frees every block the relation owns — flat contents, retired
// blocks and spilled partition files — returning pool-allocated arrays for
// recycling. The
// relation is empty afterwards. Blocks shared with other relations survive
// (their references keep them alive); the caller must be the last reader of
// blocks exclusive to this relation.
func (r *Relation) Release() {
	r.Clear()
}

// Restore faults every spilled partition back into memory. The engine calls
// it on result relations before their database — and with it the spill
// directory — is closed.
func (r *Relation) Restore() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faultAllLocked()
}

// ReclaimRetired releases retired blocks (superseded layouts, operators'
// scatter copies). The engine calls it at iteration boundaries, when no
// operator can still scan them.
func (r *Relation) ReclaimRetired() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reclaimRetiredLocked()
}

// reclaimRetiredLocked releases retired blocks and sweeps stale attachments.
func (r *Relation) reclaimRetiredLocked() {
	for _, b := range r.retired {
		b.Release()
	}
	r.retired = nil
	r.sweepAttachmentsLocked()
}

// Rows materializes every tuple into one row-major slice. Intended for tests,
// small results and commit serialization.
func (r *Relation) Rows() []int32 {
	blocks := r.Blocks()
	total := 0
	for _, b := range blocks {
		total += len(b.data)
	}
	out := make([]int32, 0, total)
	for _, b := range blocks {
		out = append(out, b.data...)
	}
	return out
}

// ForEach invokes fn for every tuple. The slice passed to fn aliases block
// memory and is only valid during the call.
func (r *Relation) ForEach(fn func(tuple []int32)) {
	for _, b := range r.Blocks() {
		n := b.Rows()
		for i := 0; i < n; i++ {
			fn(b.Row(i))
		}
	}
}

// SortedRows returns all tuples sorted lexicographically, one row-major
// slice. Useful for deterministic comparisons in tests and output writers.
func (r *Relation) SortedRows() []int32 {
	arity := r.Arity()
	data := r.Rows()
	n := len(data) / arity
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := data[idx[a]*arity:idx[a]*arity+arity], data[idx[b]*arity:idx[b]*arity+arity]
		for k := 0; k < arity; k++ {
			if ra[k] != rb[k] {
				return ra[k] < rb[k]
			}
		}
		return false
	})
	out := make([]int32, 0, len(data))
	for _, i := range idx {
		out = append(out, data[i*arity:i*arity+arity]...)
	}
	return out
}

// EstimatedBytes reports the in-memory footprint of tuple data.
func (r *Relation) EstimatedBytes() int64 {
	return int64(r.NumTuples()) * int64(r.Arity()) * 4
}
