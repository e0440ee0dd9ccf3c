package storage

import (
	"fmt"
)

// MaxPartitions bounds the radix fan-out. 256 partitions keeps the scatter
// buffers of one worker (256 open blocks) within cache-friendly bounds while
// leaving enough independent build tasks for any realistic core count.
const MaxPartitions = 256

// partitionMult is the Fibonacci multiplier used to mix key columns into a
// partition hash. Partition selection uses the *high* bits of the mixed hash
// so that any hash table built over the bottom bits inside one partition
// stays uncorrelated with the partition choice.
const partitionMult = 0x9E3779B97F4A7C15

// PartitionHash mixes the key columns of a row into a 64-bit hash. Build and
// probe sides of a join must call this with their respective key column
// lists so that matching key values land in the same partition.
func PartitionHash(row []int32, cols []int) uint64 {
	h := uint64(0x9E3779B9)
	for _, c := range cols {
		h = (h ^ uint64(uint32(row[c]))) * partitionMult
	}
	return h
}

// PartitionOf maps a partition hash to one of parts partitions. parts must
// be a power of two (see NormalizePartitions).
func PartitionOf(h uint64, parts int) int {
	return int((h >> 40) & uint64(parts-1))
}

// NormalizePartitions clamps a requested partition count to a power of two
// in [1, MaxPartitions].
func NormalizePartitions(parts int) int {
	if parts <= 1 {
		return 1
	}
	if parts > MaxPartitions {
		parts = MaxPartitions
	}
	p := 1
	for p < parts {
		p <<= 1
	}
	return p
}

// Partitioning describes a radix partitioning: tuples are routed to one of
// Parts partitions by PartitionHash over KeyCols. It is the descriptor
// relations carry through the fixpoint pipeline so downstream operators can
// recognise — and reuse — upstream scatter work instead of re-partitioning.
type Partitioning struct {
	KeyCols []int
	Parts   int
}

// AllCols returns the identity column list 0..arity-1 — the key set of
// whole-tuple partitionings (dedup, set difference, delta materialization).
func AllCols(arity int) []int {
	cols := make([]int, arity)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// Equal reports whether two partitionings route every tuple identically.
func (p Partitioning) Equal(o Partitioning) bool {
	return p.Parts == o.Parts && KeyColsEqual(p.KeyCols, o.KeyCols)
}

// KeyColsEqual reports whether two key-column lists are identical — same
// columns in the same order, the condition for identical radix routing
// (PartitionHash mixes columns order-sensitively).
func KeyColsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, c := range a {
		if c != b[i] {
			return false
		}
	}
	return true
}

// CoLocatesEqualTuples reports whether the partitioning routes identical
// tuples of the given arity to the same partition — the compatibility
// requirement of the whole-tuple delta-pipeline operators (dedup, set
// difference). Any non-empty key subset within the arity qualifies: equal
// tuples agree on every column, so they hash identically under any
// key-column selection. This is what lets a *join-key* partitioning be
// carried through the fused delta step in place of the whole-tuple layout;
// DeltaStep asserts it, catching planner bugs that attribute combined-row
// key positions to a base relation.
func (p Partitioning) CoLocatesEqualTuples(arity int) bool {
	if len(p.KeyCols) == 0 {
		return false
	}
	for _, c := range p.KeyCols {
		if c < 0 || c >= arity {
			return false
		}
	}
	return true
}

// String renders the descriptor for diagnostics.
func (p Partitioning) String() string {
	return fmt.Sprintf("part(%v/%d)", p.KeyCols, p.Parts)
}

// PartitionedView is a radix-partitioned snapshot of a relation: every tuple
// is routed to one of Parts() partitions by the hash of its key columns, and
// each partition holds its tuples as an independent immutable block list.
// Operators that consume a view own their partition exclusively, so builds
// over it need no latches. A view is either a scatter copy an operator
// made for itself (retired on the source relation, see RetireView) or the
// relation's *carried* partitioning, which gets an owner backpointer, through
// which partition access routes so spilled partitions fault back in
// transparently.
type PartitionedView struct {
	keyCols []int
	parts   int
	blocks  [][]*Block
	rows    []int
	owner   *Relation // set when installed as a relation's live view
}

// NewPartitionedView wraps scattered per-partition block lists. blocks must
// have length parts; the caller relinquishes ownership of all blocks.
func NewPartitionedView(keyCols []int, parts int, blocks [][]*Block) *PartitionedView {
	if len(blocks) != parts {
		panic(fmt.Sprintf("storage: partitioned view has %d block lists for %d partitions", len(blocks), parts))
	}
	v := &PartitionedView{
		keyCols: append([]int(nil), keyCols...),
		parts:   parts,
		blocks:  blocks,
		rows:    make([]int, parts),
	}
	for p, bs := range blocks {
		for _, b := range bs {
			v.rows[p] += b.Rows()
		}
	}
	return v
}

// Parts returns the partition count.
func (v *PartitionedView) Parts() int { return v.parts }

// Partitioning returns the view's routing descriptor.
func (v *PartitionedView) Partitioning() Partitioning {
	return Partitioning{KeyCols: v.keyCols, Parts: v.parts}
}

// clone returns a shallow copy sharing block lists but with independent
// identity (no owner). Installing a clone — rather than the source view
// object — as another relation's carried view keeps ownership and spill
// state strictly per-relation.
func (v *PartitionedView) clone() *PartitionedView {
	blocks := make([][]*Block, v.parts)
	for p := range blocks {
		blocks[p] = append([]*Block(nil), v.blocks[p]...)
	}
	return &PartitionedView{
		keyCols: append([]int(nil), v.keyCols...),
		parts:   v.parts,
		blocks:  blocks,
		rows:    append([]int(nil), v.rows...),
	}
}

// mergeViews concatenates the per-partition block lists of two views with
// identical partitioning. Blocks are shared, not copied. Row counts are
// summed rather than recomputed so partitions of a spilled to-disk view keep
// reporting their full cardinality.
func mergeViews(a, b *PartitionedView) *PartitionedView {
	blocks := make([][]*Block, a.parts)
	rows := make([]int, a.parts)
	for p := 0; p < a.parts; p++ {
		bs := make([]*Block, 0, len(a.blocks[p])+len(b.blocks[p]))
		bs = append(bs, a.blocks[p]...)
		bs = append(bs, b.blocks[p]...)
		blocks[p] = bs
		rows[p] = a.rows[p] + b.rows[p]
	}
	return &PartitionedView{
		keyCols: append([]int(nil), a.keyCols...),
		parts:   a.parts,
		blocks:  blocks,
		rows:    rows,
	}
}

// KeyCols returns the columns the view is partitioned on. Read-only.
func (v *PartitionedView) KeyCols() []int { return v.keyCols }

// Blocks returns partition p's block list. Read-only. When the view is a
// relation's carried partitioning and partition p was spilled to disk, the
// access faults it back in transparently and records the touch for the
// LRU spill policy.
func (v *PartitionedView) Blocks(p int) []*Block {
	if r := v.owner; r != nil {
		return r.partitionBlocks(v, p)
	}
	return v.blocks[p]
}

// Rows returns partition p's tuple count, including spilled tuples.
func (v *PartitionedView) Rows(p int) int { return v.rows[p] }

// NumTuples returns the total tuple count across partitions.
func (v *PartitionedView) NumTuples() int {
	total := 0
	for _, n := range v.rows {
		total += n
	}
	return total
}

// RetireView takes custody of the blocks of a scatter copy of r that no
// relation keeps: the caller scans the view for the rest of its operator, so
// they are retired — recycled at r's next quiescent ReclaimRetired (or its
// Release) — rather than leaked with their pool accounting charged forever.
func (r *Relation) RetireView(v *PartitionedView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retireViewBlocksLocked(v)
}

// StoreCarriedView promotes a view built from the snapshot taken at mutation
// generation gen to the relation's *carried* partitioning: subsequent
// compatible partitioned appends merge into it instead of invalidating. A
// relation carries at most one partitioning — promoting replaces the
// previous one. Because the view's partitions are a scatter *copy* of the
// current contents, the relation's flat block list is replaced by the view's
// blocks: keeping both would double the footprint (the memory regression the
// block pool exists to prevent). The superseded flat blocks are retired, to
// be recycled at the next ReclaimRetired. A promotion built from a snapshot
// older than a mutation (gen advanced) is refused, and its blocks retired.
func (r *Relation) StoreCarriedView(v *PartitionedView, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen != gen {
		r.retireViewBlocksLocked(v)
		return
	}
	if len(r.slots) != 0 {
		// The promoted view was built from a fully faulted snapshot (the
		// scatter read every tuple); stale slots here would mean the caller
		// bypassed Blocks().
		panic(fmt.Sprintf("storage: StoreCarriedView on %q with spilled partitions", r.name))
	}
	// Retire the old physical layout: the flat list is superseded by the
	// scatter copy.
	r.retired = append(r.retired, r.blocks...)
	r.open = nil
	r.blocks = nil
	rows := 0
	for p := range v.blocks {
		for _, b := range v.blocks[p] {
			if b.Rows() == 0 {
				continue
			}
			r.adoptCategoryLocked(b)
			r.blocks = append(r.blocks, b)
			rows += b.Rows()
		}
	}
	r.rows = rows
	r.installLiveLocked(v)
}

// retireViewBlocksLocked takes custody of a scatter copy's blocks: an
// uncarried one (RetireView) or a refused promotion. See RetireView.
func (r *Relation) retireViewBlocksLocked(v *PartitionedView) {
	for p := range v.blocks {
		r.retired = append(r.retired, v.blocks[p]...)
	}
}

// invalidatePartitionsLocked drops the carried partitioning; callers hold
// r.mu and must have faulted spilled partitions back in first (flat
// mutations orphan spill slots otherwise).
func (r *Relation) invalidatePartitionsLocked() {
	if len(r.slots) != 0 {
		if r.faultErr == nil {
			// No fault failure on record: leftover spilled data here is a
			// protocol violation (the mutation path forgot faultAllLocked),
			// not an environmental problem — keep panicking.
			panic(fmt.Sprintf("storage: invalidating partitions of %q with spilled data", r.name))
		}
		// faultAllLocked stopped early on a fault-read failure; the run is
		// aborting. Discard the unreachable slots and drop their tuples from
		// the row count so the relation stays internally consistent for
		// whatever teardown code still touches it.
		for _, slot := range r.slots {
			r.pager.DropSpill(slot.token)
			r.rows -= slot.rows
		}
		r.slots = nil
	}
	if r.live != nil {
		r.live.owner = nil
		r.live = nil
	}
	r.touch = nil
	r.gen++
}
