// Package storage implements the block-partitioned in-memory tuple storage
// layer of the QuickStep-like substrate. Relations hold fixed-arity int32
// tuples in row-major blocks; blocks are the unit of intra-query parallelism,
// mirroring QuickStep's block-based storage manager that RecStep builds on.
//
// Blocks are reference-counted so that the memory-managed block pool
// (internal/quickstep/memory) can recycle a block's backing array the moment
// its last holder releases it: relations share blocks freely (R ← R ⊎ ∆R is
// a block-adopting append), so the unit of reclamation has to be the block,
// not the relation.
package storage

import (
	"fmt"
	"sync/atomic"
)

// DefaultBlockRows is the number of tuples per storage block. Blocks are the
// scheduling granule for parallel operators, so the value balances task
// granularity against per-task overhead.
const DefaultBlockRows = 1 << 14

// defaultRowHint is the initial row capacity of a block allocated without an
// explicit size hint. Operators often emit far fewer rows than a full block,
// so eagerly reserving full-size backing arrays would dominate small queries.
const defaultRowHint = 64

// Category classifies block memory for the manager's per-category live-byte
// accounting (the paper's concern: evaluation intermediates, not base data,
// are what blow up a fixpoint's footprint).
type Category uint8

// Block memory categories. The zero value is CatIntermediate so that
// operator scratch output — the dominant and shortest-lived class — needs no
// explicit tagging.
const (
	// CatIntermediate is operator output: join results, scatter partitions,
	// dedup output, per-iteration temporaries.
	CatIntermediate Category = iota
	// CatEDB is base (input) relation data.
	CatEDB
	// CatIDB is derived relation data that survives the fixpoint (R).
	CatIDB
	// CatDelta is ∆R data produced by the delta step of the current
	// iteration. Delta blocks adopted into R are re-categorized as CatIDB.
	CatDelta
	// CatIndex is a resident set-difference index: a GSCHT tuple set over R
	// kept alive on the relation between fixpoint iterations (see attach.go).
	CatIndex
	// NumCategories bounds per-category accounting arrays.
	NumCategories
)

// String names the category for stats output.
func (c Category) String() string {
	switch c {
	case CatIntermediate:
		return "intermediate"
	case CatEDB:
		return "edb"
	case CatIDB:
		return "idb"
	case CatDelta:
		return "delta"
	case CatIndex:
		return "index"
	}
	return "unknown"
}

// Lifecycle is the allocation hook the memory manager implements. Blocks
// allocated through a Lifecycle return their backing arrays to it on final
// release (recycling), and every alloc/free is accounted against the
// manager's per-category live-byte gauges and budget.
type Lifecycle interface {
	// AllocData returns a zero-length slice with capacity for at least
	// capInt32s int32 values, charged to cat.
	AllocData(cat Category, capInt32s int) []int32
	// FreeData returns a slice obtained from AllocData (possibly regrown
	// through AllocData) and credits cat.
	FreeData(cat Category, data []int32)
	// Recat moves bytes between category gauges when a block changes owner
	// class (∆R adopted into R becomes IDB data).
	Recat(from, to Category, bytes int64)
}

// MagazineSource is implemented by lifecycles that can hand out per-worker
// magazines: single-owner Lifecycle front-ends whose free-array caches
// refill and flush against the shared pool in batches, so a worker's
// pass-private alloc/free churn (dedup tables, hash-table node slabs) costs
// one shard lock per batch instead of one per array. A magazine must be
// returned via ReleaseMagazine when the owning pass ends; arrays it still
// holds flow back to the shared pool there.
type MagazineSource interface {
	AcquireMagazine() Lifecycle
	ReleaseMagazine(Lifecycle)
}

// Block is a fixed-arity, row-major run of tuples. A block is written by a
// single goroutine while open and becomes immutable once sealed inside a
// Relation, so readers never need locks. The reference count tracks how many
// block lists (relation contents, owned partition views) hold the block;
// Release by the last holder recycles the backing array through the block's
// Lifecycle. Blocks with a nil Lifecycle are plain heap blocks — releasing
// them is bookkeeping only and the garbage collector reclaims the array.
type Block struct {
	arity int
	data  []int32
	lc    Lifecycle
	cat   Category
	refs  atomic.Int32
}

// NewBlock returns an empty heap block for tuples of the given arity, with
// the default small initial capacity.
func NewBlock(arity int) *Block {
	return NewBlockIn(nil, CatIntermediate, arity, defaultRowHint)
}

// NewBlockIn returns an empty block whose backing array comes from lc (nil
// selects the Go heap) charged to cat, with capacity for rowHint rows. The
// caller holds the initial reference.
func NewBlockIn(lc Lifecycle, cat Category, arity, rowHint int) *Block {
	if arity <= 0 {
		panic(fmt.Sprintf("storage: invalid arity %d", arity))
	}
	if rowHint <= 0 {
		rowHint = defaultRowHint
	}
	if rowHint > DefaultBlockRows {
		rowHint = DefaultBlockRows
	}
	b := &Block{arity: arity, lc: lc, cat: cat}
	if lc != nil {
		b.data = lc.AllocData(cat, arity*rowHint)
	} else {
		b.data = make([]int32, 0, arity*rowHint)
	}
	b.refs.Store(1)
	return b
}

// BlockFromRows wraps an existing row-major slice as a block. The slice is
// retained; the caller must not mutate it afterwards. The block never
// recycles the slice (it was not pool-allocated).
func BlockFromRows(arity int, rows []int32) *Block {
	if arity <= 0 || len(rows)%arity != 0 {
		panic(fmt.Sprintf("storage: row data of length %d not divisible by arity %d", len(rows), arity))
	}
	b := &Block{arity: arity, data: rows}
	b.refs.Store(1)
	return b
}

// Retain adds a reference for an additional holder.
func (b *Block) Retain() { b.refs.Add(1) }

// Release drops one reference. The last release recycles the backing array
// through the block's Lifecycle and poisons the block (nil data), so a
// use-after-free reads zero rows or panics instead of silently reading
// recycled memory.
func (b *Block) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		if b.lc != nil {
			d := b.data
			b.data = nil
			b.lc.FreeData(b.cat, d)
		} else {
			b.data = nil
		}
	case n < 0:
		panic("storage: block over-released")
	}
}

// Refs returns the current holder count. The spill manager uses it to skip
// partitions whose blocks are still aliased by another relation (freeing
// them would pin the data twice: once on disk, once live).
func (b *Block) Refs() int { return int(b.refs.Load()) }

// Category returns the accounting category of the block's memory.
func (b *Block) Category() Category { return b.cat }

// Recat re-classifies the block's bytes from its current category to cat
// (e.g. ∆R blocks adopted into R become IDB data).
func (b *Block) Recat(cat Category) {
	if b.cat == cat {
		return
	}
	if b.lc != nil {
		b.lc.Recat(b.cat, cat, int64(cap(b.data))*4)
	}
	b.cat = cat
}

// Arity returns the number of attributes per tuple.
func (b *Block) Arity() int { return b.arity }

// Rows returns the number of tuples stored in the block.
func (b *Block) Rows() int { return len(b.data) / b.arity }

// Row returns a view of the i-th tuple. The returned slice aliases block
// memory and must not be mutated.
func (b *Block) Row(i int) []int32 {
	off := i * b.arity
	return b.data[off : off+b.arity : off+b.arity]
}

// Data returns the raw row-major tuple data. Read-only.
func (b *Block) Data() []int32 { return b.data }

// CapBytes returns the size of the backing array — the footprint accounting
// and spilling operate on.
func (b *Block) CapBytes() int64 { return int64(cap(b.data)) * 4 }

// grow widens the backing array to hold at least need more int32 values,
// routing the reallocation through the Lifecycle so the outgrown array is
// recycled instead of abandoned to the garbage collector.
func (b *Block) grow(need int) {
	want := len(b.data) + need
	newCap := 2 * cap(b.data)
	if newCap < want {
		newCap = want
	}
	nd := b.lc.AllocData(b.cat, newCap)
	nd = nd[:len(b.data)]
	copy(nd, b.data)
	b.lc.FreeData(b.cat, b.data)
	b.data = nd
}

// Append adds one tuple to the block.
func (b *Block) Append(tuple []int32) {
	if len(tuple) != b.arity {
		panic(fmt.Sprintf("storage: tuple arity %d does not match block arity %d", len(tuple), b.arity))
	}
	if b.lc != nil && len(b.data)+len(tuple) > cap(b.data) {
		b.grow(len(tuple))
	}
	b.data = append(b.data, tuple...)
}

// AppendBulk adds row-major tuple data (a whole-rows multiple of arity) in
// one copy. Used by the spill manager when faulting partitions back in.
func (b *Block) AppendBulk(rows []int32) {
	if len(rows)%b.arity != 0 {
		panic(fmt.Sprintf("storage: bulk data length %d not divisible by arity %d", len(rows), b.arity))
	}
	if b.lc != nil && len(b.data)+len(rows) > cap(b.data) {
		b.grow(len(rows))
	}
	b.data = append(b.data, rows...)
}

// Full reports whether the block reached the default capacity.
func (b *Block) Full() bool { return b.Rows() >= DefaultBlockRows }

// Compact shrinks a badly underfilled backing array to the smallest pool
// class that holds the data, releasing the outgrown array for reuse. Callers
// invoke it once, after the writing phase and before the block is shared:
// long fixpoints adopt one scatter block per partition per iteration, and
// near convergence those blocks carry a handful of rows each — without
// compaction the relation's footprint is dominated by empty capacity.
func (b *Block) Compact() {
	if b.lc == nil || len(b.data) == 0 || cap(b.data) < 2*len(b.data) {
		return
	}
	nd := b.lc.AllocData(b.cat, len(b.data))
	if cap(nd) >= cap(b.data) {
		// The pool's smallest class already spans the old array.
		b.lc.FreeData(b.cat, nd)
		return
	}
	nd = nd[:len(b.data)]
	copy(nd, b.data)
	b.lc.FreeData(b.cat, b.data)
	b.data = nd
}
