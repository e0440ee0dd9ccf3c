package exec

import "recstep/internal/quickstep/storage"

// ResidentIndex is the set-difference index a full relation R keeps between
// fixpoint iterations: the GSCHT tuple set the OPSD flavour of the fused delta
// step seeds with R — one shared table at fan-out ≤ 1, one private table per
// radix partition otherwise — retained instead of released. Against a
// resident index one pass is a single insert-if-absent of the join output:
// a fresh insert proves the tuple new within Rt *and* absent from R, and
// leaves it indexed for the next iteration, so dedup, set difference and
// index maintenance cost O(|Rt|) with no scan or re-seed of R. QuickStep
// rebuilds this table per query because nothing outlives a query there; in
// one process it can live as long as R only grows by the ∆R it accepted.
//
// The index holds keys, not row locations, so it survives physical rewrites
// of R (coalescing, spilling) and dies only with a logical mutation it did
// not see or a shift of the pass's partitioning. Its tables allocate through
// the pool's lifecycle under storage.CatIndex and grow in place between
// passes. The owner (storage.Relation, as an Attachment) releases it.
type ResidentIndex struct {
	arity int
	part  storage.Partitioning // normalized; Parts ≤ 1 means one shared table
	// sets[p] is partition p's table, nil until the pass that seeds it.
	sets []*tupleSet
	// arenas[i] is the node cursor of sets[i]'s single writer when
	// partitioned, of worker slot i when shared. They outlive the pass so a
	// thousand small passes fill slab chunks instead of claiming one each.
	arenas []setArena
}

// ResidentCapable reports whether passes over tuples of the given arity can
// run against a resident index: it is built from compact-key GSCHT tables,
// which pack at most four columns.
func ResidentCapable(arity int) bool { return arity <= 4 }

func newResidentIndex(pool *Pool, arity int, part storage.Partitioning) *ResidentIndex {
	x := &ResidentIndex{arity: arity, part: part, sets: make([]*tupleSet, max(part.Parts, 1))}
	if part.Parts > 1 {
		x.arenas = make([]setArena, part.Parts)
	} else {
		x.arenas = make([]setArena, pool.Workers())
	}
	return x
}

// Serves reports whether the index was built for passes of this shape.
func (x *ResidentIndex) Serves(arity int, part storage.Partitioning) bool {
	_, norm := normalizeDeltaPartitioning(arity, part)
	return x.arity == arity && x.part.Equal(norm)
}

// Release returns every table to the lifecycle pool.
func (x *ResidentIndex) Release() {
	for i, s := range x.sets {
		if s != nil {
			s.release()
			x.sets[i] = nil
		}
	}
}

// Bytes is the pool footprint of the tables.
func (x *ResidentIndex) Bytes() int64 {
	var n int64
	for _, s := range x.sets {
		if s != nil {
			n += s.bytes()
		}
	}
	return n
}

// ResidentIndexBytes estimates what keys more tuples of the given arity add
// to a resident index: one slab node each (16 bytes at arity ≤ 2, 32 above)
// plus bucket heads at a load between one half and one.
func ResidentIndexBytes(keys, arity int) int64 {
	node := int64(16)
	if arity > 2 {
		node = 32
	}
	return int64(keys) * (node + 8)
}

// passPartition runs partition p's fused pass against the index: seed the
// partition's table from R's partition on first use (the OPSD build, paid
// once), then one batched insert of Rt's partition emits ∆R. All state is
// private to the calling worker, as in deltaPartition.
func (x *ResidentIndex) passPartition(pool *Pool, p int, tmpBlocks []*storage.Block, tmpRows int, rv *storage.PartitionedView, estDistinct int, emit func(rows []int32)) {
	set, ar := x.sets[p], &x.arenas[p]
	if set != nil && tmpRows == 0 {
		return
	}
	buf := getBatchBuf()
	defer putBatchBuf(buf)
	if set == nil {
		rRows := rv.Rows(p)
		set = newTupleSetIn(pool.alloc, storage.CatIndex, x.arity, rRows+estDistinct)
		x.sets[p] = set
		if rRows > 0 {
			batchBuildBlocks(set, rv.Blocks(p), x.arity, ar, buf)
			pool.Copy.SetDiffRowsScanned.Add(int64(rRows))
			rv.Cool(p)
		}
	} else {
		set.grow()
	}
	batchInsertBlocks(set, tmpBlocks, x.arity, ar, true, buf, emit)
}

// DeltaStepResident is DeltaStep in the OPSD flavour against a resident
// index over full. idx is the index full carried into this iteration, or nil;
// one that does not serve this pass's arity and partitioning is released and
// replaced. A missing index is seeded from full inside the same pass — the
// re-seed, at exactly the transient OPSD pass's cost. On return the index
// holds full ∪ ∆R and is current for full at the returned version once ∆R is
// appended (storage.Relation.AppendRelationAttaching); the caller owns it
// until then, and must release it instead if the pass was aborted.
func DeltaStepResident(pool *Pool, tmp, full *storage.Relation, idx *ResidentIndex, part storage.Partitioning, estDistinct int, outName string) (*storage.Relation, *ResidentIndex, storage.Version) {
	arity := tmp.Arity()
	if !ResidentCapable(arity) {
		panic("exec: resident delta step needs arity ≤ 4")
	}
	if idx != nil && !idx.Serves(arity, part) {
		idx.Release()
		idx = nil
	}
	keyCols, norm := normalizeDeltaPartitioning(arity, part)
	if idx == nil {
		idx = newResidentIndex(pool, arity, norm)
		pool.Copy.ResidentIndexReseeds.Add(1)
	} else {
		pool.Copy.ResidentIndexHits.Add(1)
	}
	// The version the index will be current for is read after the carry
	// promotion the pass would otherwise do itself — a mutation in version
	// terms though not in contents — and before the pass snapshots anything.
	if norm.Parts > 1 {
		PartitionRelationCarried(pool, full, keyCols, norm.Parts)
	}
	v := full.Version()
	return deltaStep(pool, tmp, full, OPSD, part, estDistinct, outName, idx), idx, v
}
