package exec

import (
	"fmt"

	"recstep/internal/obs"
	"recstep/internal/quickstep/storage"
)

// DeltaStep fuses the tail of one semi-naive fixpoint iteration — dedup of
// the join output Rt, the OPSD/TPSD set difference against the full relation
// R, and the materialization of ∆R — into a single per-partition pass.
//
// The staged pipeline (Dedup → Diff → collect) materializes the deduplicated
// Rδ as a flat relation, re-scatters both Rδ and R inside the partitioned
// diff, and copies every surviving tuple once more into ∆R: four to five
// copies of each tuple per iteration. DeltaStep instead consumes both inputs
// as whole-tuple radix partitions (reusing carried partitionings when the
// upstream operator already scattered its output — the fused-scatter path)
// and runs each partition on one worker with private, latch-free state:
//
//   - OPSD flavour: the per-partition dedup table is seeded with R's
//     partition, so one InsertIfAbsent per Rt tuple answers both questions at
//     once — "first occurrence in Rt?" and "absent from R?". The dedup table
//     doubles as the anti-probe structure; Rδ never exists.
//   - TPSD flavour (chosen per partition when Rt's partition is smaller than
//     R's): Rt is deduplicated into a table plus a candidate buffer, R's
//     partition probes that same table to mark the intersection, and the
//     candidates outside the intersection are emitted — the build over a
//     large R is avoided exactly as in Algorithm 5, without materializing
//     the staged r = R ∩ Rδ relation.
//
// ∆R is emitted directly into per-partition blocks of the same partitioning,
// so the returned relation carries it: R ← R ⊎ ∆R merges partition block
// lists without copying and the *next* iteration's DeltaStep finds R
// pre-partitioned.
//
// part describes the radix partitioning every stage of the pass uses. Its
// key columns need not span the whole tuple: any key subset routes equal
// tuples to equal partitions, so the per-partition dedup and set difference
// stay correct under a *join-key* partitioning — the carried-partitioning
// optimization that lets ∆R exit the delta step already scattered on the
// columns the next iteration's hash builds probe on, eliminating the
// per-join re-scatter of the hottest relation in the fixpoint. Empty
// KeyCols selects the whole-tuple layout. estDistinct is the OOF estimate
// of |Rδ| used to pre-size the per-partition tables. part.Parts <= 1 runs
// the same fused pass over the raw block lists with no scatter and a flat
// result. Per-partition passes are scheduled partition-affine, so the same
// worker revisits the same partition of R every iteration.
func DeltaStep(pool *Pool, tmp, full *storage.Relation, algo DiffAlgorithm, part storage.Partitioning, estDistinct int, outName string) *storage.Relation {
	return deltaStep(pool, tmp, full, algo, part, estDistinct, outName, nil)
}

// normalizeDeltaPartitioning resolves a pass's partitioning descriptor: the
// fan-out clamped to a power of two, an empty keyset meaning the whole tuple,
// and every unpartitioned pass (fan-out ≤ 1 routes nothing) collapsing to the
// same descriptor.
func normalizeDeltaPartitioning(arity int, part storage.Partitioning) (keyCols []int, norm storage.Partitioning) {
	parts := storage.NormalizePartitions(part.Parts)
	keyCols = part.KeyCols
	if len(keyCols) == 0 {
		keyCols = storage.AllCols(arity)
	}
	if parts <= 1 {
		return keyCols, storage.Partitioning{Parts: 1}
	}
	return keyCols, storage.Partitioning{KeyCols: keyCols, Parts: parts}
}

// deltaStep is the pass behind DeltaStep and DeltaStepResident. res, when
// set, is the resident index the pass runs against instead of building
// transient tables (algo is then moot).
func deltaStep(pool *Pool, tmp, full *storage.Relation, algo DiffAlgorithm, part storage.Partitioning, estDistinct int, outName string, res *ResidentIndex) *storage.Relation {
	if tmp.Arity() != full.Arity() {
		panic("exec: delta step arity mismatch")
	}
	arity := tmp.Arity()
	keyCols, norm := normalizeDeltaPartitioning(arity, part)
	parts := norm.Parts
	if !(storage.Partitioning{KeyCols: keyCols, Parts: parts}).CoLocatesEqualTuples(arity) {
		panic(fmt.Sprintf("exec: delta partitioning %v incompatible with arity %d", keyCols, arity))
	}
	if estDistinct <= 0 {
		estDistinct = tmp.NumTuples()
	}

	if parts <= 1 {
		return deltaShared(pool, tmp, full, algo, arity, estDistinct, outName, res)
	}

	tv := PartitionRelation(pool, tmp, keyCols, parts)
	rv := PartitionRelationCarried(pool, full, keyCols, parts)
	estPart := estDistinct/parts + 1
	col := newPartCollector(pool, storage.CatDelta, arity, parts, storage.Partitioning{KeyCols: keyCols, Parts: parts}, &pool.Copy)
	pool.RunPartitions(parts, func(p int) {
		defer pool.phase(obs.PhaseDelta, p)()
		if res == nil && tv.Rows(p) > 0 {
			// Either transient flavour reads all of R's partition.
			pool.Copy.SetDiffRowsScanned.Add(int64(rv.Rows(p)))
		}
		emit := col.sinkPartBulk(p, p)
		if pool.om != nil {
			// Count accepted ∆ rows for the per-partition skew histogram.
			prim := emit
			accepted := 0
			emit = func(rows []int32) { accepted += len(rows) / arity; prim(rows) }
			defer func() { pool.om.DeltaPartRows.Observe(int64(accepted)) }()
		}
		if res != nil {
			res.passPartition(pool, p, tv.Blocks(p), tv.Rows(p), rv, estPart, emit)
			return
		}
		// Transient tables live and die inside this pass, on this worker: a
		// pass-private magazine lifecycle serves them.
		lc, done := pool.passAlloc()
		deltaPartition(pool, lc, tv.Blocks(p), rv.Blocks(p), tv.Rows(p), rv.Rows(p),
			algo, arity, estPart, emit)
		done()
		// Under a memory budget, R's partition becomes evictable the moment
		// its pass completes — otherwise one delta step re-pins all of R.
		rv.Cool(p)
	})
	return col.into(outName, tmp.ColNames())
}

// deltaShared is the unpartitioned fused pass (parts <= 1): the same
// dedup-table-doubles-as-anti-probe semantics over one shared latch-free
// table, block-parallel on the pool. Partitioning off must not also mean
// parallelism off — the staged pipeline this replaces ran its dedup and
// anti-probe concurrently, so the fused fallback does too. Arenas are per
// worker, not per block task: seeding from a fragmented R would otherwise
// claim one slab chunk per small block. With res set the shared table is the
// resident index's: seeded from R only if this is its first pass, grown in
// place otherwise, and left alive holding R ∪ ∆R.
func deltaShared(pool *Pool, tmp, full *storage.Relation, algo DiffAlgorithm, arity, estDistinct int, outName string, res *ResidentIndex) *storage.Relation {
	defer pool.phase(obs.PhaseDelta, -1)()
	tmpBlocks := tmp.Blocks()
	tmpRows, rRows := tmp.NumTuples(), full.NumTuples()
	// A one-worker pool runs every task on a single goroutine, so the shared
	// table has exactly one writer and the kernels can drop the CAS publish.
	local := pool.Workers() == 1
	arenas := make([]setArena, pool.Workers())
	if res != nil {
		arenas = res.arenas
	}
	// perBlock runs fn over every block with the claiming worker's arena and
	// a borrowed scratch buffer.
	perBlock := func(blocks []*storage.Block, fn func(task int, ar *setArena, buf *batchBuf)) {
		pool.runTasksPerWorker(len(blocks), func(w, task int) {
			buf := getBatchBuf()
			defer putBatchBuf(buf)
			fn(task, &arenas[w], buf)
		})
	}
	dedupEmit := func(set *tupleSet) *storage.Relation {
		col := newCollector(pool, storage.CatDelta, arity, len(tmpBlocks))
		perBlock(tmpBlocks, func(task int, ar *setArena, buf *batchBuf) {
			batchInsertBlocks(set, tmpBlocks[task:task+1], arity, ar, local, buf, col.sinkBulk(task))
		})
		return col.into(outName, tmp.ColNames())
	}
	// seed inserts all of R into set — the OPSD build.
	seed := func(set *tupleSet) {
		rBlocks := full.Blocks()
		perBlock(rBlocks, func(task int, ar *setArena, buf *batchBuf) {
			if local {
				// One worker ⇒ single writer, and R is duplicate-free: the
				// seed can bulk-build without dup checks.
				batchBuildBlocks(set, rBlocks[task:task+1], arity, ar, buf)
			} else {
				batchInsertBlocks(set, rBlocks[task:task+1], arity, ar, false, buf, nil)
			}
		})
		pool.Copy.SetDiffRowsScanned.Add(int64(rRows))
	}

	if res != nil {
		set := res.sets[0]
		if set == nil {
			set = newTupleSetIn(pool.alloc, storage.CatIndex, arity, rRows+estDistinct)
			res.sets[0] = set
			if rRows > 0 {
				seed(set)
			}
		} else {
			set.grow()
		}
		if tmpRows == 0 {
			return storage.NewRelation(outName, tmp.ColNames())
		}
		return dedupEmit(set)
	}

	switch {
	case tmpRows == 0:
		return storage.NewRelation(outName, tmp.ColNames())
	case rRows == 0:
		set := newTupleSet(pool.alloc, arity, estDistinct)
		out := dedupEmit(set)
		pool.observeChains(set)
		set.release()
		return out
	case algo == TPSD && tmpRows < rRows:
		dset := newTupleSet(pool.alloc, arity, min(tmpRows, estDistinct))
		candCol := newCollector(pool, storage.CatIntermediate, arity, len(tmpBlocks))
		perBlock(tmpBlocks, func(task int, ar *setArena, buf *batchBuf) {
			batchInsertBlocks(dset, tmpBlocks[task:task+1], arity, ar, local, buf, candCol.sinkBulk(task))
		})
		cand := candCol.into(outName, tmp.ColNames())
		inter := newTupleSet(pool.alloc, arity, min(cand.NumTuples(), rRows))
		rBlocks := full.Blocks()
		perBlock(rBlocks, func(task int, ar *setArena, buf *batchBuf) {
			batchIntersect(dset, inter, rBlocks[task:task+1], arity, ar, local, buf)
		})
		pool.Copy.SetDiffRowsScanned.Add(int64(rRows))
		pool.observeChains(dset)
		dset.release()
		out := antiProbe(pool, cand, inter, outName)
		inter.release()
		cand.Release()
		return out
	default:
		set := newTupleSet(pool.alloc, arity, rRows+estDistinct)
		seed(set)
		out := dedupEmit(set)
		pool.observeChains(set)
		set.release()
		return out
	}
}

// deltaPartition runs the fused dedup + set-difference pass over one
// partition. All state is private to the calling worker: lc is the
// pass-private lifecycle (a per-worker magazine under a managed pool) the
// dedup tables allocate through, emit receives row-major runs of accepted ∆R
// rows.
func deltaPartition(pool *Pool, lc storage.Lifecycle, tmpBlocks, rBlocks []*storage.Block, tmpRows, rRows int, algo DiffAlgorithm, arity, estDistinct int, emit func(rows []int32)) {
	if tmpRows == 0 {
		return
	}
	buf := getBatchBuf()
	defer putBatchBuf(buf)
	var ar setArena
	if rRows == 0 {
		// Nothing to subtract: the pass degenerates to pure dedup.
		set := newTupleSet(lc, arity, estDistinct)
		batchInsertBlocks(set, tmpBlocks, arity, &ar, true, buf, emit)
		pool.observeChains(set)
		set.release()
		return
	}
	if algo == TPSD && tmpRows < rRows {
		// TPSD flavour: dedup Rt into a table + candidate buffer, mark the
		// intersection by probing R, anti-probe the candidates.
		dset := newTupleSet(lc, arity, min(tmpRows, estDistinct))
		cand := make([]int32, 0, min(tmpRows, estDistinct)*arity)
		batchInsertBlocks(dset, tmpBlocks, arity, &ar, true, buf, func(rows []int32) {
			cand = append(cand, rows...)
		})
		inter := newTupleSet(lc, arity, min(len(cand)/arity, rRows))
		batchIntersect(dset, inter, rBlocks, arity, &ar, true, buf)
		pool.observeChains(dset)
		dset.release()
		batchAntiProbeRows(inter, cand, arity, buf, emit)
		inter.release()
		return
	}
	// OPSD flavour: seed the dedup table with R (R is duplicate-free, so the
	// seed skips the dup-check walk entirely), then one batched insert pass
	// over Rt answers dedup and diff at once.
	set := newTupleSet(lc, arity, rRows+estDistinct)
	batchBuildBlocks(set, rBlocks, arity, &ar, buf)
	batchInsertBlocks(set, tmpBlocks, arity, &ar, true, buf, emit)
	pool.observeChains(set)
	set.release()
}
