package exec

import (
	"sync/atomic"
	"time"

	"recstep/internal/quickstep/storage"
)

// DiffAlgorithm selects how ∆R ← Rδ − R is computed (Section 5.1, DSD).
type DiffAlgorithm int

const (
	// OPSD (One-Phase Set Difference, Algorithm 4) builds a hash set on the
	// full relation R and anti-probes with Rδ. Build cost grows with R every
	// iteration.
	OPSD DiffAlgorithm = iota
	// TPSD (Two-Phase Set Difference, Algorithm 5) builds on the smaller of
	// the two inputs, probes the larger to materialize the intersection
	// r = R ∩ Rδ, then anti-probes Rδ against r — avoiding the hash build
	// over a large R.
	TPSD
)

// String names the algorithm for experiment output.
func (a DiffAlgorithm) String() string {
	if a == OPSD {
		return "opsd"
	}
	return "tpsd"
}

// SetDifference computes ∆R = Rδ − R with the chosen algorithm. Rδ is
// assumed deduplicated (Algorithm 1 deduplicates before differencing).
func SetDifference(pool *Pool, rdelta, r *storage.Relation, algo DiffAlgorithm, outName string) *storage.Relation {
	return SetDifferencePartitioned(pool, rdelta, r, algo, 1, outName)
}

// SetDifferencePartitioned computes ∆R = Rδ − R with the chosen algorithm
// over parts radix partitions. Both inputs are partitioned on all columns,
// so a tuple of Rδ can only be cancelled by same-partition tuples of R, and
// each partition runs its whole build/probe/anti-probe pipeline on one
// worker with private, latch-free state. parts <= 1 selects the shared
// concurrent-table path.
func SetDifferencePartitioned(pool *Pool, rdelta, r *storage.Relation, algo DiffAlgorithm, parts int, outName string) *storage.Relation {
	if rdelta.Arity() != r.Arity() {
		panic("exec: set difference arity mismatch")
	}
	parts = storage.NormalizePartitions(parts)
	if parts > 1 {
		return partitionedDiff(pool, rdelta, r, algo, parts, outName)
	}
	if algo == OPSD {
		return opsd(pool, rdelta, r, outName)
	}
	return tpsd(pool, rdelta, r, outName)
}

// partitionedDiff runs OPSD or TPSD independently per radix partition.
func partitionedDiff(pool *Pool, rdelta, r *storage.Relation, algo DiffAlgorithm, parts int, outName string) *storage.Relation {
	arity := rdelta.Arity()
	allCols := storage.AllCols(arity)
	dv := PartitionRelation(pool, rdelta, allCols, parts)
	rv := PartitionRelation(pool, r, allCols, parts)
	col := newCollector(pool, storage.CatDelta, arity, parts)
	pool.RunPartitions(parts, func(p int) {
		dBlocks, rBlocks := dv.Blocks(p), rv.Blocks(p)
		lc, done := pool.passAlloc()
		defer done()
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		emit := col.sinkBulk(p)
		var ar setArena
		if rv.Rows(p) == 0 {
			// Nothing to subtract: partition p of Rδ passes through.
			for _, b := range dBlocks {
				emit(b.Data())
			}
			return
		}
		var set *tupleSet
		if algo == TPSD && dv.Rows(p) < rv.Rows(p) {
			// TPSD phase 1 on the smaller input: r∩ = R ∩ Rδ.
			bset := newTupleSet(lc, arity, dv.Rows(p))
			batchInsertBlocks(bset, dBlocks, arity, &ar, true, buf, nil)
			inter := newTupleSet(lc, arity, dv.Rows(p))
			batchIntersect(bset, inter, rBlocks, arity, &ar, true, buf)
			bset.release()
			set = inter
		} else {
			// OPSD (or TPSD whose smaller input is R): build on R directly.
			set = newTupleSet(lc, arity, rv.Rows(p))
			batchInsertBlocks(set, rBlocks, arity, &ar, true, buf, nil)
		}
		batchAntiProbeBlocks(set, dBlocks, arity, buf, emit)
		set.release()
	})
	return col.into(outName, rdelta.ColNames())
}

// buildSet inserts every tuple of rel into a fresh tupleSet, in parallel.
// The caller owns the set and releases it when done.
func buildSet(pool *Pool, rel *storage.Relation) *tupleSet {
	set := newTupleSet(pool.alloc, rel.Arity(), rel.NumTuples())
	blocks := rel.Blocks()
	arity := rel.Arity()
	pool.Run(len(blocks), func(task int) {
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		var ar setArena
		batchInsertBlocks(set, blocks[task:task+1], arity, &ar, false, buf, nil)
	})
	return set
}

// antiProbe emits rows of probe absent from set.
func antiProbe(pool *Pool, probe *storage.Relation, set *tupleSet, outName string) *storage.Relation {
	blocks := probe.Blocks()
	col := newCollector(pool, storage.CatDelta, probe.Arity(), len(blocks))
	arity := probe.Arity()
	pool.Run(len(blocks), func(task int) {
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		batchAntiProbeBlocks(set, blocks[task:task+1], arity, buf, col.sinkBulk(task))
	})
	return col.into(outName, probe.ColNames())
}

func opsd(pool *Pool, rdelta, r *storage.Relation, outName string) *storage.Relation {
	hs := buildSet(pool, r) // hash table over the full relation — the cost OPSD pays
	out := antiProbe(pool, rdelta, hs, outName)
	hs.release()
	return out
}

func tpsd(pool *Pool, rdelta, r *storage.Relation, outName string) *storage.Relation {
	// Phase 1: r∩ = R ∩ Rδ, building on the smaller input.
	build, probe := r, rdelta
	if rdelta.NumTuples() < r.NumTuples() {
		build, probe = rdelta, r
	}
	bset := buildSet(pool, build)
	inter := newTupleSet(pool.alloc, rdelta.Arity(), rdelta.NumTuples())
	blocks := probe.Blocks()
	arity := rdelta.Arity()
	pool.Run(len(blocks), func(task int) {
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		var ar setArena
		batchIntersect(bset, inter, blocks[task:task+1], arity, &ar, false, buf)
	})
	bset.release()
	// Phase 2: ∆R = Rδ − r∩.
	out := antiProbe(pool, rdelta, inter, outName)
	inter.release()
	return out
}

// MeasureBuildProbe times one hash-set build over build and one probe pass
// over probe, returning per-tuple nanosecond costs. The optimizer's offline
// α calibration (Appendix A, eq. 7) runs this on table pairs of varied size.
func MeasureBuildProbe(pool *Pool, build, probe *storage.Relation) (buildNsPerTuple, probeNsPerTuple float64) {
	t0 := time.Now()
	set := buildSet(pool, build)
	buildDur := time.Since(t0)

	t1 := time.Now()
	blocks := probe.Blocks()
	var hits atomic.Int64
	pool.Run(len(blocks), func(task int) {
		b := blocks[task]
		var ar setArena
		local := int64(0)
		n := b.Rows()
		for i := 0; i < n; i++ {
			if set.contains(b.Row(i), &ar) {
				local++
			}
		}
		hits.Add(local) // keep the probe loop from being optimized away
	})
	probeDur := time.Since(t1)
	set.release()

	bn, pn := build.NumTuples(), probe.NumTuples()
	if bn == 0 || pn == 0 {
		return 0, 0
	}
	return float64(buildDur.Nanoseconds()) / float64(bn), float64(probeDur.Nanoseconds()) / float64(pn)
}
