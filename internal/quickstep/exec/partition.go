package exec

import (
	"sync/atomic"

	"recstep/internal/obs"
	"recstep/internal/quickstep/storage"
)

// PartitionRelation returns the radix-partitioned view of r on keyCols with
// the given partition count (normalized to a power of two): r's carried view
// when it matches, else a scatter copy built in parallel for the caller's
// operator and retired on r (released at r's next ReclaimRetired). The
// scatter phase is contention-free: each worker routes tuples from its share
// of the source blocks into worker-private per-partition blocks, and the
// per-worker block lists are concatenated afterwards — partition p's tuples
// may span blocks written by different workers, but every block has exactly
// one writer.
func PartitionRelation(pool *Pool, r *storage.Relation, keyCols []int, parts int) *storage.PartitionedView {
	return partitionRelation(pool, r, keyCols, parts, false)
}

// PartitionRelationCarried is PartitionRelation plus carry promotion: the
// resulting view becomes the relation's carried partitioning, so future
// compatible partitioned appends merge into it (block adoption) instead of
// invalidating it. The delta step uses this on the full relation R: even
// when a fan-out shift forces one re-scatter, R comes out carrying the new
// partitioning and every later R ← R ⊎ ∆R keeps it alive.
func PartitionRelationCarried(pool *Pool, r *storage.Relation, keyCols []int, parts int) *storage.PartitionedView {
	return partitionRelation(pool, r, keyCols, parts, true)
}

func partitionRelation(pool *Pool, r *storage.Relation, keyCols []int, parts int, carry bool) *storage.PartitionedView {
	parts = storage.NormalizePartitions(parts)
	// A relation carrying a compatible partitioning (produced by a fused
	// upstream scatter, or accumulated by block-adopting appends) needs no
	// work at all.
	if v, ok := r.CarriedView(keyCols, parts); ok {
		return v
	}
	v, gen := scatterView(pool, r, keyCols, parts)
	// gen predates the block snapshot: if a mutation interleaved, the
	// promotion is refused and the (still self-consistent) view is used
	// uncarried, its blocks retired like any other scatter copy's.
	if carry {
		r.StoreCarriedView(v, gen)
	} else {
		r.RetireView(v)
	}
	return v
}

// scatterView performs the parallel scatter pass: every tuple of r is copied
// into a worker-private block of its radix partition, and the per-worker
// block lists are concatenated into a fresh view. Returns the view plus the
// mutation generation observed *before* the snapshot, for the gen-guarded
// carry promotion.
func scatterView(pool *Pool, r *storage.Relation, keyCols []int, parts int) (*storage.PartitionedView, uint64) {
	defer pool.phase(obs.PhaseScatter, -1)()
	gen := r.Generation()
	arity := r.Arity()
	blocks := r.Blocks()
	workers := pool.Workers()
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers < 1 {
		workers = 1
	}
	perWorker := make([][][]*storage.Block, workers)
	var nextBlock atomic.Int64
	pool.RunWorkers(workers, func(worker, numWorkers int) {
		w := newPartWriter(pool, storage.CatIntermediate, arity, keyCols, parts)
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		for {
			t := int(nextBlock.Add(1)) - 1
			if t >= len(blocks) || pool.Aborted() {
				break
			}
			batchScatterBlock(w, blocks[t].Data(), arity, buf)
		}
		perWorker[worker] = w.out
	})
	merged := make([][]*storage.Block, parts)
	for _, w := range perWorker {
		if w == nil {
			continue
		}
		for p, bs := range w {
			for _, b := range bs {
				b.Compact() // a scatter copy may become the relation's carried layout
			}
			merged[p] = append(merged[p], bs...)
		}
	}
	v := storage.NewPartitionedView(keyCols, parts, merged)
	pool.Copy.Scattered.Add(int64(v.NumTuples()))
	return v, gen
}
