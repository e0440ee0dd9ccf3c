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
	return deltaStep(pool, tmp, full, algo, part, storage.Partitioning{}, estDistinct, outName, nil)
}

// DeltaStepDual is DeltaStep with a *secondary* carried partitioning: every
// accepted ∆R row is scattered into blocks of both layouts inside the same
// per-partition pass — the primary partitions that become ∆R's (and, after
// the merge, R's) carried contents, and a second scatter copy routed on
// sec.KeyCols that ∆R carries as its secondary view. R ⊎ ∆R then merges both
// views, so a predicate whose recursive rules join it on two conflicting
// keysets (CSPA's valueFlow on columns 0 and 1) serves *both* join shapes
// from carried partitions: one extra scatter copy of the (small) delta per
// iteration buys zero per-iteration build scatters of the (large) carried
// relations. sec must route on different key columns than part; equal
// routings, an empty sec keyset or an unpartitioned pass degrade to the
// plain DeltaStep.
func DeltaStepDual(pool *Pool, tmp, full *storage.Relation, algo DiffAlgorithm, part, sec storage.Partitioning, estDistinct int, outName string) *storage.Relation {
	return deltaStep(pool, tmp, full, algo, part, sec, estDistinct, outName, nil)
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

// deltaStep is the pass behind DeltaStep, DeltaStepDual and
// DeltaStepResident. res, when set, is the resident index the pass runs
// against instead of building transient tables (algo is then moot).
func deltaStep(pool *Pool, tmp, full *storage.Relation, algo DiffAlgorithm, part, sec storage.Partitioning, estDistinct int, outName string, res *ResidentIndex) *storage.Relation {
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

	secParts := storage.NormalizePartitions(sec.Parts)
	useSec := secParts > 1 && len(sec.KeyCols) > 0 &&
		!storage.KeyColsEqual(sec.KeyCols, keyCols) &&
		(storage.Partitioning{KeyCols: sec.KeyCols, Parts: secParts}).CoLocatesEqualTuples(arity)

	tv := PartitionRelation(pool, tmp, keyCols, parts)
	rv := PartitionRelationCarried(pool, full, keyCols, parts)
	estPart := estDistinct/parts + 1
	col := newPartCollector(pool, storage.CatDelta, arity, parts, storage.Partitioning{KeyCols: keyCols, Parts: parts}, &pool.Copy)
	var secOut [][][]*storage.Block
	if useSec {
		secOut = make([][][]*storage.Block, parts)
	}
	batch := pool.batch && arity <= 4
	pool.RunPartitions(parts, func(p int) {
		defer pool.phase(obs.PhaseDelta, p)()
		if res == nil && tv.Rows(p) > 0 {
			// Either transient flavour reads all of R's partition.
			pool.Copy.SetDiffRowsScanned.Add(int64(rv.Rows(p)))
		}
		if batch {
			// Batch route: kernel-at-a-time pass with bulk ∆R emission.
			emitBulk := col.sinkPartBulk(p, p)
			if pool.om != nil {
				// Count accepted ∆ rows for the per-partition skew histogram.
				prim := emitBulk
				accepted := 0
				emitBulk = func(rows []int32) { accepted += len(rows) / arity; prim(rows) }
				defer func() { pool.om.DeltaPartRows.Observe(int64(accepted)) }()
			}
			if useSec {
				// Dual route: the accepted run lands in its primary partition
				// block in bulk, then each row routes through a pass-private
				// writer into its secondary partition block.
				w := newPartWriter(pool, storage.CatDelta, arity, sec.KeyCols, secParts)
				prim := emitBulk
				emitBulk = func(rows []int32) {
					prim(rows)
					for off := 0; off < len(rows); off += arity {
						w.write(rows[off : off+arity])
					}
				}
				defer func() { secOut[p] = w.out }()
			}
			if res != nil {
				res.passPartition(pool, p, tv.Blocks(p), tv.Rows(p), rv, estPart, emitBulk)
				return
			}
			// Transient tables live and die inside this pass, on this worker:
			// a pass-private magazine lifecycle serves them.
			lc, done := pool.passAlloc()
			deltaPartitionBatch(pool, lc, tv.Blocks(p), rv.Blocks(p), tv.Rows(p), rv.Rows(p),
				algo, arity, estPart, emitBulk)
			done()
			rv.Cool(p)
			return
		}
		emit := col.sinkPart(p, p)
		if pool.om != nil {
			prim := emit
			accepted := 0
			emit = func(row []int32) { accepted++; prim(row) }
			defer func() { pool.om.DeltaPartRows.Observe(int64(accepted)) }()
		}
		if useSec {
			// Dual route: the same accepted row lands in its primary
			// partition block and, via a pass-private writer, in its
			// secondary partition block — one fused pass, one extra copy.
			w := newPartWriter(pool, storage.CatDelta, arity, sec.KeyCols, secParts)
			prim := emit
			emit = func(row []int32) {
				prim(row)
				w.write(row)
			}
			defer func() { secOut[p] = w.out }()
		}
		deltaPartition(pool, tv.Blocks(p), rv.Blocks(p), tv.Rows(p), rv.Rows(p),
			algo, arity, estPart, emit)
		// Under a memory budget, R's partition becomes evictable the moment
		// its pass completes — otherwise one delta step re-pins all of R.
		rv.Cool(p)
	})
	out := col.into(outName, tmp.ColNames())
	if useSec {
		merged := make([][]*storage.Block, secParts)
		total := int64(0)
		for _, byPart := range secOut {
			if byPart == nil {
				continue
			}
			for sp, bs := range byPart {
				for _, b := range bs {
					b.Compact()
					total += int64(b.Rows())
				}
				merged[sp] = append(merged[sp], bs...)
			}
		}
		pool.Copy.Scattered.Add(total)
		pool.Copy.SecondaryScattered.Add(total)
		out.StoreSecondaryView(storage.NewPartitionedView(sec.KeyCols, secParts, merged), out.Generation())
	}
	return out
}

// deltaShared is the unpartitioned fused pass (parts <= 1): the same
// dedup-table-doubles-as-anti-probe semantics over one shared latch-free
// table, block-parallel on the pool. Partitioning off must not also mean
// parallelism off — the staged pipeline this replaces ran its dedup and
// anti-probe concurrently, so the fused fallback does too. Arenas are per
// worker, not per block task: seeding from a fragmented R would otherwise
// claim one slab chunk per small block.
func deltaShared(pool *Pool, tmp, full *storage.Relation, algo DiffAlgorithm, arity, estDistinct int, outName string, res *ResidentIndex) *storage.Relation {
	defer pool.phase(obs.PhaseDelta, -1)()
	if pool.batch && arity <= 4 {
		return deltaSharedBatch(pool, tmp, full, algo, arity, estDistinct, outName, res)
	}
	tmpBlocks := tmp.Blocks()
	tmpRows, rRows := tmp.NumTuples(), full.NumTuples()
	if tmpRows > 0 {
		pool.Copy.SetDiffRowsScanned.Add(int64(rRows))
	}
	arenas := make([]setArena, pool.Workers())

	// dedupEmit inserts every tmp tuple into set concurrently, emitting
	// fresh inserts — pure dedup when set starts empty, dedup + anti-probe
	// when it was seeded with R.
	dedupEmit := func(set *tupleSet) *storage.Relation {
		col := newCollector(pool, storage.CatDelta, arity, len(tmpBlocks))
		pool.runTasksPerWorker(len(tmpBlocks), func(w, task int) {
			b := tmpBlocks[task]
			emit := col.sink(task)
			ar := &arenas[w]
			n := b.Rows()
			for i := 0; i < n; i++ {
				row := b.Row(i)
				if set.insert(row, ar) {
					emit(row)
				}
			}
		})
		return col.into(outName, tmp.ColNames())
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
		// TPSD flavour: dedup Rt into a table plus candidate relation, mark
		// the intersection by probing R against that same table, then
		// anti-probe the candidates.
		dset := newTupleSet(pool.alloc, arity, min(tmpRows, estDistinct))
		candCol := newCollector(pool, storage.CatIntermediate, arity, len(tmpBlocks))
		pool.runTasksPerWorker(len(tmpBlocks), func(w, task int) {
			b := tmpBlocks[task]
			emit := candCol.sink(task)
			ar := &arenas[w]
			n := b.Rows()
			for i := 0; i < n; i++ {
				row := b.Row(i)
				if dset.insert(row, ar) {
					emit(row)
				}
			}
		})
		cand := candCol.into(outName, tmp.ColNames())
		inter := newTupleSet(pool.alloc, arity, min(cand.NumTuples(), rRows))
		rBlocks := full.Blocks()
		pool.runTasksPerWorker(len(rBlocks), func(w, task int) {
			b := rBlocks[task]
			ar := &arenas[w]
			n := b.Rows()
			for i := 0; i < n; i++ {
				row := b.Row(i)
				if dset.contains(row, ar) {
					inter.insert(row, ar)
				}
			}
		})
		pool.observeChains(dset)
		dset.release()
		out := antiProbe(pool, cand, inter, outName)
		inter.release()
		cand.Release()
		return out
	default:
		// OPSD flavour: seed the shared table with R in parallel, then one
		// insert-if-absent per Rt tuple answers dedup and diff at once.
		set := newTupleSet(pool.alloc, arity, rRows+estDistinct)
		rBlocks := full.Blocks()
		pool.runTasksPerWorker(len(rBlocks), func(w, task int) {
			b := rBlocks[task]
			ar := &arenas[w]
			n := b.Rows()
			for i := 0; i < n; i++ {
				set.insert(b.Row(i), ar)
			}
		})
		out := dedupEmit(set)
		pool.observeChains(set)
		set.release()
		return out
	}
}

// deltaPartition runs the fused dedup + set-difference pass over one
// partition. All state is private to the calling worker; the dedup tables
// allocate through the pool's lifecycle and are recycled when the partition
// pass finishes.
func deltaPartition(pool *Pool, tmpBlocks, rBlocks []*storage.Block, tmpRows, rRows int, algo DiffAlgorithm, arity, estDistinct int, emit func(row []int32)) {
	var ar setArena
	if tmpRows == 0 {
		return
	}
	if rRows == 0 {
		// Nothing to subtract: the pass degenerates to pure dedup.
		set := newTupleSet(pool.alloc, arity, estDistinct)
		for _, b := range tmpBlocks {
			data := b.Data()
			for off := 0; off < len(data); off += arity {
				if row := data[off : off+arity : off+arity]; set.insert(row, &ar) {
					emit(row)
				}
			}
		}
		pool.observeChains(set)
		set.release()
		return
	}
	if algo == TPSD && tmpRows < rRows {
		// TPSD flavour: dedup Rt into a table + candidate buffer, then let R
		// anti-mark the table's tuples via an intersection set.
		dset := newTupleSet(pool.alloc, arity, min(tmpRows, estDistinct))
		cand := make([]int32, 0, min(tmpRows, estDistinct)*arity)
		for _, b := range tmpBlocks {
			data := b.Data()
			for off := 0; off < len(data); off += arity {
				if row := data[off : off+arity : off+arity]; dset.insert(row, &ar) {
					cand = append(cand, row...)
				}
			}
		}
		inter := newTupleSet(pool.alloc, arity, min(len(cand)/arity, rRows))
		for _, b := range rBlocks {
			data := b.Data()
			for off := 0; off < len(data); off += arity {
				if row := data[off : off+arity : off+arity]; dset.contains(row, &ar) {
					inter.insert(row, &ar)
				}
			}
		}
		pool.observeChains(dset)
		dset.release()
		for off := 0; off < len(cand); off += arity {
			row := cand[off : off+arity]
			if !inter.contains(row, &ar) {
				emit(row)
			}
		}
		inter.release()
		return
	}
	// OPSD flavour: seed the dedup table with R, then a fresh insert of an
	// Rt tuple proves it is both new within Rt and absent from R.
	set := newTupleSet(pool.alloc, arity, rRows+estDistinct)
	for _, b := range rBlocks {
		data := b.Data()
		for off := 0; off < len(data); off += arity {
			set.insert(data[off:off+arity:off+arity], &ar)
		}
	}
	for _, b := range tmpBlocks {
		data := b.Data()
		for off := 0; off < len(data); off += arity {
			if row := data[off : off+arity : off+arity]; set.insert(row, &ar) {
				emit(row)
			}
		}
	}
	pool.observeChains(set)
	set.release()
}
