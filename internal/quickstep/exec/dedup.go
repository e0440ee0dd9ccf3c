package exec

import (
	"sort"
	"sync"

	"recstep/internal/obs"
	"recstep/internal/quickstep/gscht"
	"recstep/internal/quickstep/storage"
)

// DedupStrategy selects the deduplication implementation. FAST-DEDUP is the
// paper's CCK-GSCHT; the other two are the baselines it replaced, kept for
// the Figure 2/3 ablation.
type DedupStrategy int

const (
	// DedupGSCHT is FAST-DEDUP: the latch-free compact-concatenated-key
	// global separate chaining hash table.
	DedupGSCHT DedupStrategy = iota
	// DedupLockMap is a coarse-grained locked hash set with explicit
	// ⟨key,value⟩ materialization — the pre-optimization structure.
	DedupLockMap
	// DedupSort deduplicates by sorting and skipping equal neighbours, the
	// strategy the paper attributes to Graspan's frequent-sorting weakness.
	DedupSort
)

// String names the strategy for experiment output.
func (s DedupStrategy) String() string {
	switch s {
	case DedupGSCHT:
		return "cck-gscht"
	case DedupLockMap:
		return "lock-map"
	case DedupSort:
		return "sort"
	}
	return "unknown"
}

// tupleSet is a concurrent set of fixed-arity tuples. Arity ≤ 2 uses 64-bit
// compact keys, arity ≤ 4 uses 128-bit keys (the benchmark programs reach
// arity 4 with clique4), wider tuples — and the lock-map baseline at any
// arity — use the generic locked map, which the window kernels walk row by
// row.
type tupleSet struct {
	arity int
	t64   *gscht.Table64
	t128  *gscht.Table128

	mu      sync.Mutex
	generic map[string]struct{}
}

// setArena carries the per-worker allocation state for tupleSet inserts.
type setArena struct {
	a64  gscht.Arena64
	a128 gscht.Arena128
	buf  []byte
}

// newTupleSet allocates a set through lc (nil = Go heap), so engine dedup
// tables are budget-accounted and their arrays recycled on release.
func newTupleSet(lc storage.Lifecycle, arity, estDistinct int) *tupleSet {
	return newTupleSetIn(lc, storage.CatIntermediate, arity, estDistinct)
}

// newTupleSetIn is newTupleSet charged to cat (resident indexes account
// under their own category so their bytes show as a gauge).
func newTupleSetIn(lc storage.Lifecycle, cat storage.Category, arity, estDistinct int) *tupleSet {
	s := &tupleSet{arity: arity}
	switch {
	case arity <= 2:
		s.t64 = gscht.NewTable64In(lc, cat, estDistinct)
	case arity <= 4:
		s.t128 = gscht.NewTable128In(lc, cat, estDistinct)
	default:
		s.generic = make(map[string]struct{}, estDistinct)
	}
	return s
}

// grow doubles a compact-key table's buckets until they outnumber its keys
// again. Quiescent points only — between the passes of a set that outlives
// them.
func (s *tupleSet) grow() {
	for s.t64 != nil && s.t64.NeedsGrow() {
		s.t64.Grow()
	}
	for s.t128 != nil && s.t128.NeedsGrow() {
		s.t128.Grow()
	}
}

// bytes is the set's pool footprint (zero for the heap-backed generic map).
func (s *tupleSet) bytes() int64 {
	switch {
	case s.t64 != nil:
		return s.t64.Bytes()
	case s.t128 != nil:
		return s.t128.Bytes()
	}
	return 0
}

// release returns the set's table memory to its lifecycle pool. The set must
// be quiescent and is unusable afterwards.
func (s *tupleSet) release() {
	if s.t64 != nil {
		s.t64.Release()
	}
	if s.t128 != nil {
		s.t128.Release()
	}
}

// chainSampleBuckets caps how many buckets a chain-length observation scans
// per table, and chainSampleEvery thins the releases that get scanned at
// all. Both exist for the same reason: a chain scan is a dependent-load walk
// over the node arena, and with hundreds of per-partition releases per
// iteration an every-release scan alone blows the ≤2% observability budget
// benchobs enforces.
const (
	chainSampleBuckets = 1024
	chainSampleEvery   = 16
)

// observeChains samples the set's GSCHT bucket chain lengths into h. Called
// at release time (quiescent table); generic-map sets have no chains.
func (s *tupleSet) observeChains(h *obs.Histogram) {
	switch {
	case s.t64 != nil:
		s.t64.ObserveChains(chainSampleBuckets, func(n int) { h.Observe(int64(n)) })
	case s.t128 != nil:
		s.t128.ObserveChains(chainSampleBuckets, func(n int) { h.Observe(int64(n)) })
	}
}

// packRowString packs a tuple into the generic set's string key.
func packRowString(row []int32, buf []byte) string {
	buf = buf[:0]
	for _, v := range row {
		u := uint32(v)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(buf)
}

func (s *tupleSet) insert(row []int32, ar *setArena) bool {
	switch {
	case s.t64 != nil:
		return s.t64.InsertIfAbsent(gscht.PackKey64(row), &ar.a64)
	case s.t128 != nil:
		return s.t128.InsertIfAbsent(gscht.PackKey128(row), &ar.a128)
	default:
		if ar.buf == nil {
			ar.buf = make([]byte, 4*s.arity)
		}
		k := packRowString(row, ar.buf)
		s.mu.Lock()
		_, ok := s.generic[k]
		if !ok {
			s.generic[k] = struct{}{}
		}
		s.mu.Unlock()
		return !ok
	}
}

func (s *tupleSet) contains(row []int32, ar *setArena) bool {
	switch {
	case s.t64 != nil:
		return s.t64.Contains(gscht.PackKey64(row))
	case s.t128 != nil:
		return s.t128.Contains(gscht.PackKey128(row))
	default:
		if ar.buf == nil {
			ar.buf = make([]byte, 4*s.arity)
		}
		k := packRowString(row, ar.buf)
		s.mu.Lock()
		_, ok := s.generic[k]
		s.mu.Unlock()
		return ok
	}
}

// Dedup removes duplicate tuples from in, returning a fresh relation with
// set semantics. estDistinct pre-sizes the hash table (the OOF-supplied
// conservative estimate). Every Dedup call materializes its output flat —
// the copy the fused DeltaStep exists to avoid — so it counts one flat
// materialization against the pool's copy accounting.
func Dedup(pool *Pool, in *storage.Relation, strategy DedupStrategy, estDistinct int, outName string) *storage.Relation {
	pool.Copy.FlatMats.Add(1)
	if strategy == DedupSort {
		return dedupSort(in, outName)
	}
	blocks := in.Blocks()
	col := newCollector(pool, storage.CatIntermediate, in.Arity(), len(blocks))
	var set *tupleSet
	if strategy == DedupGSCHT {
		set = newTupleSet(pool.alloc, in.Arity(), estDistinct)
	} else {
		// Coarse locked map baseline: force the generic path regardless of
		// arity so every insert serializes on one mutex.
		set = &tupleSet{arity: in.Arity(), generic: make(map[string]struct{}, estDistinct)}
	}
	arity := in.Arity()
	pool.Run(len(blocks), func(task int) {
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		var ar setArena
		batchInsertBlocks(set, blocks[task:task+1], arity, &ar, false, buf, col.sinkBulk(task))
	})
	out := col.into(outName, in.ColNames())
	pool.observeChains(set)
	set.release()
	return out
}

// dedupSort sorts the materialized table and drops equal neighbours.
func dedupSort(in *storage.Relation, outName string) *storage.Relation {
	arity := in.Arity()
	data := in.Rows()
	n := len(data) / arity
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		ra, rb := data[a*arity:(a+1)*arity], data[b*arity:(b+1)*arity]
		for k := 0; k < arity; k++ {
			if ra[k] != rb[k] {
				return ra[k] < rb[k]
			}
		}
		return false
	}
	sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	out := storage.NewRelation(outName, in.ColNames())
	var prev []int32
	rows := make([]int32, 0, len(data))
	for _, i := range idx {
		row := data[i*arity : (i+1)*arity]
		if prev != nil && equalRows(prev, row) {
			continue
		}
		rows = append(rows, row...)
		prev = row
	}
	out.AppendRows(rows)
	return out
}

func equalRows(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
