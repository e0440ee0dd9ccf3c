package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/memory"
	"recstep/internal/quickstep/storage"
)

const testIndexKey = "setdiff"

// poolOn returns a pool allocating through a fresh memory manager, so tests
// can assert that everything a pass allocated came back.
func poolOn(workers int) (*Pool, *memory.Manager) {
	m := memory.NewManager(memory.Config{})
	p := NewPool(workers)
	p.SetAlloc(m)
	return p, m
}

// randomTmp draws a duplicate-heavy join output over a domain wide enough
// that part of it is new to a relation drawn from the same domain.
func randomTmp(rng *rand.Rand, arity, n, domain int) *storage.Relation {
	tmp := storage.NewRelation("tmp", storage.NumberedColumns(arity))
	rows := make([]int32, 0, arity*n)
	for i := 0; i < n; i++ {
		for c := 0; c < arity; c++ {
			rows = append(rows, int32(rng.Intn(domain)))
		}
		if rng.Intn(4) == 0 && i > 0 {
			rows = append(rows, rows[len(rows)-arity:]...)
			i++
		}
	}
	tmp.AppendRows(rows)
	return tmp
}

// A fixpoint-shaped sequence of passes — R ← R ⊎ ∆R after each — must give
// the same ∆R whether each pass builds transient tables (either flavour) or
// runs against one resident index that is seeded once and then only extended;
// the index must follow R exactly, and release everything it allocated.
func TestResidentDeltaStepMatchesTransient(t *testing.T) {
	for _, tc := range []struct {
		arity, workers, parts int
	}{
		{2, 1, 1}, {2, 4, 1}, {2, 4, 16}, {3, 4, 1}, {4, 4, 64}, {1, 2, 16},
	} {
		// The "-sec[]" suffix keeps the subtest names stable.
		t.Run(fmt.Sprintf("arity%d-w%d-parts%d-sec[]", tc.arity, tc.workers, tc.parts), func(t *testing.T) {
			pool, mem := poolOn(tc.workers)
			rng := rand.New(rand.NewSource(int64(31*tc.arity + tc.parts)))
			part := storage.Partitioning{KeyCols: []int{0}, Parts: tc.parts}
			newR := func(name string) *storage.Relation {
				r := storage.NewRelation(name, storage.NumberedColumns(tc.arity))
				r.SetLifecycle(mem, storage.CatIDB)
				return r
			}
			resident, transient := newR("resident"), newR("transient")
			var idx *ResidentIndex
			for iter := 0; iter < 12; iter++ {
				// A growing domain keeps producing new tuples; the middle
				// passes are small, like iterations near convergence.
				n := 3000
				if iter%3 == 1 {
					n = 40
				}
				tmp := randomTmp(rng, tc.arity, n, 20+6*iter)
				algo := []DiffAlgorithm{OPSD, TPSD}[iter%2]
				want := DeltaStep(pool, tmp, transient, algo, part, tmp.NumTuples(), "delta")
				transient.AppendRelation(want)

				var got *storage.Relation
				var v storage.Version
				got, idx, v = DeltaStepResident(pool, tmp, resident, idx, part, tmp.NumTuples(), "delta")
				if !reflect.DeepEqual(got.SortedRows(), want.SortedRows()) {
					t.Fatalf("iter %d: resident ∆R (%d rows) diverges from transient %s (%d rows)",
						iter, got.NumTuples(), algo, want.NumTuples())
				}
				if gp, _ := got.Partitioning(); tc.parts > 1 && !gp.Equal(part) {
					t.Fatalf("iter %d: resident ∆R carries %v, want %v", iter, gp, part)
				}
				if !resident.AppendRelationAttaching(got, testIndexKey, idx, v) {
					t.Fatalf("iter %d: index refused by an unchanged relation", iter)
				}
				a, ok := resident.TakeAttachment(testIndexKey)
				if !ok || a != storage.Attachment(idx) {
					t.Fatalf("iter %d: index not attached after the merge", iter)
				}
				if n := idx.len(); n != resident.NumTuples() {
					t.Fatalf("iter %d: index holds %d keys, R holds %d tuples", iter, n, resident.NumTuples())
				}
				want.Release()
				got.Release()
				tmp.Release()
			}
			snap := pool.Copy.Snapshot()
			if snap.ResidentIndexReseeds != 1 || snap.ResidentIndexHits != 11 {
				t.Fatalf("reseeds=%d hits=%d, want 1 and 11", snap.ResidentIndexReseeds, snap.ResidentIndexHits)
			}
			if idx.Bytes() <= 0 || idx.Bytes() != mem.Snapshot().IndexBytes {
				t.Fatalf("index reports %d bytes, manager accounts %d under CatIndex", idx.Bytes(), mem.Snapshot().IndexBytes)
			}
			idx.Release()
			resident.Release()
			transient.Release()
			if live := mem.Snapshot().LiveTotal; live != 0 {
				t.Fatalf("%d pool bytes live after releasing everything", live)
			}
		})
	}
}

// len is the number of keys across the index's tables.
func (x *ResidentIndex) len() int {
	n := 0
	for _, s := range x.sets {
		switch {
		case s == nil:
		case s.t64 != nil:
			n += s.t64.Len()
		default:
			n += s.t128.Len()
		}
	}
	return n
}

// An index built for another fan-out or keyset is replaced, not reused, and
// what it held is returned to the pool.
func TestResidentIndexReseedsOnPartitioningShift(t *testing.T) {
	pool, mem := poolOn(2)
	rng := rand.New(rand.NewSource(5))
	full := storage.NewRelation("r", storage.NumberedColumns(2))
	full.SetLifecycle(mem, storage.CatIDB)
	var idx *ResidentIndex
	step := func(part storage.Partitioning) {
		tmp := randomTmp(rng, 2, 2000, 80)
		delta, x, v := DeltaStepResident(pool, tmp, full, idx, part, 2000, "d")
		idx = x
		full.AppendRelationAttaching(delta, testIndexKey, idx, v)
		full.TakeAttachment(testIndexKey)
		delta.Release()
		tmp.Release()
	}
	shapes := []storage.Partitioning{
		{Parts: 1}, {Parts: 1, KeyCols: []int{1}}, // fan-out ≤ 1 ignores the keyset
		{Parts: 16}, {Parts: 16, KeyCols: []int{0, 1}}, // the whole tuple, spelled out
		{Parts: 16, KeyCols: []int{1}}, {Parts: 64, KeyCols: []int{1}},
	}
	wantReseeds := []int64{1, 1, 2, 2, 3, 4}
	for i, part := range shapes {
		step(part)
		if got := pool.Copy.ResidentIndexReseeds.Load(); got != wantReseeds[i] {
			t.Fatalf("after pass %d (%v): %d reseeds, want %d", i, part, got, wantReseeds[i])
		}
		if idx.len() != full.NumTuples() {
			t.Fatalf("after pass %d: index holds %d keys, R %d tuples", i, idx.len(), full.NumTuples())
		}
	}
	idx.Release()
	full.Release()
	if live := mem.Snapshot().LiveTotal; live != 0 {
		t.Fatalf("%d pool bytes live after releasing everything", live)
	}
}

// Seeding the shared table from a fragmented R — hundreds of blocks of a few
// rows, what a long fixpoint's R looks like before coalescing — must claim
// node slabs per worker, not per block.
func TestSharedSeedClaimsSlabsPerWorker(t *testing.T) {
	const blocks, workers = 600, 2
	pool, mem := poolOn(workers)
	full := storage.NewRelation("r", storage.NumberedColumns(2))
	for i := 0; i < blocks; i++ {
		b := storage.NewBlock(2)
		for j := 0; j < 8; j++ {
			b.Append([]int32{int32(i), int32(j)})
		}
		full.AdoptBlock(b)
	}
	tmp := storage.NewRelation("tmp", storage.NumberedColumns(2))
	tmp.AppendRows([]int32{0, 0, -1, -1})
	delta := DeltaStep(pool, tmp, full, OPSD, wtp(1), 2, "delta")
	if delta.NumTuples() != 1 {
		t.Fatalf("delta has %d tuples, want 1", delta.NumTuples())
	}
	// 4800 keys fit five 16 KiB slab chunks; one chunk per block would be 600
	// of them (9.8 MB).
	if peak := mem.Snapshot().PeakLive; peak > 1<<20 {
		t.Fatalf("seeding %d small blocks peaked at %d pool bytes", blocks, peak)
	}
}

func hasCachedBuild(r *storage.Relation, keys []int) bool {
	_, ok := r.Attachment(BuildCacheKey(keys))
	return ok
}

// A join told to cache its build keeps the table on the build relation and
// the next join probes it without rebuilding; a mutation of the relation or a
// rewrite of its blocks drops it.
func TestJoinCachedBuild(t *testing.T) {
	pool := NewPool(2)
	arc := storage.NewRelation("arc", storage.NumberedColumns(2))
	for i := 0; i < 40; i++ {
		rows := make([]int32, 0, 16)
		for j := 0; j < 8; j++ {
			rows = append(rows, int32(8*i+j), int32(8*i+j+1))
		}
		arc.AdoptBlock(storage.BlockFromRows(2, rows))
	}
	delta := storage.NewRelation("d", storage.NumberedColumns(2))
	delta.AppendRows([]int32{100, 7, 100, 300, 100, 999})
	spec := JoinSpec{
		LeftKeys: []int{1}, RightKeys: []int{0},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
		OutName: "j",
	}
	want := HashJoin(pool, delta, arc, spec).SortedRows()
	if len(want) != 4 {
		t.Fatalf("reference join has %d rows, want 2", len(want)/2)
	}
	join := func() {
		t.Helper()
		cached := spec
		cached.CacheBuild = true
		if got := HashJoin(pool, delta, arc, cached).SortedRows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cached-build join = %v, want %v", got, want)
		}
	}
	hits := func() int64 { return pool.Copy.CachedBuildHits.Load() }

	join()
	if !hasCachedBuild(arc, []int{0}) || hits() != 0 {
		t.Fatalf("first join: cached=%v hits=%d, want a fresh table kept", hasCachedBuild(arc, []int{0}), hits())
	}
	join()
	if hits() != 1 {
		t.Fatalf("second join: %d cache hits, want 1", hits())
	}
	if hasCachedBuild(arc, []int{1}) {
		t.Fatal("a table keyed on column 0 serves a join keyed on column 1")
	}

	arc.CoalescePartitions() // 40 blocks of 8 rows: rewritten
	if len(arc.Blocks()) >= 40 {
		t.Fatalf("setup: coalescing left %d blocks", len(arc.Blocks()))
	}
	if !hasCachedBuild(arc, []int{0}) {
		t.Fatal("build table died with a rewrite of its relation's blocks")
	}
	join()
	if hits() != 2 {
		t.Fatalf("after the rewrite: %d cache hits, want 2", hits())
	}

	arc.Append([]int32{7, 555})
	if hasCachedBuild(arc, []int{0}) {
		t.Fatal("build table survived an append to its relation")
	}
	want = HashJoin(pool, delta, arc, spec).SortedRows()
	join()
	if len(want) != 6 {
		t.Fatalf("join after the append has %d rows, want 3", len(want)/2)
	}
}

// A cached build table holds its own copy of the build rows, so a probe
// through it reads none of the build relation's blocks: under a memory budget
// the join output pushes the pool over, the reclaimer may spill the build
// relation's cold partitions from under the probe, and the output is whole.
// A rebuild reads the partitions in this epoch, so none of them is cold.
func TestJoinCachedBuildUnderBudget(t *testing.T) {
	const baseRows, probeRows, parts = 20000, 60000, 16
	run := func(budget int64, cache bool) (rows int, snap memory.Snapshot) {
		mem := memory.NewManager(memory.Config{BudgetBytes: budget, SpillDir: t.TempDir()})
		defer mem.Close()
		pool := NewPool(2)
		pool.SetAlloc(mem)
		base := storage.NewRelation("base", storage.NumberedColumns(2))
		base.SetLifecycle(mem, storage.CatIDB)
		data := make([]int32, 0, 2*baseRows)
		for i := 0; i < baseRows; i++ {
			data = append(data, int32(i), int32(i+1))
		}
		base.AppendRows(data)
		PartitionRelationCarried(pool, base, []int{0}, parts)
		base.ReclaimRetired()
		mem.Register(base)
		probe := storage.NewRelation("probe", storage.NumberedColumns(2))
		data = data[:0]
		for i := 0; i < probeRows; i++ {
			data = append(data, int32(i), int32(i%baseRows))
		}
		probe.AppendRows(data)
		spec := JoinSpec{
			LeftKeys: []int{1}, RightKeys: []int{0}, Partitions: parts, CacheBuild: cache,
			Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
			OutName: "j",
		}
		warm := storage.NewRelation("warm", storage.NumberedColumns(2))
		warm.AppendRows([]int32{0, 0})
		HashJoin(pool, warm, base, spec).Release() // builds (and, cached, keeps) the table
		mem.EndEpoch()
		mem.EndEpoch()
		if budget == 0 {
			return 0, mem.Snapshot()
		}
		out := HashJoin(pool, probe, base, spec)
		defer out.Release()
		return out.NumTuples(), mem.Snapshot()
	}
	_, unbudgeted := run(0, false)
	budget := unbudgeted.LiveTotal + 64<<10
	for _, cache := range []bool{false, true} {
		rows, snap := run(budget, cache)
		if rows != probeRows {
			t.Errorf("cache=%v: join under budget %d returned %d rows, want %d (spills=%d)", cache, budget, rows, probeRows, snap.Spills)
		}
		if !cache && snap.Spills != 0 {
			t.Errorf("%d partitions spilled from under a rebuild reading them", snap.Spills)
		}
		if cache && snap.Spills == 0 {
			t.Error("nothing spilled under the cached probe: the run no longer exercises it")
		}
	}
}

// TestBuildTableBytesMatchesTheHeap holds the estimate the planner checks a
// cached build against the pool's headroom with to what a build allocates:
// 1-, 2- and 5-key tables with one payload column over 100 k distinct keys,
// and a 2-key table that stores no payload, each estimate within 1.5× of the
// TotalAlloc growth the build caused.
func TestBuildTableBytesMatchesTheHeap(t *testing.T) {
	const rows = 100_000
	pool := NewPool(1)
	for _, c := range []struct{ keys, arity int }{{1, 2}, {2, 3}, {5, 6}, {2, 2}} {
		keys, arity := c.keys, c.arity
		r := storage.NewRelation("r", storage.NumberedColumns(arity))
		data := make([]int32, 0, rows*arity)
		for i := 0; i < rows; i++ {
			for c := 0; c < arity; c++ {
				data = append(data, int32(i*(c+1)))
			}
		}
		r.AppendRows(data)
		cols := storage.AllCols(keys)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		jt := buildJoinTable(pool, r, cols, payloadCols(arity, cols), 1)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(jt)
		got, est := int64(after.TotalAlloc-before.TotalAlloc), BuildTableBytes(rows, arity, keys)
		t.Logf("%d keys of %d columns: estimate %d bytes, allocated %d", keys, arity, est, got)
		if 2*est > 3*got || 2*got > 3*est {
			t.Errorf("%d keys of %d columns: estimate %d bytes, the build allocated %d", keys, arity, est, got)
		}
	}
}
