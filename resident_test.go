package recstep

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"recstep/internal/baselines/native"
	"recstep/internal/core"
	"recstep/internal/faultinject"
	"recstep/internal/graphs"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// csdaChains is the CSDA shape with nothing left to chance: chains parallel
// dataflow chains of the given length, one null source entering each head.
// The fixpoint takes length iterations of chains new tuples each and derives
// exactly chains × length of them.
func csdaChains(chains, length int) map[string]*storage.Relation {
	arc := storage.NewRelation("arc", storage.NumberedColumns(2))
	nullEdge := storage.NewRelation("nullEdge", storage.NumberedColumns(2))
	var arcs, nulls []int32
	for c := 0; c < chains; c++ {
		for i := 0; i < length-1; i++ {
			arcs = append(arcs, int32(c*length+i), int32(c*length+i+1))
		}
		nulls = append(nulls, int32(1_000_000+c), int32(c*length))
	}
	arc.AppendRows(arcs)
	nullEdge.AppendRows(nulls)
	return map[string]*storage.Relation{"arc": arc, "nullEdge": nullEdge}
}

// The complexity claim, as counts: on the CSDA shape the rows that set
// difference and the join probes re-read grow linearly with the chain length
// — one iteration costs O(|∆| + |join output|) once the resident index and
// the cached build on arc are in place — where the per-iteration tables of
// the forced DSD modes re-read all of R and all of arc every iteration, so
// doubling the chain quadruples their work. Exact at one worker, no clock.
func TestCSDAWorkIsDeltaProportional(t *testing.T) {
	prog := programs.MustParse(programs.CSDA)
	work := func(dsd core.DSDMode, length int) (int64, core.Stats) {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Workers = 1
		opts.DSD = dsd
		res, err := core.New(opts).Run(prog, csdaChains(4, length))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Relations["null"].NumTuples(); got != 4*length {
			t.Fatalf("length %d: derived %d tuples, want %d", length, got, 4*length)
		}
		if res.Stats.Iterations < length {
			t.Fatalf("length %d: %d iterations", length, res.Stats.Iterations)
		}
		return res.Stats.Copy.SetDiffRowsScanned + res.Stats.Copy.JoinProbeRows, res.Stats
	}
	const length = 400
	w1, s1 := work(core.DSDDynamic, length)
	w2, s2 := work(core.DSDDynamic, 2*length)
	if w2 > 2*w1 {
		t.Fatalf("doubling the chain took rows re-read from %d to %d (×%.2f), want at most ×2",
			w1, w2, float64(w2)/float64(w1))
	}
	for _, s := range []core.Stats{s1, s2} {
		if s.Copy.ResidentIndexReseeds != 1 || s.Copy.ResidentIndexHits < int64(s.Iterations)*9/10-70 {
			t.Fatalf("resident index: %d reseeds, %d hits over %d iterations", s.Copy.ResidentIndexReseeds, s.Copy.ResidentIndexHits, s.Iterations)
		}
		if s.Copy.CachedBuildHits < int64(s.Iterations)*9/10-40 {
			t.Fatalf("cached build on arc: %d hits over %d iterations", s.Copy.CachedBuildHits, s.Iterations)
		}
		if s.DiffTPSD > 70 {
			t.Fatalf("%d transient TPSD passes; the index should have taken over within a few dozen iterations", s.DiffTPSD)
		}
	}
	t.Logf("dynamic: %d → %d rows re-read (×%.2f)", w1, w2, float64(w2)/float64(w1))

	// The transient tables stay what the paper describes, and the counters
	// measure them: forced TPSD re-reads R (and the cache, arc) every
	// iteration. Only the set-difference half is forced; the join cache is
	// not a DSD matter, so compare that half.
	_, f1 := work(core.DSDAlwaysTPSD, length)
	_, f2 := work(core.DSDAlwaysTPSD, 2*length)
	if f1.Copy.ResidentIndexHits+f1.Copy.ResidentIndexReseeds != 0 {
		t.Fatal("forced TPSD ran against a resident index")
	}
	if f2.Copy.SetDiffRowsScanned < 3*f1.Copy.SetDiffRowsScanned {
		t.Fatalf("forced TPSD scanned %d then %d rows of R; the transient path should be quadratic", f1.Copy.SetDiffRowsScanned, f2.Copy.SetDiffRowsScanned)
	}
}

// The same claim at every worker count, on chains long enough that R crosses
// 2^14, the smallest partitioning tier, while ∆ stays four rows per
// iteration. The delta fan-out is capped by the previous iteration's ∆, so
// every step runs one partition task, the resident index is
// seeded once and never re-seeded by a fan-out change, and doubling the chain
// at most doubles the rows re-read. Were the fan-out sized by |R| alone, R's
// crossing 2^14 would split every few-row ∆ into 16 partition tasks at W ≥ 2,
// re-scatter R and re-seed its index: this test fails there.
func TestCSDAWorkIsDeltaProportionalAtEveryWorkerCount(t *testing.T) {
	prog := programs.MustParse(programs.CSDA)
	for _, workers := range []int{1, 2, 4} {
		work := func(length int) int64 {
			t.Helper()
			opts := core.DefaultOptions()
			opts.Workers = workers
			steps, wide := 0, 0
			opts.IterHook = func(ii core.IterInfo) {
				steps++
				if ii.DeltaParts != 1 && wide == 0 {
					wide = ii.Iteration
				}
			}
			res, err := core.New(opts).Run(prog, csdaChains(4, length))
			if err != nil {
				t.Fatal(err)
			}
			if wide != 0 {
				t.Fatalf("W=%d length %d: from iteration %d the delta pipeline ran at fan-out %v, want 1 throughout",
					workers, length, wide, res.Stats.FanOutLine())
			}
			s := res.Stats
			if got := res.Relations["null"].NumTuples(); got != 4*length || steps < length {
				t.Fatalf("W=%d length %d: derived %d tuples over %d steps, want %d tuples over ≥ %d",
					workers, length, got, steps, 4*length, length)
			}
			if s.Copy.ResidentIndexReseeds != 1 {
				t.Fatalf("W=%d length %d: resident index seeded %d times, want once", workers, length, s.Copy.ResidentIndexReseeds)
			}
			return s.Copy.SetDiffRowsScanned + s.Copy.JoinProbeRows
		}
		const length = 5000
		w1, w2 := work(length), work(2*length)
		if w2 > 2*w1 {
			t.Fatalf("W=%d: doubling the chain took rows re-read from %d to %d (×%.2f), want at most ×2",
				workers, w1, w2, float64(w2)/float64(w1))
		}
		t.Logf("W=%d: %d → %d rows re-read (×%.2f)", workers, w1, w2, float64(w2)/float64(w1))
	}
}

// A join of ∆ with a relation the fixpoint never writes builds that relation
// once and probes it with ∆ every iteration, so the rows all joins probe add
// up to at most the ∆ rows the run produced plus the EDB rows read once —
// where building the smaller side each iteration probed all of arc every
// iteration. Counted on a cc instance (recursive MIN over an undirected
// R-MAT graph) and a csda instance at one and two workers; the derived
// tuples are the baselines/native ones.
func TestInvariantProbesAreDeltaProportional(t *testing.T) {
	cases := []struct {
		program string
		edbs    func() map[string]*storage.Relation
		pred    string
		want    func(edbs map[string]*storage.Relation) *storage.Relation
	}{
		{"cc", func() map[string]*storage.Relation {
			return map[string]*storage.Relation{"arc": graphs.Undirected(graphs.RMAT(4096, 16384, 5))}
		}, "cc2", func(edbs map[string]*storage.Relation) *storage.Relation { return native.CC(edbs["arc"], 2) }},
		{"csda", func() map[string]*storage.Relation { return pa.CSDASized(8, 150, 4, 3) },
			"null", func(edbs map[string]*storage.Relation) *storage.Relation { return native.CSDA(edbs, 2) }},
	}
	for _, c := range cases {
		prog, err := programs.Get(c.program)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			edbs := c.edbs()
			var edbRows int64
			for _, r := range edbs {
				edbRows += int64(r.NumTuples())
			}
			want := c.want(edbs).SortedRows()
			opts := core.DefaultOptions()
			opts.Workers = workers
			res, err := core.New(opts).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if !reflect.DeepEqual(res.Relations[c.pred].SortedRows(), want) {
				t.Fatalf("%s W=%d: %s differs from the baselines/native result", c.program, workers, c.pred)
			}
			if s.Copy.CachedBuildHits == 0 {
				t.Fatalf("%s W=%d: no join probed a cached build over %d iterations", c.program, workers, s.Iterations)
			}
			if bound := s.DeltaTuples + edbRows; s.Copy.JoinProbeRows > bound {
				t.Fatalf("%s W=%d: joins probed %d rows, want at most Σ|∆| + the EDB rows = %d + %d",
					c.program, workers, s.Copy.JoinProbeRows, s.DeltaTuples, edbRows)
			}
			t.Logf("%s W=%d: %d iterations, %d rows probed, Σ|∆| %d, EDB rows %d, %d cached-build hits",
				c.program, workers, s.Iterations, s.Copy.JoinProbeRows, s.DeltaTuples, edbRows, s.Copy.CachedBuildHits)
		}
	}
}

// The other side of the selection: a fixpoint that converges within
// optimizer.ResidentAmortise iterations re-reads R too rarely to repay a
// set-difference index, so it keeps none — no index bytes on the pool peak —
// and runs the per-iteration tables exactly as before. Its joins over the
// EDBs, which the fixpoint never writes, are another matter: those build once
// and every later iteration probes the kept table.
func TestShortFixpointsKeepNothingResident(t *testing.T) {
	for _, name := range []string{"tc", "cc", "cspa"} {
		prog, err := programs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Workers = 2
		res, err := core.New(opts).Run(prog, fuseTestEDBs(name))
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.Iterations >= 32 {
			t.Fatalf("%s: %d iterations; the instance is not a short fixpoint", name, s.Iterations)
		}
		if s.Copy.ResidentIndexReseeds+s.Copy.ResidentIndexHits != 0 || s.Mem.IndexBytes != 0 {
			t.Fatalf("%s (%d iterations): reseeds=%d hits=%d indexBytes=%d, want no index kept",
				name, s.Iterations, s.Copy.ResidentIndexReseeds, s.Copy.ResidentIndexHits, s.Mem.IndexBytes)
		}
		if s.Copy.CachedBuildHits == 0 {
			t.Fatalf("%s (%d iterations): no join probed a cached build over an EDB", name, s.Iterations)
		}
	}
}

// Forcing the one-phase algorithm seeds a transient table from all of R every
// iteration. With one arena per worker that costs a slab chunk or two, not
// one per block of a fragmented R: the forced mode's pool peak stays within
// 2× the default's on a 500-step chain (it was 60× with per-block arenas).
func TestForcedOPSDPeakOnChain(t *testing.T) {
	prog := programs.MustParse(programs.CSDA)
	peak := func(dsd core.DSDMode) int64 {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.DSD = dsd
		res, err := core.New(opts).Run(prog, csdaChains(4, 500))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Mem.PeakLive
	}
	def, forced := peak(core.DSDDynamic), peak(core.DSDAlwaysOPSD)
	if forced > 2*def {
		t.Fatalf("forced OPSD peaked at %d pool bytes, default at %d", forced, def)
	}
	t.Logf("peak pool bytes: default %d, forced OPSD %d", def, forced)
}

// chaosLongCSDA runs a CSDA fixpoint long enough that the resident index on
// null and the cached build on arc are both live, and reports through seen
// whether a step served by both was observed before the run ended.
func chaosLongCSDA(t *testing.T, opts core.Options, ctx context.Context, hook func(core.IterInfo)) (res *core.Result, err error, seen bool) {
	t.Helper()
	opts.Workers = 4
	opts.IterHook = func(ii core.IterInfo) {
		if ii.Copy.ResidentIndexHits > 0 && ii.Copy.CachedBuildHits > 0 {
			seen = true
		}
		if hook != nil {
			hook(ii)
		}
	}
	res, err = core.New(opts).RunContext(ctx, programs.MustParse(programs.CSDA), csdaChains(4, 300))
	return res, err, seen
}

// Aborting a fixpoint while an index and a cached build are live — by
// cancellation, by a worker panic — must tear down to zero pool bytes like
// any other abort: the structures are released with their relations.
func TestAbortWithResidentStructuresLeaksNothing(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		res, err, seen := chaosLongCSDA(t, core.DefaultOptions(), ctx, func(ii core.IterInfo) {
			if ii.Iteration == 150 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v is not context.Canceled", err)
		}
		if !seen {
			t.Fatal("cancelled before the resident structures were live; the case tests nothing")
		}
		if res == nil || res.Stats.Mem.LiveTotal != 0 {
			t.Fatalf("cancelled run leaked pool bytes: %+v", res)
		}
	})
	t.Run("worker-panic", func(t *testing.T) {
		in := faultinject.New(7)
		// Far enough into the task stream that both structures exist; the
		// run makes several tasks per iteration.
		in.FailNth(faultinject.WorkerPanic, 1200)
		opts := core.DefaultOptions()
		opts.FaultInject = in
		res, err, seen := chaosLongCSDA(t, opts, context.Background(), nil)
		if err == nil || !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("error %v does not carry the injected panic", err)
		}
		if !seen {
			t.Fatal("panicked before the resident structures were live; the case tests nothing")
		}
		if res == nil || res.Stats.Mem.LiveTotal != 0 {
			t.Fatalf("panicked run leaked pool bytes: %+v", res)
		}
	})
}

// A resident database keeps the index across ApplyDelta calls: an insertion
// runs its seeded fixpoint without re-reading R at all; a deletion rewrites R
// behind the index's back, which drops it, and the next pass re-seeds once.
// Close releases it with everything else.
func TestResidentIndexAcrossApplyDelta(t *testing.T) {
	const n = 150
	arcs := make([][]int32, 0, n)
	arc := storage.NewRelation("arc", storage.NumberedColumns(2))
	for i := 0; i < n-1; i++ {
		arcs = append(arcs, []int32{int32(i), int32(i + 1)})
		arc.Append(arcs[i])
	}
	var hits, reseeds, scanned int64
	opts := core.DefaultOptions()
	opts.Workers = 2
	opts.IterHook = func(ii core.IterInfo) {
		hits += ii.Copy.ResidentIndexHits
		reseeds += ii.Copy.ResidentIndexReseeds
		scanned += ii.Copy.SetDiffRowsScanned
	}
	prog := programs.MustParse(programs.TC)
	d, err := core.New(opts).RunIncremental(context.Background(), prog, map[string]*storage.Relation{"arc": arc})
	if err != nil {
		t.Fatal(err)
	}
	if reseeds != 1 || hits == 0 {
		t.Fatalf("initial load of a %d-step chain: %d reseeds, %d hits; want the index seeded once and used", n, reseeds, hits)
	}
	check := func(when string) {
		t.Helper()
		ref, err := core.New(core.DefaultOptions()).Run(prog, relsFrom(map[string][][]int32{"arc": arcs}, map[string]int{"arc": 2}))
		if err != nil {
			t.Fatal(err)
		}
		tc, _ := d.Relation("tc")
		if !reflect.DeepEqual(tc.SortedRows(), ref.Relations["tc"].SortedRows()) {
			t.Fatalf("%s: resident tc diverges from a from-scratch run", when)
		}
	}

	hits, reseeds, scanned = 0, 0, 0
	arcs = append(arcs, []int32{n - 1, n})
	if _, err := d.ApplyDelta("arc", arcs[len(arcs)-1:], nil); err != nil {
		t.Fatal(err)
	}
	if hits == 0 || reseeds != 0 || scanned != 0 {
		t.Fatalf("insert: %d hits, %d reseeds, %d rows of R re-read; want the index to serve every pass", hits, reseeds, scanned)
	}
	check("after insert")

	// Delete an arc near the end: the stratum is recomputed into a fresh tc,
	// which drops the index the next insert must re-seed.
	hits, reseeds, scanned = 0, 0, 0
	gone := arcs[n-3]
	arcs = append(arcs[:n-3:n-3], arcs[n-2:]...)
	if _, err := d.ApplyDelta("arc", nil, [][]int32{gone}); err != nil {
		t.Fatal(err)
	}
	check("after delete")
	arcs = append(arcs, []int32{n, n + 1})
	if _, err := d.ApplyDelta("arc", arcs[len(arcs)-1:], nil); err != nil {
		t.Fatal(err)
	}
	if reseeds != 1 {
		t.Fatalf("insert after a delete: %d reseeds, want exactly the one that replaces the dropped index", reseeds)
	}
	check("after re-seed")
	if idx := d.MemSnapshot().IndexBytes; idx == 0 {
		t.Fatal("no index bytes accounted while the resident index is live")
	}

	snap, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.LiveTotal != 0 {
		t.Fatalf("close leaked %d pool bytes with a resident index live", snap.LiveTotal)
	}
}

// A lower-stratum IDB is both things at once: invariant while the stratum
// above it iterates, so it gets a cached build, and a full relation, so under
// a budget it is spillable. The reclaimer and the probes through the cached
// table must agree on which of its partitions are in use; whatever the
// budget, the result is the unbudgeted one.
func TestCachedBuildOnSpillableLowerStratum(t *testing.T) {
	prog := programs.MustParse(`
hop(x,y) :- arc(x,y).
w(s,y) :- seed(s,y).
w(s,y) :- w(s,x), hop(x,y).
`)
	edbs := func() map[string]*storage.Relation {
		const chains, length, sources = 20, 120, 15
		arc := storage.NewRelation("arc", storage.NumberedColumns(2))
		seed := storage.NewRelation("seed", storage.NumberedColumns(2))
		var a, s []int32
		for c := 0; c < chains; c++ {
			for i := 0; i < length-1; i++ {
				a = append(a, int32(c*length+i), int32(c*length+i+1))
			}
			for k := 0; k < sources; k++ {
				s = append(s, int32(1_000_000+c*sources+k), int32(c*length))
			}
		}
		arc.AppendRows(a)
		seed.AppendRows(s)
		return map[string]*storage.Relation{"arc": arc, "seed": seed}
	}
	run := func(budget int64) *core.Result {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.Partitions = 16
		opts.MemBudgetBytes = budget
		if budget > 0 {
			opts.SpillDir = t.TempDir()
		}
		res, err := core.New(opts).Run(prog, edbs())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0)
	want := ref.Relations["w"].SortedRows()
	if ref.Stats.Copy.CachedBuildHits == 0 {
		t.Fatal("unbudgeted run kept no build table on hop")
	}
	const tight = 20
	for _, pct := range []int64{90, tight} {
		got := run(ref.Stats.Mem.PeakLive * pct / 100)
		if !reflect.DeepEqual(got.Relations["w"].SortedRows(), want) {
			t.Errorf("budget at %d%% of the unbudgeted peak: w differs from the unbudgeted result", pct)
		}
		if s := got.Stats; pct == tight && (s.Copy.CachedBuildHits == 0 || s.Mem.Spills == 0) {
			t.Errorf("budget at %d%%: %d cached-build hits, %d spills; the run no longer mixes the two", pct, s.Copy.CachedBuildHits, s.Mem.Spills)
		}
	}
}

// A cached build table holds its own copy of the build rows, so the memory
// reclaimer may spill the build relation's partitions while probes run
// through the table. hop is a lower stratum: invariant while tc iterates, so
// tc's join keeps a build table on it from its first iteration, and, never
// read once that table exists, the coldest relation under a budget — the
// first one spilled. At every budget tc is the unbudgeted result and the
// baselines/native closure, the tight budgets run steps that both probe a
// cached build and spill, and at the tightest the probes keep hitting the
// table after the first spill: reclaiming pool memory never drops it.
func TestCachedBuildProbesSurviveSpillOfTheirRelation(t *testing.T) {
	prog := programs.MustParse(`
hop(x,y) :- arc(x,y).
tc(x,y) :- hop(x,y).
tc(x,y) :- tc(x,z), hop(z,y).
`)
	arc := func() *storage.Relation {
		const chains, length = 12, 100
		r := storage.NewRelation("arc", storage.NumberedColumns(2))
		var a []int32
		for c := 0; c < chains; c++ {
			for i := 0; i < length-1; i++ {
				a = append(a, int32(c*length+i), int32(c*length+i+1))
			}
		}
		r.AppendRows(a)
		return r
	}
	// run returns the result, the steps that were served by a cached build
	// and spilled, and the cached-build hits of the steps after the first
	// one that spilled.
	run := func(budget int64) (*core.Result, int, int64) {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.Partitions = 16
		opts.MemBudgetBytes = budget
		if budget > 0 {
			opts.SpillDir = t.TempDir()
		}
		var spills, hitsAfter int64
		both := 0
		opts.IterHook = func(ii core.IterInfo) {
			if spills > 0 {
				hitsAfter += ii.Copy.CachedBuildHits
			}
			if ii.Copy.CachedBuildHits > 0 && ii.Mem.Spills > spills {
				both++
			}
			spills = ii.Mem.Spills
		}
		res, err := core.New(opts).Run(prog, map[string]*storage.Relation{"arc": arc()})
		if err != nil {
			t.Fatal(err)
		}
		return res, both, hitsAfter
	}
	ref, _, _ := run(0)
	want := ref.Relations["tc"].SortedRows()
	if !reflect.DeepEqual(want, native.TC(arc(), 1).SortedRows()) {
		t.Fatal("unbudgeted tc differs from the baselines/native closure")
	}
	if ref.Stats.Copy.CachedBuildHits == 0 {
		t.Fatal("unbudgeted run kept no build table on hop")
	}
	const tightest = 20
	both := 0
	for _, pct := range []int64{60, 40, tightest} {
		got, n, after := run(ref.Stats.Mem.PeakLive * pct / 100)
		if !reflect.DeepEqual(got.Relations["tc"].SortedRows(), want) {
			t.Errorf("budget at %d%% of the unbudgeted peak: tc differs from the unbudgeted result", pct)
		}
		t.Logf("budget at %d%%: %d cached-build hits (%d unbudgeted), %d after the first spill", pct, got.Stats.Copy.CachedBuildHits, ref.Stats.Copy.CachedBuildHits, after)
		if got.Stats.Copy.CachedBuildHits == 0 {
			t.Errorf("budget at %d%%: no cached-build hits", pct)
		}
		// The table holds no pool bytes, so reclaiming memory never drops
		// it: the probes keep hitting it after the relation has spilled.
		if pct == tightest && after == 0 {
			t.Errorf("budget at %d%%: the cached-build hits stopped at the first spill", pct)
		}
		both += n
	}
	if both == 0 {
		t.Error("no step both probed a cached build and spilled: the run no longer exercises the case")
	}
}

func hasCachedBuild(r *storage.Relation, keys []int) bool {
	_, ok := r.Attachment(exec.BuildCacheKey(keys))
	return ok
}

// Eviction order under a memory budget, one stage per over-budget epoch:
// pool-backed attachments (the resident index) go before any partition
// spills, and a cached join build, on the Go heap, is not evicted at all.
func TestAttachmentsEvictBeforeSecondaryBeforeSpill(t *testing.T) {
	rows := make([]int32, 0, 2*60000)
	for i := int32(0); i < 60000; i++ {
		rows = append(rows, i, i*7)
	}
	joinSpec := exec.JoinSpec{
		LeftKeys: []int{0}, RightKeys: []int{0}, CacheBuild: true,
		Projs: []expr.Expr{expr.Col{Index: 0}}, OutName: "j",
	}
	type fixture struct {
		db   *quickstep.Database
		r, e *storage.Relation
	}
	build := func(budget int64) fixture {
		db, err := quickstep.Open(quickstep.Options{
			Workers: 1, DisableIO: true, MemBudgetBytes: budget, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		r := storage.NewRelation("r", storage.NumberedColumns(2))
		r.SetLifecycle(db.Alloc(), storage.CatIDB)
		r.AppendRows(rows)
		if err := db.Install(r); err != nil {
			t.Fatal(err)
		}
		db.MarkSpillable("r")
		part := storage.Partitioning{KeyCols: []int{1}, Parts: 16}
		exec.PartitionRelationCarried(db.Pool(), r, part.KeyCols, part.Parts)
		r.ReclaimRetired()
		// The resident index, seeded by an empty pass and handed to r.
		empty := storage.NewRelation("tmp", storage.NumberedColumns(2))
		delta, idx, v := exec.DeltaStepResident(db.Pool(), empty, r, nil, part, 0, "d")
		if !r.Attach("setdiff", idx, v) {
			t.Fatal("index refused")
		}
		delta.Release()
		// A cached build on a base relation.
		e := storage.NewRelation("e", storage.NumberedColumns(2))
		e.AppendRows(rows[:2000])
		if err := db.Install(e); err != nil {
			t.Fatal(err)
		}
		probe := storage.NewRelation("p", storage.NumberedColumns(2))
		probe.AppendRows(rows[:20])
		exec.HashJoin(db.Pool(), probe, e, joinSpec).Release()
		if !hasCachedBuild(e, []int{0}) {
			t.Fatal("join left no cached build")
		}
		return fixture{db, r, e}
	}

	// Calibrate the two footprints.
	cal := build(0)
	withAll := cal.db.MemSnapshot().LiveTotal
	cal.r.DropAttachments()
	withoutAtt := cal.db.MemSnapshot().LiveTotal
	cal.db.ReleaseAll()
	cal.db.Close()
	if withAll <= withoutAtt {
		t.Fatalf("calibration: %d with everything ≤ %d without attachments", withAll, withoutAtt)
	}

	// Room for everything, barely: the fixture builds without pressure and
	// each stage below is pushed over the budget by one allocation.
	const slack = 32 << 10
	budget := withAll + slack
	f := build(budget)
	defer f.db.Close()
	want := f.r.SortedRows()
	push := func(name string, bytes int64) *storage.Relation {
		t.Helper()
		// A flat scan marks every partition of r hot for this epoch, so the
		// allocation that crosses the budget cannot spill its way out.
		f.r.Blocks()
		x := storage.NewRelation(name, storage.NumberedColumns(2))
		x.SetLifecycle(f.db.Alloc(), storage.CatIntermediate)
		x.AppendRows(make([]int32, bytes/8*2))
		return x
	}

	// Stage 1, over by less than the index holds: the allocation that crosses
	// the budget takes the index — an attached index is nobody's, so it is
	// freed on the spot — and that suffices. Nothing else goes, not even the
	// cached build, which holds no pool bytes.
	x1 := push("x1", 2*slack)
	f.db.EndIteration()
	snap := f.db.MemSnapshot()
	if snap.AttachmentDrops != 1 || snap.IndexBytes != 0 {
		t.Fatalf("stage 1: the index survived: drops=%d indexBytes=%d", snap.AttachmentDrops, snap.IndexBytes)
	}
	if _, ok := f.r.Attachment("setdiff"); ok {
		t.Fatal("stage 1: dropped index still served")
	}
	if snap.Spills != 0 {
		t.Fatalf("stage 1 went past the attachments: spills=%d", snap.Spills)
	}
	if snap.LiveTotal > budget || !hasCachedBuild(f.e, []int{0}) {
		t.Fatalf("stage 1: live %d against budget %d, cached build kept=%v", snap.LiveTotal, budget, hasCachedBuild(f.e, []int{0}))
	}

	// Stage 2: nothing pool-resident is redundant any more, so the epoch
	// spills partitions. The cached build stays: it holds no pool bytes, so
	// dropping it would give the budget nothing and only force a rebuild.
	x2 := push("x2", budget-snap.LiveTotal+slack)
	f.db.EndIteration()
	snap = f.db.MemSnapshot()
	if !hasCachedBuild(f.e, []int{0}) {
		t.Fatal("stage 2: the epoch dropped a cached build, which frees no pool byte")
	}
	if snap.AttachmentDrops != 1 {
		t.Fatalf("stage 2: %d attachment drops, want 1 (stage 1's index)", snap.AttachmentDrops)
	}
	if snap.Spills == 0 {
		t.Fatal("stage 2: over budget with nothing redundant left, but nothing spilled")
	}
	hits := f.db.CopySnapshot().CachedBuildHits
	probe := storage.NewRelation("p", storage.NumberedColumns(2))
	probe.AppendRows(rows[:20])
	out := exec.HashJoin(f.db.Pool(), probe, f.e, joinSpec)
	if f.db.CopySnapshot().CachedBuildHits != hits+1 || out.NumTuples() != 10 {
		t.Fatalf("stage 2: the kept build served %d joins and %d rows, want 1 and 10",
			f.db.CopySnapshot().CachedBuildHits-hits, out.NumTuples())
	}
	out.Release()
	if !reflect.DeepEqual(f.r.SortedRows(), want) {
		t.Fatal("relation contents diverged across eviction")
	}
	x1.Release()
	x2.Release()
	f.db.ReleaseAll()
	if live := f.db.MemSnapshot().LiveTotal; live != 0 {
		t.Fatalf("%d pool bytes live after releasing everything", live)
	}
}
