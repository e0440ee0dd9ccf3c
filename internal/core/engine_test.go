package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"recstep/internal/programs"
	"recstep/internal/quickstep"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/stats"
	"recstep/internal/quickstep/storage"
)

// --- helpers -------------------------------------------------------------

type pair struct{ x, y int32 }

func arcRel(edges []pair) *storage.Relation {
	r := storage.NewRelation("arc", []string{"c0", "c1"})
	for _, e := range edges {
		r.Append([]int32{e.x, e.y})
	}
	return r
}

func relPairs(r *storage.Relation) []pair {
	var out []pair
	r.ForEach(func(t []int32) { out = append(out, pair{t[0], t[1]}) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].x != out[j].x {
			return out[i].x < out[j].x
		}
		return out[i].y < out[j].y
	})
	return out
}

// refTC computes transitive closure by brute-force fixpoint.
func refTC(edges []pair) []pair {
	set := map[pair]bool{}
	for _, e := range edges {
		set[pair{e.x, e.y}] = true
	}
	for {
		added := false
		for p := range set {
			for _, e := range edges {
				if e.x == p.y && !set[pair{p.x, e.y}] {
					set[pair{p.x, e.y}] = true
					added = true
				}
			}
		}
		if !added {
			break
		}
	}
	out := make([]pair, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].x != out[j].x {
			return out[i].x < out[j].x
		}
		return out[i].y < out[j].y
	})
	return out
}

func randomEdges(n, m int, seed int64) []pair {
	rng := rand.New(rand.NewSource(seed))
	seen := map[pair]bool{}
	var out []pair
	for len(out) < m {
		p := pair{int32(rng.Intn(n)), int32(rng.Intn(n))}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func runProg(t *testing.T, opts Options, src string, edbs map[string]*storage.Relation) *Result {
	t.Helper()
	res, err := New(opts).Run(programs.MustParse(src), edbs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- end-to-end correctness ----------------------------------------------

func TestTCSmallGraph(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}, {3, 4}}
	res := runProg(t, DefaultOptions(), programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	want := refTC(edges)
	if got := relPairs(res.Relations["tc"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("tc = %v, want %v", got, want)
	}
}

func TestTCWithCycle(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}, {3, 1}}
	res := runProg(t, DefaultOptions(), programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	if got := len(relPairs(res.Relations["tc"])); got != 9 {
		t.Fatalf("cyclic tc size = %d, want 9", got)
	}
}

func TestTCRandomGraphMatchesReference(t *testing.T) {
	edges := randomEdges(30, 60, 42)
	res := runProg(t, DefaultOptions(), programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	want := refTC(edges)
	if got := relPairs(res.Relations["tc"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("tc mismatch: got %d tuples, want %d", len(got), len(want))
	}
}

func TestTCAllConfigurationsAgree(t *testing.T) {
	edges := randomEdges(25, 50, 7)
	arc := arcRel(edges)
	want := refTC(edges)
	configs := map[string]Options{}
	base := DefaultOptions()
	base.Workers = 4
	configs["default"] = base
	o := base
	o.UIE = false
	configs["no-uie"] = o
	o = base
	o.OOF = stats.ModeNone
	configs["oof-na"] = o
	o = base
	o.OOF = stats.ModeFull
	configs["oof-fa"] = o
	o = base
	o.DSD = DSDAlwaysOPSD
	configs["opsd"] = o
	o = base
	o.DSD = DSDAlwaysTPSD
	configs["tpsd"] = o
	o = base
	o.Dedup = exec.DedupLockMap
	configs["lockmap"] = o
	o = base
	o.Dedup = exec.DedupSort
	configs["sort"] = o
	o = base
	o.Workers = 1
	configs["serial"] = o
	for name, cfg := range configs {
		res := runProg(t, cfg, programs.TC, map[string]*storage.Relation{"arc": arc})
		if got := relPairs(res.Relations["tc"]); !reflect.DeepEqual(got, want) {
			t.Fatalf("config %q: tc mismatch (%d vs %d tuples)", name, len(got), len(want))
		}
	}
}

func TestSGMatchesReference(t *testing.T) {
	edges := []pair{{1, 2}, {1, 3}, {2, 4}, {3, 5}}
	res := runProg(t, DefaultOptions(), programs.SG, map[string]*storage.Relation{"arc": arcRel(edges)})
	// Reference: sg(x,y) if x≠y share a parent, or parents in sg.
	set := map[pair]bool{}
	for {
		added := false
		add := func(p pair) {
			if p.x != p.y && !set[p] {
				set[p] = true
				added = true
			}
		}
		for _, a := range edges {
			for _, b := range edges {
				if a.x == b.x {
					add(pair{a.y, b.y})
				}
			}
		}
		for p := range set {
			for _, a := range edges {
				for _, b := range edges {
					if a.x == p.x && b.x == p.y {
						add(pair{a.y, b.y})
					}
				}
			}
		}
		if !added {
			break
		}
	}
	var want []pair
	for p := range set {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].x != want[j].x {
			return want[i].x < want[j].x
		}
		return want[i].y < want[j].y
	})
	if got := relPairs(res.Relations["sg"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("sg = %v, want %v", got, want)
	}
}

func TestReach(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}, {4, 5}}
	id := storage.NewRelation("id", []string{"c0"})
	id.Append([]int32{1})
	res := runProg(t, DefaultOptions(), programs.Reach,
		map[string]*storage.Relation{"arc": arcRel(edges), "id": id})
	var got []int32
	res.Relations["reach"].ForEach(func(tu []int32) { got = append(got, tu[0]) })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []int32{1, 2, 3}) {
		t.Fatalf("reach = %v, want [1 2 3]", got)
	}
}

func TestCCConnectedComponents(t *testing.T) {
	// Two components: {1,2,3} and {4,5}; arcs must connect both directions
	// for min-label propagation to reach every member.
	edges := []pair{{1, 2}, {2, 1}, {2, 3}, {3, 2}, {4, 5}, {5, 4}}
	res := runProg(t, DefaultOptions(), programs.CC, map[string]*storage.Relation{"arc": arcRel(edges)})
	labels := map[int32]int32{}
	res.Relations["cc2"].ForEach(func(tu []int32) { labels[tu[0]] = tu[1] })
	want := map[int32]int32{1: 1, 2: 1, 3: 1, 4: 4, 5: 4}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("cc2 = %v, want %v", labels, want)
	}
	// cc = distinct component representatives.
	var reps []int32
	res.Relations["cc"].ForEach(func(tu []int32) { reps = append(reps, tu[0]) })
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	if !reflect.DeepEqual(reps, []int32{1, 4}) {
		t.Fatalf("cc = %v, want [1 4]", reps)
	}
}

func TestSSSPShortestPaths(t *testing.T) {
	arc := storage.NewRelation("arc", []string{"c0", "c1", "c2"})
	for _, e := range [][3]int32{{1, 2, 10}, {1, 3, 2}, {3, 2, 3}, {2, 4, 1}, {3, 4, 100}} {
		arc.Append(e[:])
	}
	id := storage.NewRelation("id", []string{"c0"})
	id.Append([]int32{1})
	res := runProg(t, DefaultOptions(), programs.SSSP,
		map[string]*storage.Relation{"arc": arc, "id": id})
	dist := map[int32]int32{}
	res.Relations["sssp"].ForEach(func(tu []int32) { dist[tu[0]] = tu[1] })
	want := map[int32]int32{1: 0, 2: 5, 3: 2, 4: 6}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("sssp = %v, want %v", dist, want)
	}
}

func TestNTCNegation(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}}
	res := runProg(t, DefaultOptions(), programs.NTC, map[string]*storage.Relation{"arc": arcRel(edges)})
	tc := map[pair]bool{}
	for _, p := range refTC(edges) {
		tc[p] = true
	}
	nodes := []int32{1, 2, 3}
	var want []pair
	for _, x := range nodes {
		for _, y := range nodes {
			if !tc[pair{x, y}] {
				want = append(want, pair{x, y})
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].x != want[j].x {
			return want[i].x < want[j].x
		}
		return want[i].y < want[j].y
	})
	if got := relPairs(res.Relations["ntc"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("ntc = %v, want %v", got, want)
	}
}

func TestGTCAggregation(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}}
	res := runProg(t, DefaultOptions(), programs.GTC, map[string]*storage.Relation{"arc": arcRel(edges)})
	counts := map[int32]int32{}
	res.Relations["gtc"].ForEach(func(tu []int32) { counts[tu[0]] = tu[1] })
	want := map[int32]int32{1: 2, 2: 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("gtc = %v, want %v", counts, want)
	}
}

func TestAndersenPointsTo(t *testing.T) {
	rel := func(name string, rows ...[2]int32) *storage.Relation {
		r := storage.NewRelation(name, []string{"c0", "c1"})
		for _, row := range rows {
			r.Append(row[:])
		}
		return r
	}
	// p = &a; q = p; *q = &b (store); r = *p (load).
	// Variables: p=1, q=2, r=3, a=10, b=11.
	edbs := map[string]*storage.Relation{
		"addressOf": rel("addressOf", [2]int32{1, 10}, [2]int32{4, 11}), // p=&a, s=&b (s=4)
		"assign":    rel("assign", [2]int32{2, 1}),                      // q = p
		"store":     rel("store", [2]int32{2, 4}),                       // *q = s
		"load":      rel("load", [2]int32{3, 1}),                        // r = *p
	}
	res := runProg(t, DefaultOptions(), programs.Andersen, edbs)
	got := map[pair]bool{}
	res.Relations["pointsTo"].ForEach(func(tu []int32) { got[pair{tu[0], tu[1]}] = true })
	// Expected: pointsTo(p,a), pointsTo(s,b), pointsTo(q,a) [assign],
	// pointsTo(a,b) [store: q→a, s→b], pointsTo(r,b) [load: p→a, a→b].
	want := map[pair]bool{
		{1, 10}: true, {4, 11}: true, {2, 10}: true, {10, 11}: true, {3, 11}: true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pointsTo = %v, want %v", got, want)
	}
}

func TestCSPAOnTinyProgram(t *testing.T) {
	rel := func(name string, rows ...[2]int32) *storage.Relation {
		r := storage.NewRelation(name, []string{"c0", "c1"})
		for _, row := range rows {
			r.Append(row[:])
		}
		return r
	}
	edbs := map[string]*storage.Relation{
		"assign":      rel("assign", [2]int32{1, 2}, [2]int32{2, 3}),
		"dereference": rel("dereference", [2]int32{1, 4}, [2]int32{3, 5}),
	}
	res := runProg(t, DefaultOptions(), programs.CSPA, edbs)
	vf := map[pair]bool{}
	res.Relations["valueFlow"].ForEach(func(tu []int32) { vf[pair{tu[0], tu[1]}] = true })
	// Base: assign gives (1,2),(2,3) reversed? Rule: valueFlow(y,x) :- assign(y,x)
	// keeps orientation (y,x) as written, plus reflexive pairs for every
	// assign endpoint, plus transitive closure.
	mustHave := []pair{{1, 2}, {2, 3}, {1, 3}, {1, 1}, {2, 2}, {3, 3}}
	for _, p := range mustHave {
		if !vf[p] {
			t.Fatalf("valueFlow missing %v; have %v", p, vf)
		}
	}
	// memoryAlias must include the reflexive entries.
	ma := map[pair]bool{}
	res.Relations["memoryAlias"].ForEach(func(tu []int32) { ma[pair{tu[0], tu[1]}] = true })
	for _, p := range []pair{{1, 1}, {2, 2}, {3, 3}} {
		if !ma[p] {
			t.Fatalf("memoryAlias missing %v; have %v", p, ma)
		}
	}
}

func TestCSDALinearChain(t *testing.T) {
	// nullEdge(0,1), arc chain 1→2→…→50: null(0,k) for all k in 1..50,
	// via ~50 iterations.
	nullEdge := storage.NewRelation("nullEdge", []string{"c0", "c1"})
	nullEdge.Append([]int32{0, 1})
	arc := storage.NewRelation("arc", []string{"c0", "c1"})
	for i := int32(1); i < 50; i++ {
		arc.Append([]int32{i, i + 1})
	}
	var iters int
	opts := DefaultOptions()
	opts.IterHook = func(ii IterInfo) {
		if ii.Iteration > iters {
			iters = ii.Iteration
		}
	}
	res := runProg(t, opts, programs.CSDA,
		map[string]*storage.Relation{"nullEdge": nullEdge, "arc": arc})
	if got := res.Relations["null"].NumTuples(); got != 50 {
		t.Fatalf("null tuples = %d, want 50", got)
	}
	if iters < 50 {
		t.Fatalf("iterations = %d, want ≥ 50 (one hop per iteration)", iters)
	}
}

// The fixpoint binds each rule unit once per stratum and then runs bound
// plans: a CSDA chain ten times longer runs ten times the iterations and
// statements but binds exactly as many — null's Init and Rec units.
func TestFixpointBindsEachUnitOnce(t *testing.T) {
	run := func(n int32) (prepared int64, st Stats) {
		t.Helper()
		nullEdge := storage.NewRelation("nullEdge", []string{"c0", "c1"})
		nullEdge.Append([]int32{0, 1})
		arc := storage.NewRelation("arc", []string{"c0", "c1"})
		for i := int32(1); i < n; i++ {
			arc.Append([]int32{i, i + 1})
		}
		var db *quickstep.Database
		opts := DefaultOptions()
		opts.Workers = 2
		opts.OnDB = func(d *quickstep.Database) { db = d }
		res := runProg(t, opts, programs.CSDA,
			map[string]*storage.Relation{"nullEdge": nullEdge, "arc": arc})
		if got := res.Relations["null"].NumTuples(); got != int(n) {
			t.Fatalf("chain %d: null tuples = %d, want %d", n, got, n)
		}
		return db.StatementsPrepared(), res.Stats
	}
	shortPrep, short := run(50)
	longPrep, long := run(500)
	if long.Iterations < 500 || short.Iterations < 50 {
		t.Fatalf("iterations = %d and %d, want one hop per iteration", short.Iterations, long.Iterations)
	}
	for _, st := range []Stats{short, long} {
		// CREATE tmp, INSERT … SELECT, DROP tmp per iteration.
		if st.Queries != 3*int64(st.Iterations) {
			t.Fatalf("%d queries over %d iterations, want 3 per iteration", st.Queries, st.Iterations)
		}
	}
	if shortPrep != longPrep || shortPrep != 2 {
		t.Fatalf("prepared %d statements for a 50-arc chain and %d for a 500-arc chain, want 2 each",
			shortPrep, longPrep)
	}
}

// --- engine behaviour ----------------------------------------------------

func TestInlineFactsOnly(t *testing.T) {
	src := `
		arc(1, 2).
		arc(2, 3).
		tc(x, y) :- arc(x, y).
		tc(x, y) :- tc(x, z), arc(z, y).
	`
	res := runProg(t, DefaultOptions(), src, nil)
	if got := res.Relations["tc"].NumTuples(); got != 3 {
		t.Fatalf("tc = %d tuples, want 3", got)
	}
}

func TestStatsCounters(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}, {3, 4}}
	res := runProg(t, DefaultOptions(), programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	if res.Stats.Iterations < 3 {
		t.Fatalf("iterations = %d, want ≥ 3", res.Stats.Iterations)
	}
	if res.Stats.Queries == 0 || res.Stats.TmpTuples == 0 || res.Stats.DeltaTuples == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.Duration <= 0 {
		t.Fatal("duration not measured")
	}
}

func TestNonUIEIssuesMoreQueries(t *testing.T) {
	rel2 := func(name string, rows ...[2]int32) *storage.Relation {
		r := storage.NewRelation(name, []string{"c0", "c1"})
		for _, row := range rows {
			r.Append(row[:])
		}
		return r
	}
	edbs := func() map[string]*storage.Relation {
		return map[string]*storage.Relation{
			"addressOf": rel2("addressOf", [2]int32{1, 10}),
			"assign":    rel2("assign", [2]int32{2, 1}, [2]int32{3, 2}),
			"store":     rel2("store", [2]int32{2, 4}),
			"load":      rel2("load", [2]int32{3, 1}),
		}
	}
	withUIE := runProg(t, DefaultOptions(), programs.Andersen, edbs())
	noUIE := DefaultOptions()
	noUIE.UIE = false
	without := runProg(t, noUIE, programs.Andersen, edbs())
	if without.Stats.Queries <= withUIE.Stats.Queries {
		t.Fatalf("non-UIE should issue more queries: %d vs %d", without.Stats.Queries, withUIE.Stats.Queries)
	}
	// Same answer regardless.
	if got, want := relPairs(without.Relations["pointsTo"]), relPairs(withUIE.Relations["pointsTo"]); !reflect.DeepEqual(got, want) {
		t.Fatal("UIE changed the result")
	}
}

func TestDSDSwitchesAlgorithms(t *testing.T) {
	// On a long chain, R grows while Rδ stays a single tuple, so β grows
	// past the TPSD threshold and dynamic DSD must eventually pick TPSD.
	var edges []pair
	for i := int32(0); i < 60; i++ {
		edges = append(edges, pair{i, i + 1})
	}
	// reach-style chain via TC would square; use CSDA-style single chain.
	nullEdge := storage.NewRelation("nullEdge", []string{"c0", "c1"})
	nullEdge.Append([]int32{0, 1})
	arc := arcRel(edges[1:])
	opts := DefaultOptions()
	res, err := New(opts).Run(programs.MustParse(programs.CSDA),
		map[string]*storage.Relation{"nullEdge": nullEdge, "arc": arc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DiffTPSD == 0 {
		t.Fatalf("dynamic DSD never chose TPSD: %+v", res.Stats)
	}
	if res.Stats.DiffOPSD == 0 {
		t.Fatalf("dynamic DSD never chose OPSD: %+v", res.Stats)
	}
}

func TestIterHookObservesDiffAlgo(t *testing.T) {
	var infos []IterInfo
	opts := DefaultOptions()
	opts.IterHook = func(ii IterInfo) { infos = append(infos, ii) }
	runProg(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel([]pair{{1, 2}, {2, 3}})})
	if len(infos) == 0 {
		t.Fatal("hook never fired")
	}
	if infos[0].Pred != "tc" || infos[0].Iteration != 1 {
		t.Fatalf("first hook = %+v", infos[0])
	}
}

func TestEDBArityMismatchRejected(t *testing.T) {
	bad := storage.NewRelation("arc", []string{"c0"})
	bad.Append([]int32{1})
	_, err := New(DefaultOptions()).Run(programs.MustParse(programs.TC),
		map[string]*storage.Relation{"arc": bad})
	if err == nil {
		t.Fatal("expected arity error")
	}
}

func TestUnknownEDBRejected(t *testing.T) {
	_, err := New(DefaultOptions()).Run(programs.MustParse(programs.TC),
		map[string]*storage.Relation{"nonsense": arcRel(nil)})
	if err == nil {
		t.Fatal("expected unknown-EDB error")
	}
}

func TestReservedSuffixRejected(t *testing.T) {
	_, err := New(DefaultOptions()).Run(programs.MustParse("p_mdelta(x) :- e(x)."), nil)
	if err == nil {
		t.Fatal("expected reserved-suffix error")
	}
}

func TestMaxIterationsGuard(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxIterations = 2
	var edges []pair
	for i := int32(0); i < 20; i++ {
		edges = append(edges, pair{i, i + 1})
	}
	_, err := New(opts).Run(programs.MustParse(programs.TC),
		map[string]*storage.Relation{"arc": arcRel(edges)})
	if err == nil {
		t.Fatal("expected MaxIterations error")
	}
}

func TestEmptyEDBProducesEmptyIDB(t *testing.T) {
	res := runProg(t, DefaultOptions(), programs.TC, map[string]*storage.Relation{"arc": arcRel(nil)})
	if got := res.Relations["tc"].NumTuples(); got != 0 {
		t.Fatalf("tc = %d tuples, want 0", got)
	}
}

func TestNaiveEvaluationMatchesSemiNaive(t *testing.T) {
	edges := randomEdges(20, 40, 5)
	arc := arcRel(edges)
	want := refTC(edges)
	opts := DefaultOptions()
	opts.Naive = true
	res := runProg(t, opts, programs.TC, map[string]*storage.Relation{"arc": arc})
	if got := relPairs(res.Relations["tc"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("naive tc mismatch: %d vs %d tuples", len(got), len(want))
	}
	// Naive re-derives everything each iteration: strictly more tmp tuples.
	semi := runProg(t, DefaultOptions(), programs.TC, map[string]*storage.Relation{"arc": arc})
	if res.Stats.TmpTuples <= semi.Stats.TmpTuples {
		t.Fatalf("naive should produce more raw tuples: %d vs %d", res.Stats.TmpTuples, semi.Stats.TmpTuples)
	}
}

func TestNaiveCCAndSSSP(t *testing.T) {
	edges := []pair{{1, 2}, {2, 1}, {2, 3}, {3, 2}, {4, 5}, {5, 4}}
	opts := DefaultOptions()
	opts.Naive = true
	res := runProg(t, opts, programs.CC, map[string]*storage.Relation{"arc": arcRel(edges)})
	labels := map[int32]int32{}
	res.Relations["cc2"].ForEach(func(tu []int32) { labels[tu[0]] = tu[1] })
	want := map[int32]int32{1: 1, 2: 1, 3: 1, 4: 4, 5: 4}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("naive cc2 = %v, want %v", labels, want)
	}
}

func TestEOSTEndToEnd(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}, {3, 4}, {4, 5}}
	for _, eost := range []bool{true, false} {
		opts := DefaultOptions()
		opts.DisableIO = false
		opts.EOST = eost
		opts.SpillDir = t.TempDir()
		res := runProg(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
		if got, want := relPairs(res.Relations["tc"]), refTC(edges); !reflect.DeepEqual(got, want) {
			t.Fatalf("eost=%t: wrong result", eost)
		}
	}
}

// Rt is dead once the fused delta step has read it: the memory reading the
// step hook sees must not count it as live intermediate bytes.
func TestConsumedTmpIsNotLiveAtTheHook(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Partitions = 16
	checked := 0
	opts.IterHook = func(ii IterInfo) {
		rt := int64(ii.TmpTuples) * 2 * 4 // binary tuples of int32
		if ii.TmpTuples < 10000 {
			return
		}
		checked++
		if live := ii.Mem.LiveBytes[storage.CatIntermediate]; live >= rt/2 {
			t.Errorf("iteration %d: %d intermediate bytes live after the step, Rt alone is %d", ii.Iteration, live, rt)
		}
	}
	runProg(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel(randomEdges(300, 1800, 5))})
	if checked == 0 {
		t.Fatal("no step produced an Rt worth checking")
	}
}
