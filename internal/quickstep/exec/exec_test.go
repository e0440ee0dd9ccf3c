package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

func rel(name string, arity int, rows ...[]int32) *storage.Relation {
	r := storage.NewRelation(name, storage.NumberedColumns(arity))
	for _, row := range rows {
		r.Append(row)
	}
	return r
}

func sortedPairs(r *storage.Relation) [][2]int32 {
	var out [][2]int32
	r.ForEach(func(t []int32) { out = append(out, [2]int32{t[0], t[1]}) })
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func TestPoolRunCoversAllTasks(t *testing.T) {
	p := NewPool(4)
	if p.Workers() != 4 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	seen := make([]int32, 100)
	p.Run(100, func(task int) { seen[task]++ })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
	p.Run(0, func(int) { t.Fatal("no tasks expected") })
}

func TestPoolSingleWorker(t *testing.T) {
	p := NewPool(1)
	order := []int{}
	p.Run(5, func(task int) { order = append(order, task) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("single worker order = %v", order)
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("default pool must have at least one worker")
	}
}

func TestHashJoinBasic(t *testing.T) {
	// tc(x,z) ⋈ arc(z,y) → (x,y)
	tc := rel("tc", 2, []int32{1, 2}, []int32{1, 3})
	arc := rel("arc", 2, []int32{2, 4}, []int32{3, 5}, []int32{3, 6})
	out := HashJoin(NewPool(2), tc, arc, JoinSpec{
		LeftKeys: []int{1}, RightKeys: []int{0},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
		OutName: "out",
	})
	want := [][2]int32{{1, 4}, {1, 5}, {1, 6}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestHashJoinBuildSideIrrelevantToResult(t *testing.T) {
	left := rel("l", 2, []int32{1, 10}, []int32{2, 20}, []int32{3, 10})
	right := rel("r", 2, []int32{10, 7}, []int32{20, 8})
	spec := JoinSpec{
		LeftKeys: []int{1}, RightKeys: []int{0},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
		OutName: "out",
	}
	a := HashJoin(NewPool(2), left, right, spec)
	spec.BuildLeft = true
	b := HashJoin(NewPool(2), left, right, spec)
	if !reflect.DeepEqual(sortedPairs(a), sortedPairs(b)) {
		t.Fatalf("build side changed result: %v vs %v", sortedPairs(a), sortedPairs(b))
	}
}

func TestHashJoinTwoKeyColumns(t *testing.T) {
	l := rel("l", 2, []int32{1, 2}, []int32{3, 4})
	r := rel("r", 2, []int32{1, 2}, []int32{3, 5})
	out := HashJoin(NewPool(1), l, r, JoinSpec{
		LeftKeys: []int{0, 1}, RightKeys: []int{0, 1},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}},
		OutName: "out",
	})
	want := [][2]int32{{1, 2}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

func TestHashJoinResidualPredicate(t *testing.T) {
	// sg-style: join on parent, exclude x = y.
	arc := rel("arc", 2, []int32{1, 2}, []int32{1, 3})
	out := HashJoin(NewPool(2), arc, arc, JoinSpec{
		LeftKeys: []int{0}, RightKeys: []int{0},
		Residual: []expr.Cmp{{Op: expr.NE, L: expr.Col{Index: 1}, R: expr.Col{Index: 3}}},
		Projs:    []expr.Expr{expr.Col{Index: 1}, expr.Col{Index: 3}},
		OutName:  "sg",
	})
	want := [][2]int32{{2, 3}, {3, 2}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("sg = %v, want %v", got, want)
	}
}

func TestHashJoinArithmeticProjection(t *testing.T) {
	// sssp-style: dist + weight.
	d := rel("d", 2, []int32{1, 5})
	w := rel("w", 3, []int32{1, 2, 7})
	out := HashJoin(NewPool(1), d, w, JoinSpec{
		LeftKeys: []int{0}, RightKeys: []int{0},
		Projs: []expr.Expr{
			expr.Col{Index: 3},
			expr.Arith{Op: expr.Add, L: expr.Col{Index: 1}, R: expr.Col{Index: 4}},
		},
		OutName: "out",
	})
	want := [][2]int32{{2, 12}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("out = %v, want %v", got, want)
	}
}

func TestCrossJoin(t *testing.T) {
	a := rel("a", 1, []int32{1}, []int32{2})
	b := rel("b", 1, []int32{10}, []int32{20})
	out := HashJoin(NewPool(2), a, b, JoinSpec{
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}},
		OutName: "out",
	})
	want := [][2]int32{{1, 10}, {1, 20}, {2, 10}, {2, 20}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("cross = %v, want %v", got, want)
	}
}

func TestAntiJoin(t *testing.T) {
	all := rel("all", 2, []int32{1, 1}, []int32{1, 2}, []int32{2, 1}, []int32{2, 2})
	tc := rel("tc", 2, []int32{1, 2}, []int32{2, 2})
	out := AntiJoin(NewPool(2), all, tc, []int{0, 1}, []int{0, 1}, nil,
		[]expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}}, 1, "ntc", nil)
	want := [][2]int32{{1, 1}, {2, 1}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("ntc = %v, want %v", got, want)
	}
}

func TestSelectProject(t *testing.T) {
	in := rel("t", 2, []int32{1, 9}, []int32{2, 8}, []int32{3, 7})
	out := SelectProject(NewPool(2), in,
		[]expr.Cmp{{Op: expr.GT, L: expr.Col{Index: 0}, R: expr.Lit{Value: 1}}},
		[]expr.Expr{expr.Col{Index: 1}, expr.Col{Index: 0}}, "out", nil)
	want := [][2]int32{{7, 3}, {8, 2}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("out = %v, want %v", got, want)
	}
}

func TestUnionAll(t *testing.T) {
	a := rel("a", 2, []int32{1, 1})
	b := rel("b", 2, []int32{1, 1}, []int32{2, 2})
	out := UnionAll("u", storage.NumberedColumns(2), a, b)
	if out.NumTuples() != 3 {
		t.Fatalf("UNION ALL kept %d tuples, want 3 (bag semantics)", out.NumTuples())
	}
}

func TestDedupStrategiesAgree(t *testing.T) {
	in := rel("t", 2)
	for i := 0; i < 1000; i++ {
		in.Append([]int32{int32(i % 50), int32(i % 20)})
	}
	pool := NewPool(4)
	want := sortedPairs(Dedup(pool, in, DedupSort, 0, "s"))
	for _, s := range []DedupStrategy{DedupGSCHT, DedupLockMap} {
		got := sortedPairs(Dedup(pool, in, s, in.NumTuples(), "d"))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("strategy %v disagrees with sort: %d vs %d tuples", s, len(got), len(want))
		}
	}
	if len(want) != 100 {
		t.Fatalf("distinct count = %d, want 100", len(want))
	}
}

func TestDedupArity3(t *testing.T) {
	in := rel("t", 3, []int32{1, 2, 3}, []int32{1, 2, 3}, []int32{1, 2, 4})
	out := Dedup(NewPool(2), in, DedupGSCHT, 4, "d")
	if out.NumTuples() != 2 {
		t.Fatalf("dedup kept %d tuples, want 2", out.NumTuples())
	}
}

// Tuples wider than the compact keys pack go through the generic locked map,
// under FAST-DEDUP and the lock-map baseline alike.
func TestDedupArity5GenericPath(t *testing.T) {
	for _, arity := range []int{5, 6} {
		in := randRel("t", arity, 2000, 4, rand.New(rand.NewSource(int64(arity))))
		want := tupleCounts(in)
		for k := range want {
			want[k] = 1
		}
		for _, strategy := range []DedupStrategy{DedupGSCHT, DedupLockMap} {
			if got := tupleCounts(Dedup(NewPool(2), in, strategy, 4, "d")); !reflect.DeepEqual(got, want) {
				t.Fatalf("arity %d %v: dedup kept %d distinct tuples, want %d", arity, strategy, len(got), len(want))
			}
		}
	}
}

func TestSetDifferenceBothAlgorithms(t *testing.T) {
	rdelta := rel("rd", 2, []int32{1, 1}, []int32{2, 2}, []int32{3, 3})
	r := rel("r", 2, []int32{2, 2}, []int32{4, 4})
	want := [][2]int32{{1, 1}, {3, 3}}
	pool := NewPool(2)
	for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
		got := sortedPairs(SetDifference(pool, rdelta, r, algo, "diff"))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: diff = %v, want %v", algo, got, want)
		}
	}
}

func TestSetDifferenceEmptyInputs(t *testing.T) {
	empty := rel("e", 2)
	full := rel("f", 2, []int32{1, 1})
	pool := NewPool(2)
	for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
		if got := SetDifference(pool, empty, full, algo, "d").NumTuples(); got != 0 {
			t.Fatalf("%v: ∅−R = %d tuples", algo, got)
		}
		if got := SetDifference(pool, full, empty, algo, "d").NumTuples(); got != 1 {
			t.Fatalf("%v: R−∅ = %d tuples, want 1", algo, got)
		}
	}
}

// Property: OPSD and TPSD agree on random inputs (the DSD choice must never
// change the answer).
func TestSetDifferenceEquivalenceProperty(t *testing.T) {
	pool := NewPool(4)
	f := func(da, db []uint8) bool {
		rdelta := rel("rd", 2)
		seen := map[[2]int32]bool{}
		for i := 0; i+1 < len(da); i += 2 {
			k := [2]int32{int32(da[i] % 16), int32(da[i+1] % 16)}
			if !seen[k] { // Rδ is deduplicated by contract
				seen[k] = true
				rdelta.Append([]int32{k[0], k[1]})
			}
		}
		r := rel("r", 2)
		for i := 0; i+1 < len(db); i += 2 {
			r.Append([]int32{int32(db[i] % 16), int32(db[i+1] % 16)})
		}
		a := sortedPairs(SetDifference(pool, rdelta, r, OPSD, "a"))
		b := sortedPairs(SetDifference(pool, rdelta, r, TPSD, "b"))
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashAggregateMinMaxSumCountAvg(t *testing.T) {
	in := rel("t", 2,
		[]int32{1, 10}, []int32{1, 20}, []int32{2, 5})
	out := HashAggregate(NewPool(2), in, []int{0}, []AggSpec{
		{Func: AggMin, Arg: expr.Col{Index: 1}},
		{Func: AggMax, Arg: expr.Col{Index: 1}},
		{Func: AggSum, Arg: expr.Col{Index: 1}},
		{Func: AggCount, Arg: expr.Col{Index: 1}},
		{Func: AggAvg, Arg: expr.Col{Index: 1}},
	}, "agg", nil)
	var rows [][]int32
	out.ForEach(func(r []int32) { rows = append(rows, append([]int32(nil), r...)) })
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	want := [][]int32{
		{1, 10, 20, 30, 2, 15},
		{2, 5, 5, 5, 1, 5},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("agg = %v, want %v", rows, want)
	}
}

func TestHashAggregateGlobalGroup(t *testing.T) {
	in := rel("t", 1, []int32{3}, []int32{7})
	out := HashAggregate(NewPool(2), in, nil, []AggSpec{{Func: AggSum, Arg: expr.Col{Index: 0}}}, "agg", nil)
	if out.NumTuples() != 1 {
		t.Fatalf("global agg rows = %d, want 1", out.NumTuples())
	}
	out.ForEach(func(r []int32) {
		if r[0] != 10 {
			t.Fatalf("SUM = %d, want 10", r[0])
		}
	})
}

func TestHashAggregateParallelMatchesSerial(t *testing.T) {
	in := rel("t", 2)
	for i := 0; i < 20000; i++ {
		in.Append([]int32{int32(i % 97), int32(i)})
	}
	aggs := []AggSpec{{Func: AggMin, Arg: expr.Col{Index: 1}}, {Func: AggCount, Arg: expr.Col{Index: 1}}}
	serial := HashAggregate(NewPool(1), in, []int{0}, aggs, "s", nil)
	parallel := HashAggregate(NewPool(8), in, []int{0}, aggs, "p", nil)
	if !reflect.DeepEqual(serial.SortedRows(), parallel.SortedRows()) {
		t.Fatal("parallel aggregation disagrees with serial")
	}
}

func TestMeasureBuildProbe(t *testing.T) {
	build := rel("b", 2)
	probe := rel("p", 2)
	for i := 0; i < 5000; i++ {
		build.Append([]int32{int32(i), int32(i)})
		probe.Append([]int32{int32(i), int32(i)})
	}
	bn, pn := MeasureBuildProbe(NewPool(2), build, probe)
	if bn <= 0 || pn <= 0 {
		t.Fatalf("MeasureBuildProbe = %f, %f; want positive costs", bn, pn)
	}
	if b0, p0 := MeasureBuildProbe(NewPool(2), rel("e", 2), rel("e2", 2)); b0 != 0 || p0 != 0 {
		t.Fatal("empty inputs should yield zero costs")
	}
}

func TestDedupStrategyString(t *testing.T) {
	if DedupGSCHT.String() != "cck-gscht" || DedupLockMap.String() != "lock-map" || DedupSort.String() != "sort" {
		t.Fatal("DedupStrategy.String mismatch")
	}
	if OPSD.String() != "opsd" || TPSD.String() != "tpsd" {
		t.Fatal("DiffAlgorithm.String mismatch")
	}
}

func TestSelectProjectIdentityFastPathSharesBlocks(t *testing.T) {
	in := rel("t", 2, []int32{1, 2}, []int32{3, 4})
	out := SelectProject(NewPool(2), in, nil,
		[]expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}}, "out", nil)
	if out.NumTuples() != 2 {
		t.Fatalf("identity copy lost tuples: %d", out.NumTuples())
	}
	if !reflect.DeepEqual(out.SortedRows(), in.SortedRows()) {
		t.Fatal("identity fast path changed content")
	}
	// Block sharing: the output relation must reference the same block.
	if len(out.Blocks()) != len(in.Blocks()) || out.Blocks()[0] != in.Blocks()[0] {
		t.Fatal("identity fast path should share blocks, not copy")
	}
}

func TestSelectProjectColumnPermutation(t *testing.T) {
	in := rel("t", 3, []int32{1, 2, 3})
	out := SelectProject(NewPool(1), in, nil,
		[]expr.Expr{expr.Col{Index: 2}, expr.Col{Index: 0}}, "out", nil)
	want := [][2]int32{{3, 1}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("permutation = %v, want %v", got, want)
	}
}

func TestColIndexesDetection(t *testing.T) {
	idx, ok := colIndexes([]expr.Expr{expr.Col{Index: 1}, expr.Col{Index: 0}})
	if !ok || !reflect.DeepEqual(idx, []int{1, 0}) {
		t.Fatalf("colIndexes = %v, %t", idx, ok)
	}
	if _, ok := colIndexes([]expr.Expr{expr.Lit{Value: 1}}); ok {
		t.Fatal("literal projection must not take the column fast path")
	}
	if !isIdentity([]int{0, 1}, 2) || isIdentity([]int{1, 0}, 2) || isIdentity([]int{0}, 2) {
		t.Fatal("isIdentity misclassifies")
	}
}

func TestHashJoinExprProjectionStillWorks(t *testing.T) {
	// Mixed plain-column and arithmetic projections exercise the slow path.
	l := rel("l", 2, []int32{1, 7})
	r := rel("r", 2, []int32{7, 9})
	out := HashJoin(NewPool(1), l, r, JoinSpec{
		LeftKeys: []int{1}, RightKeys: []int{0},
		Projs: []expr.Expr{
			expr.Arith{Op: expr.Mul, L: expr.Col{Index: 0}, R: expr.Lit{Value: 10}},
			expr.Col{Index: 3},
		},
		OutName: "out",
	})
	want := [][2]int32{{10, 9}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("out = %v, want %v", got, want)
	}
}
