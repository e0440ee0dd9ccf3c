package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"recstep/internal/faultinject"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// joinAggCase is one join-fed aggregate: group columns and aggregates over the
// combined row left ++ right, joined on left column 1 = right column 0.
type joinAggCase struct {
	name      string
	buildLeft bool
	groupBy   []int
	aggs      []AggSpec
	residual  []expr.Cmp
}

// spec lays the case out the way the planner does: the join projects the
// group columns, then the aggregate arguments, and aggregates that row.
func (c joinAggCase) spec(parts, aggParts int) JoinSpec {
	s := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, BuildLeft: c.buildLeft, Partitions: parts,
		Residual: c.residual, OutName: "agg", Agg: &GroupAgg{Parts: aggParts}}
	for i, g := range c.groupBy {
		s.Projs = append(s.Projs, expr.Col{Index: g})
		s.Agg.GroupBy = append(s.Agg.GroupBy, i)
	}
	for j, a := range c.aggs {
		s.Projs = append(s.Projs, a.Arg)
		s.Agg.Aggs = append(s.Agg.Aggs, AggSpec{Func: a.Func, Arg: expr.Col{Index: len(c.groupBy) + j}})
	}
	return s
}

// joinThenAggregate is the reference: the whole join materialized, then
// HashAggregate over it. It also returns the join's row count.
func (c joinAggCase) joinThenAggregate(left, right *storage.Relation) ([]int32, int) {
	pool := NewPool(1)
	join := HashJoin(pool, left, right, JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, BuildLeft: c.buildLeft,
		Residual: c.residual, Projs: identityExprs(left.Arity() + right.Arity()), OutName: "join"})
	defer join.Release()
	agg := HashAggregate(pool, join, c.groupBy, c.aggs, "ref", nil)
	defer agg.Release()
	return agg.SortedRows(), join.NumTuples()
}

// blockedRel draws n rows as randRel does into blocks of 100 rows, so that
// every worker gets a share of the probe.
func blockedRel(name string, arity, n, domain int, rng *rand.Rand) *storage.Relation {
	r := storage.NewRelation(name, storage.NumberedColumns(arity))
	for ; n > 0; n -= 100 {
		r.AdoptBlock(storage.BlockFromRows(arity, randRel(name, arity, min(n, 100), domain, rng).Rows()))
	}
	return r
}

func identityExprs(width int) []expr.Expr {
	projs := make([]expr.Expr, width)
	for i := range projs {
		projs[i] = expr.Col{Index: i}
	}
	return projs
}

// TestJoinFedAggregateMatchesJoinThenAggregate checks a join-fed aggregate
// against HashJoin followed by HashAggregate: all five functions, 1–3 group
// columns from the probe side, from the build side and from a build key
// column (which the join reads off the probe row), a computed argument and a
// residual predicate; at build fan-out 1 and 16, 1, 16 and 256 group-hash
// splits, and 1, 2 and 4 workers. Every call must fold exactly the join's
// rows — AggRowsIn = JoinRowsExpanded = the reference join's size — and emit
// each group once. Which worker probes which block is the scheduler's choice,
// so each case also deals the join's projected rows to fixed workers' tables
// (dealtAggregate): the merge must meet groups held by several tables and
// splits held by one. Then the shapes the random inputs miss: a cached build
// served twice, an empty probe side, a probe side that matches nothing, a
// join with no key columns, whose cross product is aggregated, and a probe
// aborted by a worker panic after some windows were folded, which must emit
// nothing.
func TestJoinFedAggregateMatchesJoinThenAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	left, right := blockedRel("l", 3, 900, 24, rng), blockedRel("r", 3, 700, 24, rng)
	// Combined row: l0 l1 l2 r0 r1 r2. Right builds unless buildLeft, so r0 is
	// the build key column read off the probe's l1, and l1 the one read off r0
	// when the left side builds.
	all := []AggSpec{
		{Func: AggMin, Arg: expr.Col{Index: 5}},
		{Func: AggMax, Arg: expr.Col{Index: 2}},
		{Func: AggSum, Arg: expr.Col{Index: 4}},
		{Func: AggCount, Arg: expr.Lit{Value: 1}},
		{Func: AggAvg, Arg: expr.Col{Index: 5}},
	}
	minSum := []AggSpec{{Func: AggMin, Arg: expr.Arith{Op: expr.Add, L: expr.Col{Index: 2}, R: expr.Col{Index: 5}}}}
	cases := []joinAggCase{
		{name: "probe group column", groupBy: []int{0}, aggs: all},
		{name: "two probe group columns", groupBy: []int{2, 0}, aggs: all[:1]},
		{name: "build group column", groupBy: []int{4}, aggs: all},
		{name: "two build group columns", groupBy: []int{5, 4}, aggs: all[3:]},
		{name: "build key group column", groupBy: []int{3}, aggs: all},
		{name: "three mixed group columns", groupBy: []int{3, 0, 5}, aggs: all[:2]},
		{name: "build key group column, left builds", buildLeft: true, groupBy: []int{1, 4}, aggs: all},
		{name: "computed argument", groupBy: []int{4}, aggs: minSum},
		{name: "residual", groupBy: []int{0}, aggs: append(minSum, all[3]),
			residual: []expr.Cmp{{Op: expr.LT, L: expr.Col{Index: 2}, R: expr.Col{Index: 4}}}},
	}
	var shared, single int
	for _, c := range cases {
		want, joined := c.joinThenAggregate(left, right)
		if joined == 0 {
			t.Fatalf("%s: the reference join is empty; the case tests nothing", c.name)
		}
		for _, parts := range []int{1, 16} {
			for _, aggParts := range []int{1, 16, 256} {
				for _, workers := range []int{1, 2, 4} {
					what := fmt.Sprintf("%s, build fan-out %d, %d splits, W=%d", c.name, parts, aggParts, workers)
					pool := NewPool(workers)
					spec := c.spec(parts, aggParts)
					if parts == 1 {
						projected := spec
						projected.Agg = nil
						rows := HashJoin(pool, left, right, projected)
						dealt, sh, si := dealtAggregate(pool, rows, spec.Agg.GroupBy, spec.Agg.Aggs, aggParts)
						if !reflect.DeepEqual(dealt.SortedRows(), want) {
							t.Fatalf("%s, dealt: %d groups, the reference %d", what, dealt.NumTuples(), len(want)/(len(c.groupBy)+len(c.aggs)))
						}
						shared, single = shared+sh, single+si
						pool = NewPool(workers)
					}
					got := HashJoin(pool, left, right, spec)
					if !reflect.DeepEqual(got.SortedRows(), want) {
						t.Fatalf("%s: %d groups, the reference %d", what, got.NumTuples(), len(want)/(len(c.groupBy)+len(c.aggs)))
					}
					s := pool.Copy.Snapshot()
					if s.AggRowsIn != int64(joined) || s.JoinRowsExpanded != int64(joined) {
						t.Fatalf("%s: folded %d rows, expanded %d, the join has %d", what, s.AggRowsIn, s.JoinRowsExpanded, joined)
					}
					if s.AggGroupsOut != int64(got.NumTuples()) || s.DupSuppressed != 0 {
						t.Fatalf("%s: %d groups counted out, %d emitted, %d suppressed", what, s.AggGroupsOut, got.NumTuples(), s.DupSuppressed)
					}
					got.Release()
				}
			}
		}
	}
	if shared == 0 || single == 0 {
		t.Fatalf("the dealt merges saw %d splits held by several tables and %d held by one; want both", shared, single)
	}

	c := cases[0]
	cached := c.spec(16, 16)
	cached.CacheBuild = true
	want, _ := c.joinThenAggregate(left, right)
	pool := NewPool(4)
	for call := 1; call <= 2; call++ {
		if got := HashJoin(pool, left, right, cached); !reflect.DeepEqual(got.SortedRows(), want) {
			t.Fatalf("cached build, call %d: %d groups, the reference %d", call, got.NumTuples(), len(want)/(1+len(c.aggs)))
		}
	}
	if hits := pool.Copy.CachedBuildHits.Load(); hits != 1 {
		t.Fatalf("cached build: %d hits over two calls", hits)
	}

	cross := c.spec(1, 16)
	cross.LeftKeys, cross.RightKeys = nil, nil
	small := randRel("s", 3, 40, 24, rng)
	product := HashJoin(pool, small, right, JoinSpec{Projs: identityExprs(6), OutName: "product"})
	want = HashAggregate(pool, product, c.groupBy, c.aggs, "ref", nil).SortedRows()
	if got := HashJoin(NewPool(2), small, right, cross); !reflect.DeepEqual(got.SortedRows(), want) {
		t.Fatalf("cross product: %d groups, the reference %d", got.NumTuples(), len(want)/(1+len(c.aggs)))
	}

	aborted := NewPool(2)
	aborted.SetFaultInjector(faultinject.New(1).FailNth(faultinject.WorkerPanic, 4))
	got := HashJoin(aborted, left, right, c.spec(1, 16))
	if aborted.Err() == nil || got.NumTuples() != 0 || aborted.Copy.AggRowsIn.Load() != 0 {
		t.Fatalf("aborted probe (error %v): %d groups emitted, %d rows counted in", aborted.Err(), got.NumTuples(), aborted.Copy.AggRowsIn.Load())
	}

	noMatch := storage.NewRelation("l", storage.NumberedColumns(3))
	noMatch.AppendRows([]int32{1, 100, 2, 3, 101, 4})
	for name, probe := range map[string]*storage.Relation{
		"empty probe": storage.NewRelation("l", storage.NumberedColumns(3)),
		"no match":    noMatch,
	} {
		for _, workers := range []int{1, 4} {
			pool := NewPool(workers)
			got := HashJoin(pool, probe, right, c.spec(1, 16))
			if got.NumTuples() != 0 || got.Arity() != 1+len(c.aggs) {
				t.Fatalf("%s, W=%d: %d rows of arity %d, want none of arity %d", name, workers, got.NumTuples(), got.Arity(), 1+len(c.aggs))
			}
			if s := pool.Copy.Snapshot(); s.AggRowsIn != 0 || s.AggGroupsOut != 0 {
				t.Fatalf("%s, W=%d: %d rows folded, %d groups out", name, workers, s.AggRowsIn, s.AggGroupsOut)
			}
		}
	}
}
