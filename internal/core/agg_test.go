package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"recstep/internal/datalog/analysis"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/storage"
)

// aggPool is the worker pool unit merges run on (heap-backed blocks).
var aggPool = exec.NewPool(2)

func minSpec() *analysis.AggSpec {
	return &analysis.AggSpec{Func: "MIN", Pos: 1, GroupPos: []int{0}}
}

func candRel(rows ...[]int32) *storage.Relation {
	r := storage.NewRelation("cand", storage.NumberedColumns(2))
	for _, row := range rows {
		r.Append(row)
	}
	return r
}

func TestAggMergeFirstIterationEmitsAll(t *testing.T) {
	m := newAggMerge(minSpec(), 2)
	delta := m.merge(aggPool, nil, candRel([]int32{1, 10}, []int32{2, 20}), "d")
	if delta.NumTuples() != 2 {
		t.Fatalf("delta = %d tuples, want 2", delta.NumTuples())
	}
	if n := m.materialize(nil, "full").NumTuples(); n != 2 {
		t.Fatalf("%d groups tracked, want 2", n)
	}
}

func TestAggMergeOnlyImprovementsEmit(t *testing.T) {
	m := newAggMerge(minSpec(), 2)
	m.merge(aggPool, nil, candRel([]int32{1, 10}, []int32{2, 20}), "d0")
	// Group 1 improves (5 < 10); group 2 does not (25 > 20).
	delta := m.merge(aggPool, nil, candRel([]int32{1, 5}, []int32{2, 25}), "d1")
	want := []int32{1, 5}
	if got := delta.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
	// Equal value is not an improvement.
	if got := m.merge(aggPool, nil, candRel([]int32{1, 5}), "d2").NumTuples(); got != 0 {
		t.Fatalf("equal value emitted %d tuples", got)
	}
}

func TestAggMergeDuplicateGroupsWithinBatch(t *testing.T) {
	m := newAggMerge(minSpec(), 2)
	// The same group appears twice in one candidate batch (two UNION ALL
	// arms); only the best survives, emitted once.
	delta := m.merge(aggPool, nil, candRel([]int32{7, 30}, []int32{7, 10}, []int32{7, 20}), "d")
	want := []int32{7, 10}
	if got := delta.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
}

func TestAggMergeMaterialize(t *testing.T) {
	m := newAggMerge(minSpec(), 2)
	m.merge(aggPool, nil, candRel([]int32{1, 10}, []int32{2, 20}), "d0")
	m.merge(aggPool, nil, candRel([]int32{1, 5}), "d1")
	rel := m.materialize(nil, "cc3")
	want := []int32{1, 5, 2, 20}
	if got := rel.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("materialized = %v, want %v", got, want)
	}
	if rel.Name() != "cc3" {
		t.Fatalf("name = %q", rel.Name())
	}
}

func TestAggMergeMax(t *testing.T) {
	spec := &analysis.AggSpec{Func: "MAX", Pos: 1, GroupPos: []int{0}}
	m := newAggMerge(spec, 2)
	m.merge(aggPool, nil, candRel([]int32{1, 10}), "d0")
	delta := m.merge(aggPool, nil, candRel([]int32{1, 50}, []int32{1, 30}), "d1")
	want := []int32{1, 50}
	if got := delta.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("max delta = %v, want %v", got, want)
	}
}

func TestAggMergeAggAtFirstPosition(t *testing.T) {
	// sssp-style layouts can place the aggregate anywhere; here at slot 0.
	spec := &analysis.AggSpec{Func: "MIN", Pos: 0, GroupPos: []int{1}}
	m := newAggMerge(spec, 2)
	delta := m.merge(aggPool, nil, candRel([]int32{9, 1}, []int32{4, 1}), "d")
	want := []int32{4, 1}
	if got := delta.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
}

func TestAggMergeRejectsNonMonotone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for SUM")
		}
	}()
	newAggMerge(&analysis.AggSpec{Func: "SUM", Pos: 1, GroupPos: []int{0}}, 2)
}

func TestAggMergeMultiColumnGroups(t *testing.T) {
	spec := &analysis.AggSpec{Func: "MIN", Pos: 2, GroupPos: []int{0, 1}}
	m := newAggMerge(spec, 3)
	r := storage.NewRelation("cand", storage.NumberedColumns(3))
	r.Append([]int32{1, 2, 30})
	r.Append([]int32{1, 3, 40})
	r.Append([]int32{1, 2, 10})
	delta := m.merge(aggPool, nil, r, "d")
	want := []int32{1, 2, 10, 1, 3, 40}
	if got := delta.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
}

// Frontier-expanding aggregates (SSSP from one source) start with a
// near-empty candidate set: the fan-out must upgrade — re-bucketing the
// accumulated state — once candidates grow, and the merge semantics must
// be unchanged across the upgrade.
func TestAggMergeUpgradesFanoutAndRebuckets(t *testing.T) {
	wide := exec.NewPool(4)
	m := newAggMerge(minSpec(), 2)

	// Tiny first candidate: state starts serial.
	m.merge(wide, nil, candRel([]int32{0, 0}), "d0")
	if m.parts != 1 {
		t.Fatalf("parts after tiny merge = %d, want 1", m.parts)
	}

	// A candidate past the partitioning threshold must upgrade the state.
	big := storage.NewRelation("cand", storage.NumberedColumns(2))
	rows := make([]int32, 0, 2<<15)
	for i := 0; i < 1<<15; i++ {
		rows = append(rows, int32(i%5000), int32(i))
	}
	big.AppendRows(rows)
	m.merge(wide, nil, big, "d1")
	if m.parts <= 1 {
		t.Fatalf("parts after large merge = %d, want > 1 (upgrade did not happen)", m.parts)
	}

	// Group 0 was tracked before the upgrade with best value 0; it must
	// survive re-bucketing (no improvement can beat 0 here).
	if got := m.merge(wide, nil, candRel([]int32{0, 3}), "d2").NumTuples(); got != 0 {
		t.Fatalf("pre-upgrade group lost its best value: emitted %d delta tuples", got)
	}
	// And the materialized state must equal a serial reference merge.
	ref := newAggMerge(minSpec(), 2)
	ref.fixedParts = 1
	ref.merge(aggPool, nil, candRel([]int32{0, 0}), "r0")
	ref.merge(aggPool, nil, big, "r1")
	ref.merge(aggPool, nil, candRel([]int32{0, 3}), "r2")
	if !reflect.DeepEqual(m.materialize(nil, "a").SortedRows(), ref.materialize(nil, "b").SortedRows()) {
		t.Fatal("upgraded partitioned state diverges from serial reference")
	}
}

// refFold is the reference the merge must agree with: a plain map from the
// group values to the best value, folded one candidate at a time.
type refFold struct {
	spec  *analysis.AggSpec
	arity int
	best  map[[3]int32]int32
}

func (r *refFold) key(row []int32) [3]int32 {
	var k [3]int32
	for i, c := range r.spec.GroupPos {
		k[i] = row[c]
	}
	return k
}

func (r *refFold) row(k [3]int32, v int32) []int32 {
	row := make([]int32, r.arity)
	for i, c := range r.spec.GroupPos {
		row[c] = k[i]
	}
	row[r.spec.Pos] = v
	return row
}

// merge folds rows and returns ∆: each group created or improved, with its
// value after the batch.
func (r *refFold) merge(rows [][]int32) *storage.Relation {
	changed := map[[3]int32]bool{}
	for _, row := range rows {
		k, v := r.key(row), row[r.spec.Pos]
		cur, ok := r.best[k]
		if !ok || (r.spec.Func == "MIN" && v < cur) || (r.spec.Func == "MAX" && v > cur) {
			r.best[k] = v
			changed[k] = true
		}
	}
	delta := storage.NewRelation("ref", storage.NumberedColumns(r.arity))
	for k := range changed {
		delta.Append(r.row(k, r.best[k]))
	}
	return delta
}

func (r *refFold) materialize() *storage.Relation {
	full := storage.NewRelation("ref", storage.NumberedColumns(r.arity))
	for k, v := range r.best {
		full.Append(r.row(k, v))
	}
	return full
}

// One seeded sequence of 20 candidate batches, folded by the merge and by
// the reference map: ∆ and the materialized state must agree after every
// batch, for MIN and MAX over 1–3 group columns placed around the aggregate,
// across the fan-out upgrade a large batch in the middle forces.
func TestAggMergeMatchesReferenceFold(t *testing.T) {
	wide := exec.NewPool(4)
	for _, fn := range []string{"MIN", "MAX"} {
		for width := 1; width <= 3; width++ {
			t.Run(fmt.Sprintf("%s-width%d", fn, width), func(t *testing.T) {
				arity := width + 1
				pos := width / 2
				var groupPos []int
				for c := arity - 1; c >= 0; c-- {
					if c != pos {
						groupPos = append(groupPos, c)
					}
				}
				spec := &analysis.AggSpec{Func: fn, Pos: pos, GroupPos: groupPos}
				m := newAggMerge(spec, arity)
				ref := &refFold{spec: spec, arity: arity, best: map[[3]int32]int32{}}
				rng := rand.New(rand.NewSource(int64(7*width + len(fn))))
				upgraded := false
				for batch := 0; batch < 20; batch++ {
					n := 50 + rng.Intn(200)
					if batch == 10 {
						n = 1 << 15
					}
					rows := make([][]int32, n)
					cand := storage.NewRelation("cand", storage.NumberedColumns(arity))
					for i := range rows {
						row := make([]int32, arity)
						for c := range row {
							row[c] = int32(rng.Intn(40) - 20)
						}
						row[pos] = int32(rng.Intn(1 << 20))
						if rng.Intn(50) == 0 {
							row[pos] = []int32{math.MinInt32, math.MaxInt32}[rng.Intn(2)]
						}
						rows[i] = row
						cand.Append(row)
					}
					parts := m.parts
					got := m.merge(wide, nil, cand, "d")
					upgraded = upgraded || (parts > 0 && m.parts > parts)
					want := ref.merge(rows)
					if !reflect.DeepEqual(got.SortedRows(), want.SortedRows()) {
						t.Fatalf("batch %d: ∆ has %d rows, reference %d", batch, got.NumTuples(), want.NumTuples())
					}
					if !reflect.DeepEqual(m.materialize(nil, "full").SortedRows(), ref.materialize().SortedRows()) {
						t.Fatalf("batch %d: materialized state diverges from the reference", batch)
					}
				}
				if !upgraded {
					t.Fatalf("the large batch did not re-bucket the state (parts = %d)", m.parts)
				}
			})
		}
	}
}

// A merge whose candidates improve no group — repeats of the current best,
// worse values, or nothing at all — emits an empty ∆ serial or partitioned.
func TestAggMergeNoImprovementEmitsEmptyDelta(t *testing.T) {
	for _, fn := range []string{"MIN", "MAX"} {
		for _, parts := range []int{1, 16} {
			m := newAggMerge(&analysis.AggSpec{Func: fn, Pos: 1, GroupPos: []int{0}}, 2)
			m.fixedParts = parts
			first := candRel([]int32{1, 10}, []int32{2, 20}, []int32{3, 30})
			if got := m.merge(aggPool, nil, first, "d0").NumTuples(); got != 3 {
				t.Fatalf("%s parts=%d: first merge emitted %d rows, want 3", fn, parts, got)
			}
			worse := int32(1)
			if fn == "MIN" {
				worse = 100
			}
			for i, cand := range []*storage.Relation{
				first,
				candRel([]int32{1, worse}, []int32{2, worse}, []int32{3, 30}),
				candRel(),
			} {
				if got := m.merge(aggPool, nil, cand, "d").NumTuples(); got != 0 {
					t.Fatalf("%s parts=%d: non-improving merge %d emitted %d rows", fn, parts, i, got)
				}
			}
		}
	}
}
