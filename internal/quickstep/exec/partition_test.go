package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

func randomRel(t *testing.T, name string, arity, n, domain int, seed int64) *storage.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := storage.NewRelation(name, storage.NumberedColumns(arity))
	rows := make([]int32, 0, n*arity)
	for i := 0; i < n; i++ {
		for c := 0; c < arity; c++ {
			rows = append(rows, int32(rng.Intn(domain)))
		}
	}
	r.AppendRows(rows)
	return r
}

func TestPartitionRelationCoversAllRows(t *testing.T) {
	r := randomRel(t, "t", 2, 50000, 1000, 1)
	pool := NewPool(4)
	view := PartitionRelation(pool, r, []int{0}, 16)
	if view.Parts() != 16 {
		t.Fatalf("parts = %d, want 16", view.Parts())
	}
	total := 0
	gathered := storage.NewRelation("g", r.ColNames())
	for p := 0; p < view.Parts(); p++ {
		total += view.Rows(p)
		for _, b := range view.Blocks(p) {
			n := b.Rows()
			for i := 0; i < n; i++ {
				row := b.Row(i)
				if got := storage.PartitionOf(storage.PartitionHash(row, []int{0}), 16); got != p {
					t.Fatalf("row %v scattered to partition %d, hash says %d", row, p, got)
				}
			}
			gathered.AdoptBlock(b)
		}
	}
	if total != r.NumTuples() {
		t.Fatalf("partitioned view holds %d rows, relation has %d", total, r.NumTuples())
	}
	if !reflect.DeepEqual(gathered.SortedRows(), r.SortedRows()) {
		t.Fatal("partitioned view content diverges from relation")
	}
}

// PartitionRelation scatters a relation that carries no matching
// partitioning afresh on every call — nothing is cached on the relation, and
// a later mutation shows in the next view — and returns a matching carried
// view as it is.
func TestPartitionRelationScattersUnlessCarried(t *testing.T) {
	r := randomRel(t, "t", 2, 1000, 100, 2)
	pool := NewPool(2)
	a := PartitionRelation(pool, r, []int{0}, 8)
	b := PartitionRelation(pool, r, []int{0}, 8)
	if a == b || a.NumTuples() != r.NumTuples() || b.NumTuples() != r.NumTuples() {
		t.Fatalf("two scatters: same view %v, %d and %d rows of %d", a == b, a.NumTuples(), b.NumTuples(), r.NumTuples())
	}
	r.Append([]int32{1, 2})
	if d := PartitionRelation(pool, r, []int{0}, 8); d.NumTuples() != r.NumTuples() {
		t.Fatalf("view after an append holds %d rows, want %d", d.NumTuples(), r.NumTuples())
	}
	c := PartitionRelationCarried(pool, r, []int{0}, 8)
	if got := PartitionRelation(pool, r, []int{0}, 8); got != c {
		t.Fatal("a matching carried view must be returned as it is")
	}
	if PartitionRelation(pool, r, []int{1}, 8) == c {
		t.Fatal("other key columns must scatter")
	}
}

func TestHashJoinPartitionedMatchesSerial(t *testing.T) {
	left := randomRel(t, "l", 2, 20000, 300, 3)
	right := randomRel(t, "r", 2, 20000, 300, 4)
	for _, buildLeft := range []bool{false, true} {
		spec := JoinSpec{
			LeftKeys: []int{1}, RightKeys: []int{0},
			BuildLeft: buildLeft,
			Projs:     []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
			OutName:   "out",
		}
		serial := spec
		serial.Partitions = 1
		part := spec
		part.Partitions = 16
		a := HashJoin(NewPool(4), left, right, serial)
		b := HashJoin(NewPool(4), left, right, part)
		if !reflect.DeepEqual(a.SortedRows(), b.SortedRows()) {
			t.Fatalf("buildLeft=%v: partitioned join (%d rows) diverges from serial (%d rows)",
				buildLeft, b.NumTuples(), a.NumTuples())
		}
	}
}

func TestHashJoinThreeAndFourKeyColumns(t *testing.T) {
	// 3- and 4-column keys take the 128-bit compact path; check against a
	// width where only a prefix participates in the key.
	l := rel("l", 4, []int32{1, 2, 3, 7}, []int32{1, 2, 4, 8}, []int32{-1, 0, 5, 9})
	r := rel("r", 4, []int32{1, 2, 3, 100}, []int32{-1, 0, 5, 200}, []int32{9, 9, 9, 300})
	out := HashJoin(NewPool(2), l, r, JoinSpec{
		LeftKeys: []int{0, 1, 2}, RightKeys: []int{0, 1, 2},
		Projs:   []expr.Expr{expr.Col{Index: 3}, expr.Col{Index: 7}},
		OutName: "out",
	})
	want := [][2]int32{{7, 100}, {9, 200}}
	if got := sortedPairs(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("3-key join = %v, want %v", got, want)
	}
	out4 := HashJoin(NewPool(2), l, r, JoinSpec{
		LeftKeys: []int{0, 1, 2, 3}, RightKeys: []int{0, 1, 2, 3},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}},
		OutName: "out4",
	})
	if out4.NumTuples() != 0 {
		t.Fatalf("4-key join matched %d rows, want 0 (fourth column differs)", out4.NumTuples())
	}
}

func TestHashJoinManyKeyColumnsPartitioned(t *testing.T) {
	// Arity-5 keys fall back to string packing; partitioning must still
	// route build and probe consistently.
	mk := func(name string, seed int64) *storage.Relation {
		return randomRel(t, name, 5, 5000, 8, seed)
	}
	l, r := mk("l", 5), mk("r", 6)
	spec := JoinSpec{
		LeftKeys: []int{0, 1, 2, 3, 4}, RightKeys: []int{0, 1, 2, 3, 4},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 5}},
		OutName: "out",
	}
	serial := spec
	serial.Partitions = 1
	part := spec
	part.Partitions = 8
	a := HashJoin(NewPool(4), l, r, serial)
	b := HashJoin(NewPool(4), l, r, part)
	if !reflect.DeepEqual(a.SortedRows(), b.SortedRows()) {
		t.Fatal("partitioned 5-key join diverges from serial")
	}
}

func TestSetDifferencePartitionedMatchesSerial(t *testing.T) {
	rdelta := Dedup(NewPool(2), randomRel(t, "rd", 2, 20000, 200, 7), DedupGSCHT, 20000, "rdd")
	r := randomRel(t, "r", 2, 30000, 200, 8)
	pool := NewPool(4)
	for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
		want := SetDifference(pool, rdelta, r, algo, "serial").SortedRows()
		for _, parts := range []int{4, 16, 64} {
			got := SetDifferencePartitioned(pool, rdelta, r, algo, parts, "part").SortedRows()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/parts=%d: partitioned diff diverges from serial", algo, parts)
			}
		}
	}
}

func TestSetDifferencePartitionedEmptyInputs(t *testing.T) {
	empty := rel("e", 2)
	full := rel("f", 2, []int32{1, 1})
	pool := NewPool(2)
	for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
		if got := SetDifferencePartitioned(pool, empty, full, algo, 16, "d").NumTuples(); got != 0 {
			t.Fatalf("%v: ∅−R = %d tuples", algo, got)
		}
		if got := SetDifferencePartitioned(pool, full, empty, algo, 16, "d").NumTuples(); got != 1 {
			t.Fatalf("%v: R−∅ = %d tuples, want 1", algo, got)
		}
	}
}

func TestHashAggregatePartitionedMatchesSerial(t *testing.T) {
	in := randomRel(t, "t", 3, 30000, 97, 9)
	aggs := []AggSpec{
		{Func: AggMin, Arg: expr.Col{Index: 2}},
		{Func: AggMax, Arg: expr.Col{Index: 2}},
		{Func: AggSum, Arg: expr.Col{Index: 2}},
		{Func: AggCount, Arg: expr.Col{Index: 2}},
	}
	pool := NewPool(4)
	want := HashAggregate(pool, in, []int{0, 1}, aggs, "s", nil).SortedRows()
	got := HashAggregatePartitioned(pool, in, []int{0, 1}, aggs, 16, "p", nil).SortedRows()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partitioned aggregation diverges from merge-based")
	}
	// Global aggregation has no group columns to partition on and must fall
	// back to the merge-based path.
	g := HashAggregatePartitioned(pool, in, nil, aggs[:1], 16, "g", nil)
	if g.NumTuples() != 1 {
		t.Fatalf("global agg rows = %d, want 1", g.NumTuples())
	}
}

func TestAntiJoinPartitionedMatchesSerial(t *testing.T) {
	left := randomRel(t, "l", 2, 20000, 150, 10)
	right := randomRel(t, "r", 2, 15000, 150, 11)
	projs := []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}}
	pool := NewPool(4)
	want := AntiJoin(pool, left, right, []int{0, 1}, []int{0, 1}, nil, projs, 1, "s", nil).SortedRows()
	got := AntiJoin(pool, left, right, []int{0, 1}, []int{0, 1}, nil, projs, 16, "p", nil).SortedRows()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partitioned anti join diverges from serial")
	}
}
