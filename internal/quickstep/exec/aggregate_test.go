package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// referenceAggregate is the naive grouping the group table must agree with:
// a map keyed by the printed group values, every aggregate folded in int64.
func referenceAggregate(in *storage.Relation, groupBy []int, aggs []AggSpec) []int32 {
	type acc struct {
		key        []int32
		min, max   []int32
		sum, count []int64
	}
	groups := map[string]*acc{}
	in.ForEach(func(row []int32) {
		key := make([]int32, len(groupBy))
		for i, c := range groupBy {
			key[i] = row[c]
		}
		a := groups[fmt.Sprint(key)]
		if a == nil {
			a = &acc{key: key, min: make([]int32, len(aggs)), max: make([]int32, len(aggs)),
				sum: make([]int64, len(aggs)), count: make([]int64, len(aggs))}
			for j := range aggs {
				a.min[j], a.max[j] = math.MaxInt32, math.MinInt32
			}
			groups[fmt.Sprint(key)] = a
		}
		for j, s := range aggs {
			v := s.Arg.Eval(row)
			a.min[j] = min(a.min[j], v)
			a.max[j] = max(a.max[j], v)
			a.sum[j] += int64(v)
			a.count[j]++
		}
	})
	out := storage.NewRelation("ref", storage.NumberedColumns(len(groupBy)+len(aggs)))
	for _, a := range groups {
		row := append([]int32(nil), a.key...)
		for j, s := range aggs {
			switch s.Func {
			case AggMin:
				row = append(row, a.min[j])
			case AggMax:
				row = append(row, a.max[j])
			case AggSum:
				row = append(row, int32(a.sum[j]))
			case AggCount:
				row = append(row, int32(a.count[j]))
			case AggAvg:
				row = append(row, int32(a.sum[j]/a.count[j]))
			}
		}
		out.Append(row)
	}
	return out.SortedRows()
}

// edgeValues are the group values most likely to break a packed or hashed
// key: zero, minus one and both int32 extremes.
var edgeValues = []int32{0, -1, math.MinInt32, math.MaxInt32, 1, 7}

// TestHashAggregateMatchesReference runs both aggregate entry points over
// random inputs with 0–5 group columns at scattered positions and all five
// functions (one through a computed argument), at 1 and 4 workers and 1, 16
// and 64 partitions, against the naive map; then over one block whose
// groups keep opening in later fold windows.
func TestHashAggregateMatchesReference(t *testing.T) {
	for width := 0; width <= 5; width++ {
		rng := rand.New(rand.NewSource(int64(100 + width)))
		arity := width + 2
		perm := rng.Perm(arity)
		groupBy, val := perm[:width], perm[width]
		rows := make([]int32, 0, 4000*arity)
		for i := 0; i < 4000; i++ {
			for c := 0; c < arity; c++ {
				if rng.Intn(3) == 0 {
					rows = append(rows, edgeValues[rng.Intn(len(edgeValues))])
				} else {
					rows = append(rows, int32(rng.Intn(6)))
				}
			}
		}
		rows = append(rows, make([]int32, arity)...) // the all-zero group
		in := storage.NewRelation("in", storage.NumberedColumns(arity))
		in.AppendRows(rows)
		aggs := []AggSpec{
			{Func: AggMin, Arg: expr.Col{Index: val}},
			{Func: AggMax, Arg: expr.Col{Index: val}},
			{Func: AggSum, Arg: expr.Col{Index: val}},
			{Func: AggCount, Arg: expr.Col{Index: val}},
			{Func: AggAvg, Arg: expr.Col{Index: val}},
			{Func: AggMin, Arg: expr.Arith{Op: expr.Sub, L: expr.Col{Index: val}, R: expr.Col{Index: perm[arity-1]}}},
		}
		matchReference(t, fmt.Sprintf("width%d", width), in, groupBy, aggs, []int{1, 16, 64})
	}

	// Groups that first appear in later windows of one fold: one block of
	// 3,000 rows keyed on column 1, in which every even row opens a group
	// and every odd row revisits one already open, so the states grow while
	// one call folds the whole block (one split) or a routed run of it (16
	// splits, the join-fed aggregate's fold through a selection).
	rng := rand.New(rand.NewSource(99))
	rows := make([]int32, 0, 3*3000)
	for i := 0; i < 3000; i++ {
		key := int32(i / 2)
		if i%2 == 1 {
			key = int32(rng.Intn(i/2 + 1))
		}
		rows = append(rows, int32(rng.Intn(1000)-500), key, edgeValues[rng.Intn(len(edgeValues))])
	}
	in := storage.NewRelation("in", storage.NumberedColumns(3))
	in.AdoptBlock(storage.BlockFromRows(3, rows))
	aggs := []AggSpec{
		{Func: AggMin, Arg: expr.Col{Index: 0}},
		{Func: AggMax, Arg: expr.Col{Index: 2}},
		{Func: AggSum, Arg: expr.Col{Index: 0}},
		{Func: AggCount, Arg: expr.Col{Index: 0}},
		{Func: AggAvg, Arg: expr.Col{Index: 0}},
		{Func: AggMax, Arg: expr.Arith{Op: expr.Sub, L: expr.Col{Index: 0}, R: expr.Col{Index: 1}}},
	}
	matchReference(t, "late-groups", in, []int{1}, aggs, []int{1, 16})
}

// matchReference runs HashAggregatePartitioned at 1 and 4 workers and each
// split count in parts, and HashAggregate at one split, against the naive
// map.
func matchReference(t *testing.T, name string, in *storage.Relation, groupBy []int, aggs []AggSpec, parts []int) {
	t.Helper()
	want := referenceAggregate(in, groupBy, aggs)
	for _, workers := range []int{1, 4} {
		for _, p := range parts {
			t.Run(fmt.Sprintf("%s-w%d-parts%d", name, workers, p), func(t *testing.T) {
				pool, _ := poolOn(workers)
				got := HashAggregatePartitioned(pool, in, groupBy, aggs, p, "agg", nil)
				if !reflect.DeepEqual(got.SortedRows(), want) {
					t.Fatalf("partitioned aggregate diverges from the reference (%d vs %d rows)", got.NumTuples(), len(want)/(len(groupBy)+len(aggs)))
				}
				got.Release()
				if p == 1 {
					serial := HashAggregate(pool, in, groupBy, aggs, "agg", nil)
					if !reflect.DeepEqual(serial.SortedRows(), want) {
						t.Fatal("serial aggregate diverges from the reference")
					}
					serial.Release()
				}
			})
		}
	}
}

// TestGroupTableForcedGrowth starts tables of key widths 1–5 at the minimum
// size and inserts every combination of 0, −1, MinInt32 and MaxInt32, then
// 100 k more distinct groups, each twice: every group keeps its index and key
// across all the doublings, a repeat never creates a group, and at every
// growth step Find returns each group inserted so far and -1 for the keys not
// yet inserted and for one never inserted. A one-column key read from a
// column other than the first must agree with a two-column table over the
// same values at every step.
func TestGroupTableForcedGrowth(t *testing.T) {
	const n = 100_000
	edge := []int32{0, -1, math.MinInt32, math.MaxInt32}
	for width := 1; width <= 5; width++ {
		var keys [][]int32
		for c := 0; c < 1<<(2*width); c++ {
			k := make([]int32, width)
			for j := range k {
				k[j] = edge[c>>(2*j)&3]
			}
			keys = append(keys, k)
		}
		for i := 0; i < n; i++ {
			k := []int32{int32(i+1) * -7919}
			for j := 1; j < width; j++ {
				k = append(k, edge[(i+j)%len(edge)])
			}
			keys = append(keys, k)
		}
		never := make([]int32, width)
		for j := range never {
			never[j] = 1
		}
		tab := NewGroupTable(width)
		find := func(inserted int) {
			t.Helper()
			for i, k := range keys[:inserted] {
				if g := tab.Find(k, tab.ident); g != i {
					t.Fatalf("width %d, %d groups: Find(%v) = %d, want %d", width, inserted, k, g, i)
				}
			}
			for _, k := range append([][]int32{never}, keys[inserted:min(inserted+64, len(keys))]...) {
				if g := tab.Find(k, tab.ident); g != -1 {
					t.Fatalf("width %d, %d groups: Find(%v) = %d for a key not inserted", width, inserted, k, g)
				}
			}
		}
		find(0)
		for i, k := range keys {
			before := tab.Cap()
			if g, fresh := tab.Insert(k); g != i || !fresh {
				t.Fatalf("width %d: insert %d: group %d fresh=%v", width, i, g, fresh)
			}
			if i%2 == 0 {
				if g, fresh := tab.Insert(keys[i/2]); g != i/2 || fresh {
					t.Fatalf("width %d: repeat %d: group %d fresh=%v", width, i/2, g, fresh)
				}
			}
			if tab.Cap() != before {
				find(i + 1)
			}
		}
		find(len(keys))
		if tab.Len() != len(keys) {
			t.Fatalf("width %d: Len = %d, want %d", width, tab.Len(), len(keys))
		}
		for i, k := range keys {
			if !reflect.DeepEqual(tab.Key(i), k) {
				t.Fatalf("width %d: group %d key = %v, want %v", width, i, tab.Key(i), k)
			}
			if g, fresh := tab.Insert(k); g != i || fresh {
				t.Fatalf("width %d: lookup %d after growth: group %d fresh=%v", width, i, g, fresh)
			}
		}
	}

	// A one-column key read from column 2 of 3-column rows whose other
	// columns change from call to call, against a two-column table keyed on
	// (k, 0): the one-column path must give the generic path's group
	// indices and Find results at every growth step.
	keys := append([]int32(nil), edge...)
	for i := 0; i < n; i++ {
		keys = append(keys, int32(i+1)*-7919)
	}
	one, two := NewGroupTable(1), NewGroupTable(2)
	keyCol, pairCols := []int{2}, []int{0, 1}
	row := func(salt int, k int32) []int32 { return []int32{int32(salt), int32(salt) ^ k, k} }
	find := func(inserted int) {
		t.Helper()
		for i, k := range keys[:inserted] {
			g1, g2 := one.Find(row(3*i+1, k), keyCol), two.Find([]int32{k, 0}, pairCols)
			if g1 != i || g2 != i {
				t.Fatalf("one column, %d groups: Find(%d) = %d, two columns %d, want %d", inserted, k, g1, g2, i)
			}
		}
		for _, k := range append([]int32{1}, keys[inserted:min(inserted+64, len(keys))]...) {
			if g1, g2 := one.Find(row(inserted, k), keyCol), two.Find([]int32{k, 0}, pairCols); g1 != -1 || g2 != -1 {
				t.Fatalf("one column, %d groups: Find(%d) = %d, two columns %d, for a key not inserted", inserted, k, g1, g2)
			}
		}
	}
	find(0)
	for i, k := range keys {
		before := one.Cap()
		g1, fresh1 := one.InsertRow(row(i, k), keyCol)
		g2, fresh2 := two.InsertRow([]int32{k, 0}, pairCols)
		if g1 != i || !fresh1 || g2 != i || !fresh2 {
			t.Fatalf("one column: insert %d: group %d fresh=%v, two columns group %d fresh=%v", i, g1, fresh1, g2, fresh2)
		}
		if i%2 == 0 {
			if g, fresh := one.InsertRow(row(-i, keys[i/2]), keyCol); g != i/2 || fresh {
				t.Fatalf("one column: repeat %d: group %d fresh=%v", i/2, g, fresh)
			}
		}
		if one.Cap() != two.Cap() {
			t.Fatalf("one column: %d groups: Cap %d, two columns %d", i+1, one.Cap(), two.Cap())
		}
		if one.Cap() != before {
			find(i + 1)
		}
	}
	find(len(keys))
	for i, k := range keys {
		if got := one.Key(i); len(got) != 1 || got[0] != k {
			t.Fatalf("one column: group %d key = %v, want [%d]", i, got, k)
		}
	}

	// The same through the operator, whose tables all start at the minimum.
	in := storage.NewRelation("in", storage.NumberedColumns(2))
	rows := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		rows = append(rows, int32(i)*-7919, int32(i))
	}
	in.AppendRows(rows)
	aggs := []AggSpec{{Func: AggMax, Arg: expr.Col{Index: 1}}}
	if got := HashAggregate(NewPool(1), in, []int{0}, aggs, "agg", nil); !reflect.DeepEqual(got.SortedRows(), referenceAggregate(in, []int{0}, aggs)) {
		t.Fatal("100 k-group aggregate diverges from the reference")
	}
}

// TestHashAggregateOutputIsPoolAccounted holds both aggregate paths to the
// memory manager: their output is live CatIntermediate pool memory while it
// is held and none of it survives Release.
func TestHashAggregateOutputIsPoolAccounted(t *testing.T) {
	aggs := []AggSpec{{Func: AggMin, Arg: expr.Col{Index: 1}}, {Func: AggCount, Arg: expr.Col{Index: 1}}}
	for _, workers := range []int{1, 4} {
		for _, parts := range []int{1, 16} {
			pool, mem := poolOn(workers)
			in := randomRel(t, "t", 2, 20000, 500, 3)
			out := HashAggregatePartitioned(pool, in, []int{0}, aggs, parts, "agg", nil)
			if out.NumTuples() == 0 {
				t.Fatal("empty aggregate")
			}
			if live := mem.Snapshot().LiveBytes[storage.CatIntermediate]; live <= 0 {
				t.Fatalf("w%d parts%d: aggregate output holds %d live intermediate bytes, want > 0", workers, parts, live)
			}
			out.Release()
			in.Release() // the partitioned path's scatter is cached on the input
			if live := mem.Snapshot().LiveBytes[storage.CatIntermediate]; live != 0 {
				t.Fatalf("w%d parts%d: %d intermediate bytes live after Release", workers, parts, live)
			}
		}
	}
}

// TestAggregateAllocations holds the group table to allocating per table
// growth, not per group: 64 k rows into 16 k groups may allocate more than
// the same rows into 1 k groups only by the four extra doublings of the slot
// array, the key arena and the state slice, plus the four extra doublings of
// the output block (1 k to 16 k rows). Per-group allocation would cost
// thousands.
func TestAggregateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	pool, _ := poolOn(1)
	aggs := []AggSpec{{Func: AggMin, Arg: expr.Col{Index: 1}}}
	allocs := func(groups int) float64 {
		in := storage.NewRelation("in", storage.NumberedColumns(2))
		rows := make([]int32, 0, 2<<16)
		for i := 0; i < 1<<16; i++ {
			rows = append(rows, int32(i%groups), int32(i))
		}
		in.AppendRows(rows)
		return testing.AllocsPerRun(5, func() {
			out := HashAggregate(pool, in, []int{0}, aggs, "agg", nil)
			if out.NumTuples() != groups {
				t.Fatalf("%d groups, want %d", out.NumTuples(), groups)
			}
			out.Release()
		})
	}
	small, large := allocs(1<<10), allocs(1<<14)
	const doublings = 4    // 1 k → 16 k
	const perDoubling = 3  // slots, key arena, states
	const outputGrowth = 4 // the output block, 1 k → 16 k rows
	if extra := large - small; extra > doublings*perDoubling+outputGrowth {
		t.Fatalf("16 k groups allocate %.0f times, 1 k groups %.0f: %.0f more, want ≤ %d",
			large, small, extra, doublings*perDoubling+outputGrowth)
	}
}
