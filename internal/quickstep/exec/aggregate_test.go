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
// and 64 partitions, against the naive map.
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
		want := referenceAggregate(in, groupBy, aggs)
		for _, workers := range []int{1, 4} {
			for _, parts := range []int{1, 16, 64} {
				t.Run(fmt.Sprintf("width%d-w%d-parts%d", width, workers, parts), func(t *testing.T) {
					pool, _ := poolOn(workers)
					got := HashAggregatePartitioned(pool, in, groupBy, aggs, parts, "agg", nil)
					if !reflect.DeepEqual(got.SortedRows(), want) {
						t.Fatalf("partitioned aggregate diverges from the reference (%d vs %d rows)", got.NumTuples(), len(want)/(width+len(aggs)))
					}
					got.Release()
					if parts == 1 {
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
}

// TestGroupTableForcedGrowth starts a table at its minimum size and inserts
// 100 k distinct groups, each twice: every group keeps its index and key
// across all the doublings, and a repeat never creates a group.
func TestGroupTableForcedGrowth(t *testing.T) {
	const n = 100_000
	tab := NewGroupTable(2)
	key := func(i int) []int32 { return []int32{int32(i) * -7919, int32(i % 3)} }
	for i := 0; i < n; i++ {
		if g, fresh := tab.Insert(key(i)); g != i || !fresh {
			t.Fatalf("insert %d: group %d fresh=%v", i, g, fresh)
		}
		if i%2 == 0 {
			if g, fresh := tab.Insert(key(i / 2)); g != i/2 || fresh {
				t.Fatalf("repeat %d: group %d fresh=%v", i/2, g, fresh)
			}
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(tab.Key(i), key(i)) {
			t.Fatalf("group %d key = %v, want %v", i, tab.Key(i), key(i))
		}
		if g, fresh := tab.Insert(key(i)); g != i || fresh {
			t.Fatalf("lookup %d after growth: group %d fresh=%v", i, g, fresh)
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
