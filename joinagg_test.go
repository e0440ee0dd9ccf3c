package recstep

import (
	"reflect"
	"testing"

	"recstep/internal/baselines/native"
	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// A recursive MIN folds its candidate join where the probe produces it: the
// join's output is never written out. At one worker the pool peak of cc and
// sssp must stay under half the bytes the largest step's join output would
// take as four-column rows (it was that output, whole, when the join was
// materialized and then aggregated). At one and two workers every join row
// must reach an aggregate, and nothing else but the rows of the aggregates
// over a single relation (the base rules and the final MIN), so AggRowsIn =
// JoinRowsExpanded + those rows; and the results are baselines/native's. The
// two-worker pool peak is held to the one-worker one by
// TestWorkersDoNotRaiseThePoolPeak.
func TestJoinFedAggregatesNeverMaterializeTheJoin(t *testing.T) {
	rmat := graphs.RMAT(16384, 65536, 35)
	cases := []struct {
		program, pred string
		edbs          func() map[string]*storage.Relation
		want          func(edbs map[string]*storage.Relation) *storage.Relation
		// singleTable is the rows the program's aggregates over one relation
		// fold: the base rule's input and the recursive relation, read once
		// by the final MIN.
		singleTable func(edbs map[string]*storage.Relation, res *core.Result) int
	}{
		{"cc", "cc2",
			func() map[string]*storage.Relation {
				return map[string]*storage.Relation{"arc": graphs.Undirected(rmat)}
			},
			func(edbs map[string]*storage.Relation) *storage.Relation { return native.CC(edbs["arc"], 2) },
			func(edbs map[string]*storage.Relation, res *core.Result) int {
				return edbs["arc"].NumTuples() + res.Relations["cc3"].NumTuples()
			}},
		{"sssp", "sssp",
			func() map[string]*storage.Relation {
				return map[string]*storage.Relation{"arc": graphs.Weighted(rmat, 100, 7), "id": graphs.SingleSource(0)}
			},
			func(edbs map[string]*storage.Relation) *storage.Relation { return native.SSSP(edbs["arc"], 0, 2) },
			func(edbs map[string]*storage.Relation, res *core.Result) int {
				return edbs["id"].NumTuples() + res.Relations["sssp2"].NumTuples()
			}},
	}
	for _, c := range cases {
		prog, err := programs.Get(c.program)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			edbs := c.edbs()
			want := c.want(edbs).SortedRows()
			opts := core.DefaultOptions()
			opts.Workers = workers
			var largest int64
			opts.IterHook = func(ii core.IterInfo) { largest = max(largest, ii.Copy.JoinRowsExpanded) }
			res, err := core.New(opts).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if !reflect.DeepEqual(res.Relations[c.pred].SortedRows(), want) {
				t.Fatalf("%s W=%d: %s differs from the baselines/native result", c.program, workers, c.pred)
			}
			single := int64(c.singleTable(edbs, res))
			if s.AggRowsIn != s.JoinRowsExpanded+single {
				t.Fatalf("%s W=%d: aggregates folded %d rows, want the %d join rows + %d rows of the single-relation aggregates",
					c.program, workers, s.AggRowsIn, s.JoinRowsExpanded, single)
			}
			joinBytes := largest * 4 * 4
			t.Logf("%s W=%d: largest step's join %d rows (%d bytes as four columns), pool peak %d bytes (%s)",
				c.program, workers, largest, joinBytes, s.Mem.PeakLive, s.Mem.PeakComposition())
			if workers == 1 && 2*s.Mem.PeakLive >= joinBytes {
				t.Fatalf("%s W=1: pool peak %d bytes (%s), want under half the largest step's join output, %d bytes",
					c.program, s.Mem.PeakLive, s.Mem.PeakComposition(), joinBytes)
			}
		}
	}
}

// A second worker must not raise cc's pool peak: at two workers arc's joins
// and its aggregate are partitioned, and they read arc where it lies — a
// scatter copy of arc kept for the whole run made the two-worker peak about
// 8× the one-worker one on cc_rmat. The two-worker peak must stay within 1.5×
// the one-worker peak, and both runs must equal baselines/native.
func TestWorkersDoNotRaiseThePoolPeak(t *testing.T) {
	prog, err := programs.Get("cc")
	if err != nil {
		t.Fatal(err)
	}
	arc := graphs.Undirected(graphs.RMAT(16384, 65536, 11))
	want := native.CC(arc, 2).SortedRows()
	peak := make(map[int]int64)
	for _, workers := range []int{1, 2} {
		opts := core.DefaultOptions()
		opts.Workers = workers
		res, err := core.New(opts).Run(prog, map[string]*storage.Relation{"arc": arc})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Relations["cc2"].SortedRows(), want) {
			t.Fatalf("W=%d: cc2 differs from the baselines/native result", workers)
		}
		peak[workers] = res.Stats.Mem.PeakLive
		t.Logf("W=%d: pool peak %d bytes (%s)", workers, res.Stats.Mem.PeakLive, res.Stats.Mem.PeakComposition())
		if workers == 2 && 2*peak[2] > 3*peak[1] {
			t.Fatalf("W=2: pool peak %d bytes (%s), over 1.5× the one-worker peak of %d bytes",
				peak[2], res.Stats.Mem.PeakComposition(), peak[1])
		}
	}
}

// A cross product counts toward the join rows expanded like a hash join's
// matches: every row it emits, before the aggregate over it folds them.
func TestCrossJoinCountsRowsExpanded(t *testing.T) {
	prog := programs.MustParse("cnt(x, COUNT(y)) :- a(x), b(y).")
	column := func(name string, vals ...int32) *storage.Relation {
		r := storage.NewRelation(name, storage.NumberedColumns(1))
		for _, v := range vals {
			r.Append([]int32{v})
		}
		return r
	}
	res, err := core.New(core.DefaultOptions()).Run(prog, map[string]*storage.Relation{
		"a": column("a", 1, 2, 3),
		"b": column("b", 10, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Relations["cnt"].SortedRows(), []int32{1, 2, 2, 2, 3, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cnt = %v, want %v", got, want)
	}
	if s := res.Stats; s.JoinRowsExpanded != 6 || s.AggRowsIn != 6 {
		t.Fatalf("3 × 2 cross product: %d rows expanded, %d folded; want 6 and 6", s.JoinRowsExpanded, s.AggRowsIn)
	}
}
