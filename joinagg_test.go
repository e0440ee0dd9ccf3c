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
// pool is not checked at two workers: there the partitioned view of arc that
// the base rule's aggregate caches is in the same category and sets the peak.
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
