package recstep

import (
	"reflect"
	"testing"

	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/storage"
)

// At every worker count tc is carried on the column its recursive rule copies
// from ∆ to the head, so the task probing ∆'s partition p produces every
// repeat of the tuples it emits. Under several workers its duplicate filter
// then reaches as large a share of them as one worker's does and never gives
// up, and at every worker count its output is written into partition p
// without a scatter. Every configuration derives the staged run's tuples.
func TestOutputOwnedKeysetKeepsTheFilterHitShare(t *testing.T) {
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": graphs.GnP(300, 0.02, 41)}
	run := func(opts core.Options) *core.Result {
		t.Helper()
		res, err := core.New(opts).Run(prog, edbs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	staged := core.DefaultOptions()
	staged.Workers = 1
	staged.Dedup = exec.DedupLockMap
	staged.Partitions = 1
	want := run(staged).Relations["tc"].SortedRows()

	// shares runs every configuration under the current filter tuning and
	// returns the filter's hit share per worker count.
	shares := func(parts int) map[int]float64 {
		out := make(map[int]float64)
		for _, workers := range []int{1, 2, 4} {
			opts := core.DefaultOptions()
			opts.Workers = workers
			opts.Partitions = parts
			res := run(opts)
			if !reflect.DeepEqual(res.Relations["tc"].SortedRows(), want) {
				t.Fatalf("parts=%d workers=%d: tc diverges from the staged run", parts, workers)
			}
			s := res.Stats
			out[workers] = float64(s.Copy.DupSuppressed) / float64(s.Copy.JoinRowsExpanded)
			if want := (core.CarryChoice{Keys: []int{0}, Rule: "output"}); !reflect.DeepEqual(s.Carry["tc"], want) {
				t.Fatalf("parts=%d workers=%d: tc carried %v, want %v", parts, workers, s.Carry["tc"], want)
			}
			if workers == 1 {
				if s.Copy.OutputInPlace == 0 {
					t.Fatalf("parts=%d: one worker wrote no rows in place", parts)
				}
				continue
			}
			if s.Copy.OutputInPlace == 0 || s.Copy.DupFilterBypassed != 0 {
				t.Fatalf("parts=%d workers=%d: %d rows in place, %d bypassed windows; want some, and none",
					parts, workers, s.Copy.OutputInPlace, s.Copy.DupFilterBypassed)
			}
		}
		return out
	}

	for _, parts := range []int{16, 64} {
		shares(parts)
		// The shipped tuning borrows a filter only after a worker has emitted
		// 2^16 rows in one join, which on an input this small is decided by
		// how the rows split between workers. Borrowing from the first window
		// on, with no minimum, measures what the keyset gives the filter.
		restore := exec.SetDupFilterTuningForTest(1, 0)
		reach := shares(parts)
		restore()
		for _, workers := range []int{2, 4} {
			if reach[workers] < 0.9*reach[1] {
				t.Fatalf("parts=%d workers=%d: filter hit share %.3f, under 0.9 × the one-worker share %.3f",
					parts, workers, reach[workers], reach[1])
			}
		}
	}
}
