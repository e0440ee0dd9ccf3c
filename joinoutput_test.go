package recstep

import (
	"reflect"
	"sort"
	"testing"

	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/storage"
)

// On CSPA the joins derive every kept tuple dozens of times. With the tmp
// tables marked set-valued (the fused default) the duplicate filter must
// remove more rows than it lets through, and must change nothing the delta
// step keeps: the staged lock-map pipeline, which the rule leaves unmarked
// and whose joins therefore emit the whole bag, derives the same ∆ tuples in
// the same iterations. One worker, so the counts are exact. The input is a
// scaled-down cspa_mutual (CSPA's generator) with half again as many
// assignments per variable and a dereference on every variable instead of
// every third: rule splitting projects the dead join variables away before
// the joins, which at cspa_mutual's own density leaves fewer duplicates than
// kept rows for the filter to catch.
func TestCSPAJoinOutputIsMostlySuppressedDuplicates(t *testing.T) {
	prog, err := programs.Get("cspa")
	if err != nil {
		t.Fatal(err)
	}
	edbs := pa.CSPASized(pa.CSPAConfig{Vars: 200, AssignPer: 20, DerefRatio: 1, Seed: 13})
	run := func(dedup exec.DedupStrategy) core.Stats {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Workers = 1
		opts.Dedup = dedup
		res, err := core.New(opts).Run(prog, edbs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	fused, staged := run(exec.DedupGSCHT), run(exec.DedupLockMap)
	if staged.DupSuppressed != 0 || staged.DupFilterBypassed != 0 {
		t.Fatalf("staged pipeline is unmarked but its joins filtered: %d suppressed, %d windows bypassed",
			staged.DupSuppressed, staged.DupFilterBypassed)
	}
	if fused.DeltaTuples != staged.DeltaTuples || fused.Iterations != staged.Iterations {
		t.Fatalf("set-valued tmp changed the fixpoint: %d ∆ tuples in %d iterations, staged %d in %d",
			fused.DeltaTuples, fused.Iterations, staged.DeltaTuples, staged.Iterations)
	}
	if fused.JoinRowsExpanded != staged.JoinRowsExpanded {
		t.Fatalf("joins expanded %d rows fused, %d staged: the mark changed what the joins compute",
			fused.JoinRowsExpanded, staged.JoinRowsExpanded)
	}
	if fused.DupSuppressed <= fused.TmpTuples {
		t.Fatalf("filter dropped %d rows and let %d reach tmp (of %d expanded): CSPA's duplicates are not being caught",
			fused.DupSuppressed, fused.TmpTuples, fused.JoinRowsExpanded)
	}
	if staged.TmpTuples <= 4*fused.TmpTuples {
		t.Fatalf("tmp tables held %d rows fused against %d staged", fused.TmpTuples, staged.TmpTuples)
	}
	t.Logf("expanded %d, suppressed %d, reached tmp %d (staged %d), kept %d",
		fused.JoinRowsExpanded, fused.DupSuppressed, fused.TmpTuples, staged.TmpTuples, fused.DeltaTuples)
}

// A recursive aggregate must see every candidate: MIN over a bag and over
// its set agree, but COUNT and SUM would not, and the rule is by consumer,
// not by function. No step of an aggregate IDB may report a suppressed row,
// even with the filter forced to engage at the first window.
func TestRecursiveAggregatesNeverSeeTheFilter(t *testing.T) {
	t.Cleanup(exec.SetDupFilterTuningForTest(1, 0))
	arc := graphs.GnP(300, 0.03, 5)
	inputs := map[string]map[string]*storage.Relation{
		"cc":   {"arc": graphs.Undirected(arc)},
		"sssp": {"arc": graphs.Weighted(arc, 100, 7), "id": graphs.SingleSource(0)},
	}
	for name, edbs := range inputs {
		prog, err := programs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Workers = 2
		steps, expanded := 0, int64(0)
		opts.IterHook = func(ii core.IterInfo) {
			steps++
			expanded += ii.Copy.JoinRowsExpanded
			if ii.Copy.DupSuppressed != 0 || ii.Copy.DupFilterBypassed != 0 {
				t.Errorf("%s: stratum %d iteration %d %s: %d rows suppressed, %d windows bypassed on an aggregate's input",
					name, ii.Stratum, ii.Iteration, ii.Pred, ii.Copy.DupSuppressed, ii.Copy.DupFilterBypassed)
			}
		}
		res, err := core.New(opts).Run(prog, edbs)
		if err != nil {
			t.Fatal(err)
		}
		if steps == 0 || expanded == 0 || res.Stats.DupSuppressed != 0 {
			t.Fatalf("%s: %d steps, %d join rows, %d suppressed over the run", name, steps, expanded, res.Stats.DupSuppressed)
		}
	}
}

// The set-valued mark is a physical hint only. Every benchmark program, at
// every radix fan-out, at one and four workers, with the filter forced to
// engage at the first full window and never to switch off, must derive
// tuple for tuple what the staged lock-map pipeline — unmarked, so its joins
// emit the full bag — derives.
func TestSetValuedJoinOutputMatchesStagedAcrossPrograms(t *testing.T) {
	t.Cleanup(exec.SetDupFilterTuningForTest(1, 0))
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	suppressed := make(map[string]int64)
	for _, name := range names {
		prog, err := programs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		edbs := fuseTestEDBs(name)
		run := func(dedup exec.DedupStrategy, parts, workers int) (map[string][]int32, core.Stats) {
			t.Helper()
			opts := core.DefaultOptions()
			opts.Workers = workers
			opts.Dedup = dedup
			opts.Partitions = parts
			res, err := core.New(opts).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			out := make(map[string][]int32, len(res.Relations))
			for rel, r := range res.Relations {
				out[rel] = r.SortedRows()
			}
			return out, res.Stats
		}
		want, ref := run(exec.DedupLockMap, 1, 1)
		if ref.DupSuppressed != 0 {
			t.Fatalf("%s: the staged reference filtered %d rows", name, ref.DupSuppressed)
		}
		for _, parts := range []int{1, 16, 64} {
			for _, workers := range []int{1, 4} {
				got, stats := run(exec.DedupGSCHT, parts, workers)
				for rel, rows := range want {
					if !reflect.DeepEqual(got[rel], rows) {
						t.Fatalf("%s parts=%d workers=%d: %s diverges from the staged run (%d values against %d)",
							name, parts, workers, rel, len(got[rel]), len(rows))
					}
				}
				suppressed[name] += stats.DupSuppressed
			}
		}
	}
	for _, name := range []string{"tc", "sg", "reach", "cspa", "aa"} {
		if suppressed[name] == 0 {
			t.Fatalf("%s: the forced filter never dropped a row, so the equivalence above compared nothing (%v)", name, suppressed)
		}
	}
}
