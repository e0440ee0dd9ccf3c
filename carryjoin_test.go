package recstep

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"recstep/internal/core"
	"recstep/internal/datalog/querygen"
	"recstep/internal/graphs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// Join-key-carried partitionings are a physical rewrite only. Every row of
// the equivalence table carries keysets; naive evaluation carries nothing,
// so every build it runs re-scatters its input and every join output is
// scattered afresh. At every radix fan-out it must derive what the staged
// lock-map run derives, and it must not write join output in place.
func TestCarriedMatchesRescatterAcrossPrograms(t *testing.T) {
	matchAcrossPrograms(t, false, func(base core.Options, _ bool) []equivArm {
		var arms []equivArm
		for _, parts := range testFanouts {
			opts := base
			opts.Naive = true
			opts.Partitions = parts
			what := fmt.Sprintf("parts=%d naive", parts)
			arms = append(arms, equivArm{what: what, opts: opts, check: func(t *testing.T, stats core.Stats) {
				t.Helper()
				if stats.Copy.OutputInPlace != 0 {
					t.Fatalf("%s: %d rows written in place; naive evaluation carries nothing",
						what, stats.Copy.OutputInPlace)
				}
			}})
		}
		return arms
	})
}

// A TC fixpoint routes the delta's rows for a join build only when the
// carried keyset is not the build's. tc is carried on its pass-through column
// at every worker count, and arc, which the fixpoint never writes, builds in
// the first iteration and is cached: ∆ never builds, the one permissible
// routed build is arc's, and every later iteration probes the cached table with ∆
// and writes its join output in place. Naive evaluation carries nothing: it
// must write no output in place and scatter more tuples — otherwise the
// counters measure nothing.
func TestCarriedZeroDeltaBuildScatters(t *testing.T) {
	arc := graphs.GnP(150, 0.05, 23)
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": arc}

	// run returns the run's stats and how many of its iterations built a
	// hash table over ∆.
	run := func(workers int, naive bool) (core.Stats, int) {
		opts := core.DefaultOptions()
		opts.Workers = workers
		opts.Partitions = 16
		opts.Naive = naive
		deltaBuilds := 0
		opts.IterHook = func(ii core.IterInfo) {
			for key := range ii.Copy.BuildDetail {
				if strings.HasPrefix(key, querygen.DeltaTable("tc")+"[") {
					deltaBuilds++
				}
			}
		}
		res, err := core.New(opts).Run(prog, edbs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats, deltaBuilds
	}

	for _, workers := range []int{1, 4} {
		carried, deltaBuilds := run(workers, false)
		if arcBuilds := carried.Copy.BuildDetail["arc[0]"].FromBlocks; arcBuilds > 1 {
			t.Fatalf("W=%d: arc was routed by %d builds, want ≤ 1 (its cache fill)", workers, arcBuilds)
		}
		if carried.Copy.BuildScatters > int64(1+deltaBuilds) {
			t.Fatalf("W=%d: carried run paid %d join-build scatters, want ≤ 1 + %d (arc's cache fill, one per ∆ build)",
				workers, carried.Copy.BuildScatters, deltaBuilds)
		}
		if deltaBuilds != 0 || carried.Copy.CachedBuildHits == 0 {
			t.Fatalf("W=%d: %d iterations built over ∆ and %d joins probed arc's cached table; want none, and some",
				workers, deltaBuilds, carried.Copy.CachedBuildHits)
		}
		naive, _ := run(workers, true)
		if carried.Copy.OutputInPlace == 0 || naive.Copy.OutputInPlace != 0 {
			t.Fatalf("W=%d: join output written in place: %d carried, %d under naive evaluation; want some, and none",
				workers, carried.Copy.OutputInPlace, naive.Copy.OutputInPlace)
		}
		if carried.Copy.Scattered >= naive.Copy.Scattered {
			t.Fatalf("W=%d: carried run scattered %d tuples, naive evaluation %d",
				workers, carried.Copy.Scattered, naive.Copy.Scattered)
		}
	}
}

// The carried keyset is chosen per stratum from the rules alone, reported in
// Stats.Carry, and is what R ends the run carrying. A linear predicate whose
// recursive rule copies column 0 of its body atom to the head (tc, csda's
// null) is carried on that column at every worker count; predicates without
// such a column keep their top-ranked join keyset, the only one carried; the
// state of a recursive aggregate is the merge's own layout on its group
// column.
func TestCarriedKeysetIsJoinKeyed(t *testing.T) {
	cases := []struct {
		program, pred string
		workers       int
		keys          []int
		rule          string
	}{
		{"tc", "tc", 4, []int{0}, "output"},
		{"tc", "tc", 1, []int{0}, "output"},
		{"csda", "null", 4, []int{0}, "output"},
		{"csda", "null", 1, []int{0}, "output"},
		{"cspa", "valueFlow", 4, []int{0}, "join"},
		{"cspa", "valueFlow", 1, []int{0}, "join"},
		{"aa", "pointsTo", 4, []int{0}, "join"},
		{"sg", "sg", 4, []int{0}, "join"},
		{"reach", "reach", 4, []int{0}, "join"},
		{"cc", "cc3", 4, []int{0}, ""},
		{"sssp", "sssp2", 4, []int{0}, ""},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/W%d", c.program, c.workers), func(t *testing.T) {
			prog, err := programs.Get(c.program)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Workers = c.workers
			opts.Partitions = 16
			res, err := core.New(opts).Run(prog, fuseTestEDBs(c.program))
			if err != nil {
				t.Fatal(err)
			}
			choice, reported := res.Stats.Carry[c.pred]
			if c.rule == "" {
				if reported {
					t.Fatalf("aggregate state %s reported as carried: %v", c.pred, choice)
				}
			} else if want := (core.CarryChoice{Keys: c.keys, Rule: c.rule}); !reflect.DeepEqual(choice, want) {
				t.Fatalf("%s carry choice %v, want %v", c.pred, choice, want)
			}
			rel := res.Relations[c.pred]
			p, ok := rel.Partitioning()
			if !ok || !reflect.DeepEqual(p.KeyCols, c.keys) || p.Parts != 16 {
				t.Fatalf("%s carries %v at fixpoint, want keyset %v over 16 partitions", c.pred, p, c.keys)
			}
		})
	}
}

// A predicate whose recursive joins build on conflicting keysets carries
// only the top-ranked one, and a build on the runner-up keyset always takes
// the re-scatter fallback; a linear predicate is carried on its pass-through
// columns instead, and a build on its join keys falls back to a re-scatter.
// The plan is the one four workers run (the rows of
// TestFusedMatchesStagedAcrossPrograms); these are its one-worker rows, which
// at every radix fan-out under every DSD mode must derive what the staged
// lock-map run derives.
func TestSecondaryCarryMatchesFallbackAcrossPrograms(t *testing.T) {
	matchAcrossPrograms(t, true, dsdSweep(1))
}

// Recursive aggregates ride the same machinery: with the partition-parallel
// merge the CC state, ∆R and the materialized relation are bucketed on the
// group column, and the equivalence with the serial merge (one partition)
// must be exact.
func TestAggMergePartitionedMatchesSerial(t *testing.T) {
	arc := graphs.Undirected(graphs.GnP(150, 0.04, 31))
	for _, name := range []string{"cc", "sssp"} {
		t.Run(name, func(t *testing.T) {
			prog, err := programs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			edbs := map[string]*storage.Relation{"arc": arc}
			if name == "sssp" {
				edbs = map[string]*storage.Relation{
					"arc": graphs.Weighted(graphs.GnP(150, 0.04, 31), 100, 7),
					"id":  graphs.SingleSource(0),
				}
			}
			var want map[string][]int32
			for _, parts := range []int{1, 16, 64} {
				opts := core.DefaultOptions()
				opts.Workers = 4
				opts.Partitions = parts
				res, err := core.New(opts).Run(prog, edbs)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[string][]int32)
				for rel, r := range res.Relations {
					got[rel] = r.SortedRows()
				}
				if want == nil {
					want = got
					continue
				}
				for rel, rows := range want {
					if !reflect.DeepEqual(got[rel], rows) {
						t.Fatalf("parts=%d: %s diverges from serial merge (%d vs %d rows)",
							parts, rel, len(got[rel])/2, len(rows)/2)
					}
				}
			}
		})
	}
}

// Spilling composes with join-key-carried partitionings: a budgeted TC run
// whose carried partitions are keyed on the join column must still spill,
// fault transparently, and converge to the unbudgeted result.
func TestCarriedKeyedPartitionsSpillRoundTrip(t *testing.T) {
	arc := graphs.GnP(200, 0.04, 37)
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": arc}

	free := core.DefaultOptions()
	free.Workers = 4
	free.Partitions = 16
	ref, err := core.New(free).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}

	tight := free
	tight.MemBudgetBytes = 1 << 20
	tight.SpillDir = t.TempDir()
	got, err := core.New(tight).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Mem.Spills == 0 {
		t.Skip("budget did not trigger spilling at this scale")
	}
	if !reflect.DeepEqual(got.Relations["tc"].SortedRows(), ref.Relations["tc"].SortedRows()) {
		t.Fatal("budgeted keyed-carried run diverges from unbudgeted result")
	}
	t.Logf("spills=%d faults=%d", got.Stats.Mem.Spills, got.Stats.Mem.Faults)
}
