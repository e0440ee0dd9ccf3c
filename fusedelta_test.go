package recstep

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"recstep/internal/baselines/native"
	"recstep/internal/core"
	"recstep/internal/datalog/ast"
	"recstep/internal/graphs"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/storage"
)

// fuseTestEDBs builds a small input instance for every benchmark program
// (programs.ByName mirrors programs/*.datalog — enforced by the programs
// package's file-sync test).
func fuseTestEDBs(program string) map[string]*storage.Relation {
	arc := graphs.GnP(70, 0.05, 17)
	switch program {
	case "tc", "sg", "ntc", "gtc":
		return map[string]*storage.Relation{"arc": arc}
	case "cc":
		return map[string]*storage.Relation{"arc": graphs.Undirected(arc)}
	case "reach":
		return map[string]*storage.Relation{"arc": arc, "id": graphs.SingleSource(0)}
	case "sssp":
		return map[string]*storage.Relation{
			"arc": graphs.Weighted(arc, 100, 7),
			"id":  graphs.SingleSource(0),
		}
	case "aa", "aawide":
		return pa.AndersenSized(80, 3)
	case "tri", "clique4":
		return map[string]*storage.Relation{"arc": graphs.Undirected(graphs.GnP(60, 0.12, 19))}
	case "cspa":
		return pa.CSPASized(pa.CSPAConfig{Vars: 120, AssignPer: 5, DerefRatio: 3, Seed: 13})
	case "csda":
		return pa.CSDASized(4, 60, 4, 3)
	}
	panic("no EDB builder for program " + program)
}

// longTestEDBs builds, for the programs whose input can be stretched, an
// instance whose fixpoint runs several times optimizer.ResidentAmortise
// iterations: a long path under the random graph, long dataflow chains. On
// these the default configuration seeds a resident set-difference index and
// caches join builds on the base relations part-way through; the small
// instances of fuseTestEDBs converge before either pays.
func longTestEDBs(program string) map[string]*storage.Relation {
	const path = 150
	arc := graphs.GnP(40, 0.05, 17)
	for i := 0; i < path; i++ {
		arc.Append([]int32{int32(100 + i), int32(101 + i)})
	}
	switch program {
	case "tc", "ntc", "gtc":
		return map[string]*storage.Relation{"arc": arc}
	case "reach":
		return map[string]*storage.Relation{"arc": arc, "id": graphs.SingleSource(100)}
	case "csda":
		return pa.CSDASized(4, 200, 4, 3)
	}
	return nil
}

// equivArm is one configuration of the across-programs equivalence table.
type equivArm struct {
	what string
	opts core.Options
	// rewrite, when set, replaces the program the arm runs.
	rewrite func(*ast.Program) *ast.Program
	// renamed, when set, maps each relation the arm derives back to the name
	// the program as written gives it.
	renamed func(rel string) string
	// check, when set, inspects the arm's run statistics.
	check func(t *testing.T, stats core.Stats)
	// only, when set, lists the programs the arm runs on.
	only []string
	// native also checks the arm against baselines/native, for the programs
	// it has an evaluator for.
	native bool
}

// testFanouts are the radix fan-outs every row of the equivalence table
// covers: the single shared table, and two partitioned builds.
var testFanouts = []int{1, 16, 64}

// matchAcrossPrograms is the across-programs equivalence table. Every
// physical choice the engine makes is a rewrite only, so for every benchmark
// program (and, with long, the stretched inputs on which resident structures
// pay) every relation an arm derives must be identical to the staged
// lock-map run: unpartitioned, one-phase set difference, four workers. arms
// receives that four-worker default configuration and whether the input is
// a stretched one; the tests below split the table's rows by the mechanism
// each row exercises.
func matchAcrossPrograms(t *testing.T, long bool, arms func(base core.Options, long bool) []equivArm) {
	t.Helper()
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		prog, err := programs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string]map[string]*storage.Relation{name: fuseTestEDBs(name)}
		if stretched := longTestEDBs(name); long && stretched != nil {
			inputs[name+"-long"] = stretched
		}
		for label, edbs := range inputs {
			t.Run(label, func(t *testing.T) {
				run := func(prog *ast.Program, opts core.Options) (map[string][]int32, core.Stats) {
					t.Helper()
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
				base := core.DefaultOptions()
				base.Workers = 4
				var rows []equivArm
				for _, arm := range arms(base, label != name) {
					if arm.only == nil || slices.Contains(arm.only, name) {
						rows = append(rows, arm)
					}
				}
				if len(rows) == 0 {
					return
				}

				ref := base
				ref.Dedup = exec.DedupLockMap
				ref.Partitions = 1
				ref.DSD = core.DSDAlwaysOPSD
				want, _ := run(prog, ref)
				for _, arm := range rows {
					armProg := prog
					if arm.rewrite != nil {
						armProg = arm.rewrite(prog)
					}
					got, stats := run(armProg, arm.opts)
					if arm.renamed != nil {
						named := make(map[string][]int32, len(got))
						for rel, rows := range got {
							named[arm.renamed(rel)] = rows
						}
						got = named
					}
					for rel, rows := range want {
						if !reflect.DeepEqual(got[rel], rows) {
							t.Fatalf("%s: %s (%d values) diverges from the staged lock-map run (%d values)",
								arm.what, rel, len(got[rel]), len(rows))
						}
					}
					if arm.native {
						for rel, r := range nativeRelations(t, name, edbs) {
							if rows := r.SortedRows(); !reflect.DeepEqual(got[rel], rows) {
								t.Fatalf("%s: %s (%d values) diverges from baselines/native (%d values)",
									arm.what, rel, len(got[rel]), len(rows))
							}
						}
					}
					if arm.check != nil {
						arm.check(t, stats)
					}
				}
			})
		}
	}
}

// dsdSweep is the table's rows at one worker count: every radix fan-out
// under every DSD mode, checking that only the default DSD keeps a resident
// set-difference index, and only where one pays.
func dsdSweep(workers int) func(base core.Options, long bool) []equivArm {
	return func(base core.Options, long bool) []equivArm {
		var arms []equivArm
		for _, parts := range testFanouts {
			for _, dsd := range []core.DSDMode{core.DSDDynamic, core.DSDAlwaysOPSD, core.DSDAlwaysTPSD} {
				opts := base
				opts.Workers, opts.Partitions, opts.DSD = workers, parts, dsd
				what := fmt.Sprintf("parts=%d dsd=%d workers=%d", parts, dsd, workers)
				arms = append(arms, equivArm{what: what, opts: opts, check: func(t *testing.T, stats core.Stats) {
					t.Helper()
					// Only the default DSD may keep an index, and only on the
					// long instances does one pay; unpartitioned they all get
					// there (a partitioned pass re-reads just the partitions ∆
					// lands in, so a trickle repays later).
					resident := stats.Copy.ResidentIndexHits > 0
					may := dsd == core.DSDDynamic && long
					if resident && !may || !resident && may && parts == 1 {
						t.Fatalf("%s: resident index used=%v (%d hits)", what, resident, stats.Copy.ResidentIndexHits)
					}
				}})
			}
		}
		return arms
	}
}

// The fused partition-native delta step, and under it the choice between a
// resident set-difference index (default DSD) and the paper's transient
// OPSD/TPSD tables (forced DSD), against the staged lock-map pipeline: at
// four workers, at every radix fan-out, under every DSD mode. Inside these
// runs sit carried keysets, greedy join order and the leapfrog join.
func TestFusedMatchesStagedAcrossPrograms(t *testing.T) {
	matchAcrossPrograms(t, true, dsdSweep(4))
}

// nativeRelations returns what baselines/native derives from edbs for a
// program it has an evaluator for, keyed by relation name; nil otherwise.
// reach and sssp start from the one vertex the input's id relation holds.
func nativeRelations(t *testing.T, program string, edbs map[string]*storage.Relation) map[string]*storage.Relation {
	t.Helper()
	const workers = 4
	source := func() int32 {
		t.Helper()
		id := edbs["id"]
		if id == nil || id.NumTuples() != 1 {
			t.Fatalf("%s: the id relation must hold exactly one source vertex", program)
		}
		return id.Rows()[0]
	}
	switch program {
	case "tc":
		return map[string]*storage.Relation{"tc": native.TC(edbs["arc"], workers)}
	case "reach":
		return map[string]*storage.Relation{"reach": native.Reach(edbs["arc"], source(), workers)}
	case "sg":
		return map[string]*storage.Relation{"sg": native.SG(edbs["arc"], workers)}
	case "cc":
		return map[string]*storage.Relation{"cc2": native.CC(edbs["arc"], workers)}
	case "sssp":
		return map[string]*storage.Relation{"sssp": native.SSSP(edbs["arc"], source(), workers)}
	case "aa":
		return map[string]*storage.Relation{"pointsTo": native.Andersen(edbs, workers)}
	case "cspa":
		r := native.CSPA(edbs, workers)
		return map[string]*storage.Relation{"valueFlow": r.ValueFlow, "memoryAlias": r.MemoryAlias, "valueAlias": r.ValueAlias}
	case "csda":
		return map[string]*storage.Relation{"null": native.CSDA(edbs, workers)}
	}
	return nil
}

// The stretched inputs against baselines/native: the default run derives
// what the native evaluators derive, and on reach's stretched input the
// source vertex is 100, the head of the long path, not vertex 0.
func TestNativeMatchesStretchedInputs(t *testing.T) {
	matchAcrossPrograms(t, true, func(base core.Options, long bool) []equivArm {
		if !long {
			return nil
		}
		return []equivArm{{what: "default, stretched input", opts: base, native: true}}
	})
}

// Individual evaluation (UIE off, Figure 4's ablation) runs each live arm
// of a bound unit as its own query into a part table, then merges the part
// tables into tmp. On the programs whose arms skip on an empty ∆ (cspa, aa,
// csda, sg) or that aggregate (cc) it must derive, at every radix fan-out,
// what the staged lock-map run and baselines/native derive.
func TestIndividualEvaluationMatchesNativeAcrossPrograms(t *testing.T) {
	matchAcrossPrograms(t, false, func(base core.Options, _ bool) []equivArm {
		var arms []equivArm
		for _, parts := range testFanouts {
			opts := base
			opts.UIE = false
			opts.Partitions = parts
			arms = append(arms, equivArm{
				what:   fmt.Sprintf("parts=%d uie=false", parts),
				opts:   opts,
				only:   []string{"aa", "cc", "csda", "cspa", "sg"},
				native: true,
			})
		}
		return arms
	})
}

// The engine's kernels against references that share none of them: at
// every radix fan-out, the default run and the staged lock-map run of each
// program with a native evaluator (tc, reach, sg, cc, sssp, Andersen, cspa,
// csda) derive exactly what baselines/native derives, and every program's
// default run derives every relation the staged run does.
func TestDefaultMatchesStagedAndNativeAcrossPrograms(t *testing.T) {
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			prog, err := programs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			edbs := fuseTestEDBs(name)
			want := nativeRelations(t, name, edbs)
			run := func(opts core.Options) map[string][]int32 {
				t.Helper()
				res, err := core.New(opts).Run(prog, edbs)
				if err != nil {
					t.Fatal(err)
				}
				out := make(map[string][]int32, len(res.Relations))
				for rel, r := range res.Relations {
					out[rel] = r.SortedRows()
				}
				return out
			}
			for _, parts := range testFanouts {
				def := core.DefaultOptions()
				def.Workers, def.Partitions = 4, parts
				staged := def
				staged.Dedup, staged.DSD = exec.DedupLockMap, core.DSDAlwaysOPSD
				got, ref := run(def), run(staged)
				for rel, rows := range ref {
					if !reflect.DeepEqual(got[rel], rows) {
						t.Fatalf("parts=%d: default %s (%d values) diverges from the staged lock-map run (%d values)",
							parts, rel, len(got[rel]), len(rows))
					}
				}
				for rel, r := range want {
					rows := r.SortedRows()
					if !reflect.DeepEqual(got[rel], rows) || !reflect.DeepEqual(ref[rel], rows) {
						t.Fatalf("parts=%d: %s has %d values in the default run, %d in the staged lock-map run, %d natively",
							parts, rel, len(got[rel]), len(ref[rel]), len(rows))
					}
				}
			}
		})
	}
}

// Under the default GSCHT dedup a TC fixpoint must run with zero flat
// materializations of tmp/Rδ — the join output lands pre-partitioned, the
// fused delta step consumes it in place, and Rδ never exists — while the
// staged lock-map pipeline pays one flat dedup materialization per iteration.
// This is the acceptance check for the partition-native pipeline, verified
// through the engine's copy-accounting counters.
func TestFusedPipelineZeroFlatMaterializations(t *testing.T) {
	arc := graphs.GnP(150, 0.05, 23)
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": arc}

	for _, parts := range []int{0, 16} { // 0 = optimizer-chosen fan-out
		t.Run(fmt.Sprintf("partitions-%d", parts), func(t *testing.T) {
			fusedOpts := core.DefaultOptions()
			fusedOpts.Workers = 4
			fusedOpts.Partitions = parts
			fused, err := core.New(fusedOpts).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			if fused.Stats.Copy.FlatMats != 0 {
				t.Fatalf("fused pipeline performed %d flat materializations, want 0",
					fused.Stats.Copy.FlatMats)
			}

			stagedOpts := fusedOpts
			stagedOpts.Dedup = exec.DedupLockMap
			staged, err := core.New(stagedOpts).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			if staged.Stats.Copy.FlatMats == 0 {
				t.Fatal("staged lock-map run reports zero flat materializations; the counter is not measuring")
			}
			if !reflect.DeepEqual(fused.Relations["tc"].SortedRows(), staged.Relations["tc"].SortedRows()) {
				t.Fatal("fused and staged tc diverge")
			}
		})
	}
}

// Per-iteration copy accounting must be visible through the IterHook so
// experiments can attribute movement to individual fixpoint steps.
func TestIterHookReportsCopyAccounting(t *testing.T) {
	arc := graphs.GnP(120, 0.05, 29)
	prog := programs.MustParse(programs.TC)
	opts := core.DefaultOptions()
	opts.Workers = 4
	opts.Partitions = 16
	var adopted int64
	opts.IterHook = func(ii core.IterInfo) {
		adopted += ii.Copy.Adopted
		if ii.Copy.FlatMats != 0 {
			t.Errorf("iter %d: fused pipeline reported %d flat materializations", ii.Iteration, ii.Copy.FlatMats)
		}
	}
	res, err := core.New(opts).Run(prog, map[string]*storage.Relation{"arc": arc})
	if err != nil {
		t.Fatal(err)
	}
	if adopted == 0 {
		t.Fatal("no adopted tuples reported through IterHook")
	}
	if res.Stats.Copy.Adopted < adopted {
		t.Fatalf("run total %d adopted < per-iteration sum %d", res.Stats.Copy.Adopted, adopted)
	}
}

// A fixpoint appends to its full relations every iteration while later
// delta steps re-read the blocks earlier ones sealed: a TC run at 16
// partitions and 4 workers must agree with the native closure tuple for
// tuple.
func TestColumnarSlabCoherentUnderAppends(t *testing.T) {
	arc := graphs.GnP(200, 0.04, 11)
	prog := programs.MustParse(programs.TC)

	opts := core.DefaultOptions()
	opts.Workers = 4
	opts.Partitions = 16
	res, err := core.New(opts).Run(prog, map[string]*storage.Relation{"arc": arc})
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Relations["tc"].SortedRows(), native.TC(arc, 4).SortedRows()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the engine derives %d tc rows, the native closure %d",
			len(got)/2, len(want)/2)
	}
}
