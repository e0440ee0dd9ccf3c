package recstep

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/pa"
	"recstep/internal/programs"
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

// The fused partition-native delta pipeline, and under it the choice between
// a resident set-difference index (default DSD) and the paper's transient
// OPSD/TPSD tables (forced DSD), are physical rewrites only: for every
// benchmark program, every relation it derives must be identical under
// fuse-delta on/off, at every radix fan-out, under every DSD mode.
func TestFusedMatchesStagedAcrossPrograms(t *testing.T) {
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
		if long := longTestEDBs(name); long != nil {
			inputs[name+"-long"] = long
		}
		for label, edbs := range inputs {
			t.Run(label, func(t *testing.T) {
				run := func(fuse bool, parts int, dsd core.DSDMode) (map[string][]int32, core.Stats) {
					t.Helper()
					opts := core.DefaultOptions()
					opts.Workers = 4
					opts.FuseDelta = fuse
					opts.Partitions = parts
					opts.DSD = dsd
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

				want, _ := run(false, 1, core.DSDAlwaysOPSD) // staged, unpartitioned, one-phase: the reference
				for _, fuse := range []bool{true, false} {
					for _, parts := range []int{1, 16, 64} {
						for _, dsd := range []core.DSDMode{core.DSDDynamic, core.DSDAlwaysOPSD, core.DSDAlwaysTPSD} {
							got, stats := run(fuse, parts, dsd)
							for rel, rows := range want {
								if !reflect.DeepEqual(got[rel], rows) {
									t.Fatalf("fuse=%v parts=%d dsd=%d: %s (%d rows) diverges from staged serial (%d rows)",
										fuse, parts, dsd, rel, len(got[rel]), len(rows))
								}
							}
							// Only the fused default may keep an index, and only on
							// the long instances does one pay; unpartitioned they
							// all get there (a partitioned pass re-reads just the
							// partitions ∆ lands in, so a trickle repays later).
							resident := stats.ResidentIndexHits > 0
							may := fuse && dsd == core.DSDDynamic && label != name
							if resident && !may || !resident && may && parts == 1 {
								t.Fatalf("fuse=%v parts=%d dsd=%d: resident index used=%v (%d hits)",
									fuse, parts, dsd, resident, stats.ResidentIndexHits)
							}
						}
					}
				}
			})
		}
	}
}

// With fusion enabled, a TC fixpoint must run with zero flat
// materializations of tmp/Rδ — the join output lands pre-partitioned, the
// fused delta step consumes it in place, and Rδ never exists — while the
// staged ablation pays one flat dedup materialization per iteration. This is
// the acceptance check for the partition-native pipeline, verified through
// the engine's copy-accounting counters.
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
			if fused.Stats.FlatMaterializations != 0 {
				t.Fatalf("fused pipeline performed %d flat materializations, want 0",
					fused.Stats.FlatMaterializations)
			}

			stagedOpts := fusedOpts
			stagedOpts.FuseDelta = false
			staged, err := core.New(stagedOpts).Run(prog, edbs)
			if err != nil {
				t.Fatal(err)
			}
			if staged.Stats.FlatMaterializations == 0 {
				t.Fatal("staged ablation reports zero flat materializations; the counter is not measuring")
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
	if res.Stats.TuplesAdopted < adopted {
		t.Fatalf("run total %d adopted < per-iteration sum %d", res.Stats.TuplesAdopted, adopted)
	}
}
