// Benchmarks regenerating each table and figure of the paper's evaluation
// (docs/BENCHMARKS.md, "Running benchrunner", lists the exhibits). Every
// BenchmarkFigN/BenchmarkTableN
// measures the workload behind the corresponding exhibit at bench scale;
// `go run ./cmd/benchrunner all` prints the full rows/series.
package recstep

import (
	"fmt"
	"testing"

	"recstep/internal/baselines/bigdatalog"
	"recstep/internal/baselines/native"
	"recstep/internal/bitmatrix"
	"recstep/internal/core"
	"recstep/internal/experiments"
	"recstep/internal/graphs"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/memory"
	"recstep/internal/quickstep/optimizer"
	"recstep/internal/quickstep/stats"
	"recstep/internal/quickstep/storage"
)

var benchCfg = experiments.Config{Quick: true, Workers: 0}

func benchRun(b *testing.B, engine experiments.Engine, w experiments.Workload) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.Run(engine, w, benchCfg)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		b.ReportMetric(float64(r.Tuples), "tuples")
	}
}

// BenchmarkTable4CPUEfficiency measures the workloads behind the CPU
// efficiency table (ce = 1/(t·n)) for the RecStep engine.
func BenchmarkTable4CPUEfficiency(b *testing.B) {
	for _, w := range []experiments.Workload{
		experiments.TCWorkload(experiments.GnpSpec{Label: "G200", N: 200, P: 0.05}),
		experiments.RMATWorkload("cc", 1<<11),
		experiments.CSPAWorkload("httpd", benchCfg),
	} {
		b.Run(w.Name, func(b *testing.B) { benchRun(b, experiments.RecStep, w) })
	}
}

// BenchmarkFig2Ablation measures CSPA under every optimization-ablation
// configuration of Figure 2.
func BenchmarkFig2Ablation(b *testing.B) {
	w := experiments.CSPAWorkload("httpd", benchCfg)
	prog := programs.MustParse(programs.CSPA)
	for _, cfgc := range experiments.AblationConfigs(0) {
		opts := cfgc.Opts
		opts.DisableIO = true // pure-compute comparison in benches
		b.Run(cfgc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(opts).Run(prog, w.EDBs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3MemoryAblation reports the peak heap of the two extreme
// Figure 3 configurations.
func BenchmarkFig3MemoryAblation(b *testing.B) {
	w := experiments.CSPAWorkload("httpd", benchCfg)
	for _, e := range []experiments.Engine{experiments.RecStep, experiments.Naive} {
		b.Run(string(e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunSampled(e, w, benchCfg)
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				b.ReportMetric(float64(r.PeakHeap)/(1<<20), "peakMiB")
			}
		})
	}
}

// BenchmarkFig4UIE compares unified vs individual IDB evaluation (the
// execution behaviour behind Figure 4's two SQL forms).
func BenchmarkFig4UIE(b *testing.B) {
	edbs := pa.AndersenSized(300, 3)
	prog := programs.MustParse(programs.Andersen)
	for _, uie := range []bool{true, false} {
		name := "unified"
		if !uie {
			name = "individual"
		}
		opts := core.DefaultOptions()
		opts.UIE = uie
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(opts).Run(prog, edbs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Dedup compares the CCK-GSCHT fast dedup against the locked
// map and sort baselines (the data structure of Figure 5).
func BenchmarkFig5Dedup(b *testing.B) {
	in := storage.NewRelation("t", storage.NumberedColumns(2))
	rows := make([]int32, 0, 2<<17)
	for i := 0; i < 1<<17; i++ {
		rows = append(rows, int32(i%9973), int32(i%4211))
	}
	in.AppendRows(rows)
	pool := exec.NewPool(0)
	for _, s := range []exec.DedupStrategy{exec.DedupGSCHT, exec.DedupLockMap, exec.DedupSort} {
		b.Run(s.String(), func(b *testing.B) {
			b.SetBytes(int64(in.NumTuples() * 8))
			for i := 0; i < b.N; i++ {
				out := exec.Dedup(pool, in, s, in.NumTuples(), "d")
				_ = out
			}
		})
	}
}

// BenchmarkFig6PBME compares bit-matrix against hash-based TC evaluation
// (runtime dimension of Figure 6; the memory dimension is in benchrunner).
func BenchmarkFig6PBME(b *testing.B) {
	arc := graphs.GnP(400, 0.02, 1)
	m, err := bitmatrix.FromEdges(arc, 400)
	if err != nil {
		b.Fatal(err)
	}
	prog := programs.MustParse(programs.TC)
	b.Run("pbme", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tc := bitmatrix.TransitiveClosure(m, 0)
			b.ReportMetric(float64(tc.MemoryBytes())/(1<<20), "matrixMiB")
		}
	})
	b.Run("non-pbme", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.New(core.DefaultOptions()).Run(prog, map[string]*storage.Relation{"arc": arc}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7Coordination compares SG-PBME with and without work-order
// re-balancing on a skewed graph.
func BenchmarkFig7Coordination(b *testing.B) {
	arc := graphs.GnP(300, 0.03, 2)
	m, err := bitmatrix.FromEdges(arc, 300)
	if err != nil {
		b.Fatal(err)
	}
	for _, coord := range []bool{false, true} {
		name := "no-coord"
		if coord {
			name = "coord"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bitmatrix.SameGeneration(m, bitmatrix.SGOptions{Coordinate: coord, Threshold: 2048})
			}
		})
	}
}

// BenchmarkFig8Threads measures CSPA at increasing worker counts (the
// speedup curve of Figure 8).
func BenchmarkFig8Threads(b *testing.B) {
	w := experiments.CSPAWorkload("httpd", benchCfg)
	prog := programs.MustParse(programs.CSPA)
	for _, th := range []int{1, 2, 4} {
		opts := core.DefaultOptions()
		opts.Workers = th
		b.Run(fmt.Sprintf("threads-%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(opts).Run(prog, w.EDBs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9DataScaling measures CC over growing RMAT graphs and AA over
// growing variable universes (Figure 9's two panels).
func BenchmarkFig9DataScaling(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 11, 1 << 12} {
		w := experiments.RMATWorkload("cc", n)
		b.Run(w.Name, func(b *testing.B) { benchRun(b, experiments.RecStep, w) })
	}
	for _, d := range []int{1, 2, 3} {
		w := experiments.AndersenWorkload(d, benchCfg)
		b.Run(w.Name, func(b *testing.B) { benchRun(b, experiments.RecStep, w) })
	}
}

// BenchmarkFig10TCSG compares the engines on TC and SG over a Gn-p graph.
func BenchmarkFig10TCSG(b *testing.B) {
	spec := experiments.GnpSpec{Label: "G200", N: 200, P: 0.05}
	for _, w := range []experiments.Workload{experiments.TCWorkload(spec), experiments.SGWorkload(spec)} {
		for _, e := range []experiments.Engine{experiments.RecStep, experiments.Native, experiments.Naive} {
			b.Run(w.Name+"/"+string(e), func(b *testing.B) { benchRun(b, e, w) })
		}
	}
}

// BenchmarkFig11Memory reports peak heap for TC across engines (Figure 11).
func BenchmarkFig11Memory(b *testing.B) {
	w := experiments.TCWorkload(experiments.GnpSpec{Label: "G200", N: 200, P: 0.05})
	for _, e := range []experiments.Engine{experiments.RecStep, experiments.RecStepNoPBME, experiments.Native} {
		b.Run(string(e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunSampled(e, w, benchCfg)
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				b.ReportMetric(float64(r.PeakHeap)/(1<<20), "peakMiB")
			}
		})
	}
}

// BenchmarkFig12RMAT compares the engines on REACH/CC/SSSP over one RMAT
// graph (the per-point work of Figure 12).
func BenchmarkFig12RMAT(b *testing.B) {
	for _, program := range []string{"reach", "cc", "sssp"} {
		w := experiments.RMATWorkload(program, 1<<11)
		for _, e := range experiments.AllEngines() {
			r := experiments.Run(e, w, benchCfg)
			if r.Err != nil {
				continue // n/a combinations are skipped, as in the figure
			}
			b.Run(w.Name+"/"+string(e), func(b *testing.B) { benchRun(b, e, w) })
		}
	}
}

// BenchmarkFig13RealWorld compares the engines on the livejournal-like
// graph (the per-bar work of Figure 13).
func BenchmarkFig13RealWorld(b *testing.B) {
	for _, program := range []string{"reach", "cc"} {
		w := experiments.RealWorldWorkload(program, "livejournal", benchCfg)
		for _, e := range []experiments.Engine{experiments.RecStep, experiments.Native} {
			r := experiments.Run(e, w, benchCfg)
			if r.Err != nil {
				continue
			}
			b.Run(w.Name+"/"+string(e), func(b *testing.B) { benchRun(b, e, w) })
		}
	}
}

// BenchmarkFig14Memory reports peak heap on the livejournal-like graph.
func BenchmarkFig14Memory(b *testing.B) {
	w := experiments.RealWorldWorkload("reach", "livejournal", benchCfg)
	for _, e := range []experiments.Engine{experiments.RecStep, experiments.Naive} {
		b.Run(string(e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunSampled(e, w, benchCfg)
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				b.ReportMetric(float64(r.PeakHeap)/(1<<20), "peakMiB")
			}
		})
	}
}

// BenchmarkFig15ProgramAnalyses compares the engines on AA, CSDA and CSPA.
func BenchmarkFig15ProgramAnalyses(b *testing.B) {
	ws := []experiments.Workload{
		experiments.AndersenWorkload(2, benchCfg),
		experiments.CSDAWorkload("httpd", benchCfg),
		experiments.CSPAWorkload("httpd", benchCfg),
	}
	for _, w := range ws {
		for _, e := range experiments.AllEngines() {
			r := experiments.Run(e, w, benchCfg)
			if r.Err != nil {
				continue
			}
			b.Run(w.Name+"/"+string(e), func(b *testing.B) { benchRun(b, e, w) })
		}
	}
}

// BenchmarkFig16CPUUtil reports the process's CPU utilisation on Andersen's
// analysis (Figure 16's series, collapsed to its mean).
func BenchmarkFig16CPUUtil(b *testing.B) {
	w := experiments.AndersenWorkload(3, benchCfg)
	for _, e := range []experiments.Engine{experiments.RecStep, experiments.Naive} {
		b.Run(string(e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunSampled(e, w, benchCfg)
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				b.ReportMetric(100*r.AvgCPU, "cpu%")
			}
		})
	}
}

// BenchmarkEngineTC is the headline end-to-end number: full RecStep TC on a
// mid-density graph through the SQL pipeline.
func BenchmarkEngineTC(b *testing.B) {
	arc := graphs.GnP(300, 0.02, 5)
	prog := programs.MustParse(programs.TC)
	opts := core.DefaultOptions()
	b.SetBytes(int64(arc.NumTuples() * 8))
	for i := 0; i < b.N; i++ {
		res, err := core.New(opts).Run(prog, map[string]*storage.Relation{"arc": arc})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Relations["tc"].NumTuples()), "tuples")
	}
}

// BenchmarkJoinBuildScaling isolates the join build phase on a TC workload:
// the build side is the transitive closure of a mid-density graph, indexed
// on both columns (the shape of the engine's delta-cancellation joins, where
// every probe matches at most one build row, so hash construction dominates
// the measurement). The serial arm (Partitions 1, one shared table)
// reproduces the shared-hash-table limiter the paper identifies; the
// partitioned arm is the radix-partitioned contention-free build that
// scatters its input; the carried arm hands the build a relation already
// carrying the join-key partitioning — the state ∆R is in when it exits the
// fused delta step — so the per-partition tables index the carried blocks
// in place with zero scatter. Each iteration re-wraps the build side in a
// fresh relation (block-sharing, no copy) so no cached view persists across
// iterations; the carried arm rebuilds its carried state per iteration
// outside the timer.
func BenchmarkJoinBuildScaling(b *testing.B) {
	arc := graphs.GnP(900, 0.02, 5)
	tc := native.TC(arc, 0)
	keys := []int{0, 1}
	spec := exec.JoinSpec{
		LeftKeys:  keys,
		RightKeys: keys,
		BuildLeft: false,
		Projs:     []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}},
		OutName:   "hit",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pool := exec.NewPool(workers)
		for _, mode := range []string{"serial", "partitioned", "carried"} {
			s := spec
			switch mode {
			case "serial":
				s.Partitions = 1
			default:
				s.Partitions = optimizer.ChoosePartitions(tc.NumTuples(), workers)
			}
			if mode == "carried" && s.Partitions <= 1 {
				continue // single worker never partitions; nothing to carry
			}
			b.Run(fmt.Sprintf("%s/workers-%d", mode, workers), func(b *testing.B) {
				b.SetBytes(int64(tc.NumTuples() * 8))
				for i := 0; i < b.N; i++ {
					build := storage.NewRelation("tc", tc.ColNames())
					build.AppendRelation(tc)
					if mode == "carried" {
						b.StopTimer()
						exec.PartitionRelationCarried(pool, build, keys, s.Partitions)
						b.StartTimer()
					}
					out := exec.HashJoin(pool, tc, build, s)
					b.ReportMetric(float64(out.NumTuples()), "tuples")
				}
			})
		}
	}
}

// BenchmarkDeltaStep isolates the tail of one fixpoint iteration — dedup of
// the join output plus set difference against the full relation plus delta
// materialization — comparing the fused partition-native DeltaStep against
// the staged Dedup + SetDifference pipeline it replaces, across worker
// counts and radix fan-outs, plus a fused-carried arm where both inputs
// arrive already scattered on a join-key partitioning (the fused-scatter
// steady state): the pass consumes the carried partitions in place. The join
// output is a duplicate-heavy TC-shaped relation; R overlaps about half of it
// (the mid-fixpoint regime where the delta pipeline dominates iteration
// cost). Inputs are re-wrapped in fresh relations every iteration so no
// carried or cached partitioning persists across iterations; the carried arm
// rebuilds its carried state per iteration outside the timer.
func BenchmarkDeltaStep(b *testing.B) {
	arc := graphs.GnP(900, 0.02, 5)
	tc := native.TC(arc, 0)
	tmpBase := storage.NewRelation("tmp", storage.NumberedColumns(2))
	tmpBase.AppendRelation(tc)
	tmpBase.AppendRelation(tc) // every tuple duplicated: dedup has real work
	fullBase := storage.NewRelation("r", storage.NumberedColumns(2))
	half := make([]int32, 0, tc.NumTuples())
	i := 0
	tc.ForEach(func(t []int32) {
		if i%2 == 0 {
			half = append(half, t...)
		}
		i++
	})
	fullBase.AppendRows(half)

	for _, workers := range []int{1, 4, 8} {
		pool := exec.NewPool(workers)
		// Operator output blocks allocate through the memory manager, and
		// each iteration releases its dead relations — the engine's epoch
		// reclamation — so with -benchmem the allocations/op show the block
		// recycling win (steady-state iterations run almost entirely on
		// pooled arrays).
		mem := memory.NewManager(memory.Config{})
		pool.SetAlloc(mem)
		for _, parts := range []int{1, 16, 64} {
			for _, mode := range []string{"fused", "fused-carried", "staged"} {
				if mode == "fused-carried" && parts <= 1 {
					continue // nothing to carry without a fan-out
				}
				name := fmt.Sprintf("%s/workers-%d/parts-%d", mode, workers, parts)
				deltaKeys := []int{1}
				b.Run(name, func(b *testing.B) {
					b.SetBytes(int64(tmpBase.NumTuples() * 8))
					for n := 0; n < b.N; n++ {
						tmp := storage.NewRelation("tmp", storage.NumberedColumns(2))
						tmp.AppendRelation(tmpBase)
						full := storage.NewRelation("r", storage.NumberedColumns(2))
						full.AppendRelation(fullBase)
						var delta *storage.Relation
						switch mode {
						case "fused":
							delta = exec.DeltaStep(pool, tmp, full, exec.OPSD, storage.Partitioning{Parts: parts}, tc.NumTuples(), "delta")
						case "fused-carried":
							b.StopTimer()
							tmp.SetLifecycle(mem, storage.CatIntermediate)
							full.SetLifecycle(mem, storage.CatIDB)
							exec.PartitionRelationCarried(pool, tmp, deltaKeys, parts)
							exec.PartitionRelationCarried(pool, full, deltaKeys, parts)
							b.StartTimer()
							delta = exec.DeltaStep(pool, tmp, full, exec.OPSD, storage.Partitioning{KeyCols: deltaKeys, Parts: parts}, tc.NumTuples(), "delta")
						default:
							rdelta := exec.Dedup(pool, tmp, exec.DedupGSCHT, tc.NumTuples(), "rdelta")
							delta = exec.SetDifferencePartitioned(pool, rdelta, full, exec.OPSD, parts, "delta")
							rdelta.Release()
						}
						b.ReportMetric(float64(delta.NumTuples()), "tuples")
						// Epoch reclamation: this iteration's relations are
						// dead; their exclusive blocks (scatter views, ∆R)
						// return to the pool, the shared base blocks survive.
						delta.Release()
						tmp.Release()
						full.Release()
					}
				})
			}
		}
	}
}

// BenchmarkNativeTC is the same workload on the Soufflé-like comparator.
func BenchmarkNativeTC(b *testing.B) {
	arc := graphs.GnP(300, 0.02, 5)
	for i := 0; i < b.N; i++ {
		_ = native.TC(arc, 0)
	}
}

// BenchmarkAggregateMerge measures recursive-aggregate evaluation (CC).
func BenchmarkAggregateMerge(b *testing.B) {
	arc := graphs.Undirected(graphs.RMAT(1<<11, 1<<14, 9))
	prog := programs.MustParse(programs.CC)
	for i := 0; i < b.N; i++ {
		if _, err := core.New(core.DefaultOptions()).Run(prog, map[string]*storage.Relation{"arc": arc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStratifiedNegation measures NTC (negation) end to end.
func BenchmarkStratifiedNegation(b *testing.B) {
	arc := graphs.GnP(150, 0.03, 4)
	prog := programs.MustParse(programs.NTC)
	for i := 0; i < b.N; i++ {
		if _, err := core.New(core.DefaultOptions()).Run(prog, map[string]*storage.Relation{"arc": arc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOOFModes isolates the statistics-collection cost (Figure 2's
// OOF-FA vs selective vs none, on a statistics-sensitive workload).
func BenchmarkOOFModes(b *testing.B) {
	edbs := pa.CSDASized(4, 120, 4, 3)
	prog := programs.MustParse(programs.CSDA)
	for _, mode := range []stats.Mode{stats.ModeSelective, stats.ModeNone, stats.ModeFull} {
		opts := core.DefaultOptions()
		opts.OOF = mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(opts).Run(prog, edbs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedTC measures the BigDatalog-like partitioned engine,
// reporting shuffle volume alongside runtime (the distributed baseline of
// Figures 10-13, simulated in-process).
func BenchmarkDistributedTC(b *testing.B) {
	arc := graphs.GnP(300, 0.02, 5)
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("partitions-%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := bigdatalog.NewCluster(p)
				tc := c.TC(arc)
				b.ReportMetric(float64(c.ShuffleBytes())/(1<<20), "shuffleMiB")
				b.ReportMetric(float64(tc.NumTuples()), "tuples")
			}
		})
	}
}
