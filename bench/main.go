// Command bench is the repository's benchmark: it generates seeded inputs,
// runs six named workloads against the engine with its default options,
// checks every output against an independent reference, and prints every
// end-to-end and per-layer metric by name with its unit. BENCHMARK.json at
// the root of the repository names the command, the workloads and the
// metrics; README.md in this directory defines them.
//
//	go run ./bench                        # all workloads, traced, seed 1
//	go run ./bench -workload tc_dense -trace 0 -seed 7 -seconds 12
//	go run ./bench -repeat 2              # A/A: two passes, compared
//
// When exactly one workload is run, the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupReps is how many times a workload is set up in one run; setup_s is
// the median.
const setupReps = 3

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 1, "seed of the input generators")
	names := flag.String("workload", "", "comma-separated workloads to run (default: all)")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds one workload measures for")
	trace := flag.Int("trace", 1, "1 adds the traced run and the layer probes, 0 leaves them out")
	repeat := flag.Int("repeat", 1, "passes over the suite; 2 or more compares each later pass with the first (A/A)")
	jsonPath := flag.String("json", "", "write the full report to this file")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for trace files and spill files")
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || *seconds <= 0 {
		flag.Usage()
		return 2
	}

	selected := make([]*workload, 0, len(workloads))
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, w)
	}

	// W = min(nproc, 4): the load comes from this one process, one driver
	// goroutine, and the engine never runs more workers than processors.
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)
	cfg := config{
		Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Workers: workers, NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commit(),
		outDir: *outDir,
	}
	fmt.Printf("bench: seed=%d W=%d nproc=%d %s commit=%s seconds=%g trace=%v\n",
		cfg.Seed, cfg.Workers, cfg.NProc, cfg.Go, cfg.Commit, cfg.Seconds, cfg.Trace)

	rep := report{Config: cfg}
	failed := false
	for pass := 0; pass < *repeat; pass++ {
		var results []result
		for _, w := range selected {
			r, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			printResult(os.Stdout, r)
			failed = failed || !r.Correct
			results = append(results, *r)
		}
		rep.Runs = append(rep.Runs, results)
	}
	if *repeat > 1 && compareRuns(os.Stdout, rep.Runs) > 0 {
		failed = true
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if len(selected) == 1 && *repeat == 1 {
		fmt.Println(contractLine(&rep.Runs[0][0], cfg.Trace))
	}
	if failed {
		return 1
	}
	return 0
}

// commit reads the revision the binary was built from, when the toolchain
// stamped one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload sets a workload up, measures it for cfg.Seconds with tracing
// off, and then, when asked, makes the traced run.
func runWorkload(w *workload, cfg config) (*result, error) {
	var o ops
	spillDir := filepath.Join(cfg.outDir, "spill")
	defer os.RemoveAll(spillDir)

	var p *prepared
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.closeResident(&o)
		}
		next, s, err := w.setup(cfg.Seed, cfg.Workers, spillDir, &o)
		if err != nil {
			return nil, err
		}
		p, setupS = next, append(setupS, s)
	}
	r := &result{
		Name: w.name, Why: w.why,
		Sizes:    map[string]int{},
		Reps:     map[string]int{"setup": setupReps},
		EndToEnd: map[string]stat{"setup_s": medianStat(setupS, "s")},
	}
	for _, t := range p.in.tables {
		r.Sizes[t.name] = t.tuples()
	}
	for name, d := range p.ref {
		r.Sizes[name] = d.count
	}

	// The closed measuring loop, tracing off.
	start := time.Now()
	var st stream
	if w.resident {
		st = p.applyStream(&o)
		p.closeResident(&o)
		r.EndToEnd["update_insert_p50_ms"] = medianStat(st.insertMS, "ms")
		r.EndToEnd["update_insert_p90_ms"] = quantileStat(st.insertMS, 0.9, "ms")
		r.EndToEnd["update_delete_p50_ms"] = medianStat(st.deleteMS, "ms")
		r.Reps["inserts"], r.Reps["deletes"] = len(st.insertMS), len(st.deleteMS)
	}
	atW, at1 := p.timeRuns(cfg.Seconds-time.Since(start).Seconds(), &o)
	r.Reps["runs_at_w"], r.Reps["runs_at_1"] = len(atW), len(at1)
	r.EndToEnd["fixpoint_s"] = medianOf(atW, wallS, "s")
	r.EndToEnd["fixpoint_w1_s"] = medianOf(at1, wallS, "s")
	r.EndToEnd["peak_pool_mb"] = medianOf(atW, peakMB, "MB")
	r.EndToEnd["heap_alloc_mb"] = medianOf(atW, allocMB, "MB")

	if cfg.Trace {
		tr := &tracer{run: w.name}
		layers, tracedS, err := p.traceLayers(tr, &o)
		if err != nil {
			return nil, err
		}
		fixW, fix1 := r.EndToEnd["fixpoint_s"].Value, r.EndToEnd["fixpoint_w1_s"].Value
		layers["pool.scaleup_x"] = fix1 / fixW
		layers["pool.peak_ratio_w1"] = medianOf(at1, peakMB, "").Value / r.EndToEnd["peak_pool_mb"].Value
		layers["runtime.gc_cycles"] = medianOf(atW, gcCycles, "").Value
		layers["runtime.gc_pause_ms"] = medianOf(atW, gcPauseMS, "").Value
		layers["trace.overhead_pct"] = 100 * (tracedS - fix1) / fix1
		if w.budget > 0 {
			layers["memory.budget_overshoot_x"] = r.EndToEnd["peak_pool_mb"].Value * mb / float64(w.budget)
		}
		if w.resident {
			layers["incr.load_s"] = p.loadS
			layers["incr.resident_peak_mb"] = st.peakMB
			layers["incr.rerun_s"] = fixW
			layers["incr.insert_vs_rerun_x"] = r.EndToEnd["update_insert_p50_ms"].Value / 1e3 / fixW
			layers["incr.delete_vs_rerun_x"] = r.EndToEnd["update_delete_p50_ms"].Value / 1e3 / fixW
			layers["incr.overdelete_ratio"] = float64(st.overDeleted) / float64(max(1, st.overDeleted-st.rescued))
			layers["incr.rescued"] = float64(st.rescued)
		}
		r.PerLayer = make(map[string]stat, len(perLayer))
		for _, d := range perLayer {
			r.PerLayer[d.name] = stat{Value: layers[d.name], Unit: d.unit}
		}
		path, err := tr.write(cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
		r.TraceFile = path
	}

	r.Attempted, r.Failed, r.Correct = o.attempted, o.failed, o.failed == 0
	if o.firstErr != nil {
		r.Error = o.firstErr.Error()
	}
	return r, nil
}
