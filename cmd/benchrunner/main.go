// Command benchrunner regenerates the tables and figures of the paper's
// evaluation section, plus the engine experiments (see docs/BENCHMARKS.md,
// "Running benchrunner"). Each subcommand prints the corresponding
// rows/series; `all` runs everything.
//
// Usage:
//
//	benchrunner [-quick] [-workers N] [-budget BYTES] table1 fig2 fig10 …
//	benchrunner all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"recstep/internal/experiments"
	"recstep/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrunner: ")
	var (
		quick       = flag.Bool("quick", false, "shrink datasets for a fast pass")
		workers     = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		budget      = flag.Int64("budget", 0, "simulated memory budget in bytes (0 = 1 GiB)")
		partitions  = flag.Int("partitions", 0, "radix partition count for hash builds (0 = auto 1/16/64/256, 1 = off)")
		memBudget   = flag.Int64("mem-budget", 0, "live block-pool byte budget; cold partitions of full relations spill under pressure (0 = unlimited)")
		obsOut      = flag.String("obs-out", "BENCH_PR8.json", "path the benchobs experiment writes its machine-readable report to")
		obsLimit    = flag.Float64("obs-threshold", 2.0, "benchobs fails when metrics-on overhead exceeds this percentage (min-of-trials; <0 disables the assertion)")
		incrOut     = flag.String("incr-out", "BENCH_PR10.json", "path the benchincr experiment writes its machine-readable report to")
		incrLimit   = flag.Float64("incr-threshold", 10.0, "benchincr fails when any workload's ApplyDelta speedup over a from-scratch rerun falls below this factor (<0 disables the assertion)")
		enableObs   = flag.Bool("obs", true, "collect metrics and phase timers in engine runs; false is the zero-instrumentation ablation")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address while experiments run (e.g. :9090)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile covering the selected experiments to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof allocation profile after the selected experiments to this file")
	)
	flag.Parse()
	cfg := experiments.Config{
		Quick:              *quick,
		Workers:            *workers,
		MemBudgetBytes:     *budget,
		Partitions:         *partitions,
		ManagedBudgetBytes: *memBudget,
		NoObs:              !*enableObs,
	}
	if *metricsAddr != "" {
		// One registry for the whole process; each engine run re-binds its
		// series, so the listener always shows the experiment in flight.
		ob := obs.New()
		cfg.Obs = ob
		addr, err := obs.Serve(*metricsAddr, ob.Reg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving /metrics, /statusz and /debug/pprof on http://%s", addr)
	}
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
	}()

	// Graceful interrupt: flush any in-progress profiles before exiting, so
	// a ctrl-C mid-experiment still leaves a readable pprof file.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("received %v; flushing profiles and exiting", s)
		if err := stopProfiles(); err != nil {
			log.Print(err)
		}
		os.Exit(130)
	}()

	type runner func(experiments.Config) experiments.Table
	table := map[string]runner{
		"table1":  func(experiments.Config) experiments.Table { return experiments.Table1() },
		"table3":  func(experiments.Config) experiments.Table { return experiments.Table3() },
		"table4":  experiments.Table4,
		"fig2":    experiments.Fig2,
		"fig3":    experiments.Fig3,
		"fig6":    experiments.Fig6,
		"fig7":    experiments.Fig7,
		"fig8":    experiments.Fig8,
		"fig9":    experiments.Fig9,
		"fig10":   experiments.Fig10,
		"fig11":   experiments.Fig11,
		"fig12":   experiments.Fig12,
		"fig13":   experiments.Fig13,
		"fig14":   experiments.Fig14,
		"fig15":   experiments.Fig15,
		"fig16":   experiments.Fig16,
		"peakmem": experiments.PeakMem,
	}
	order := []string{
		"table1", "table3", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table4",
		"peakmem", "benchobs", "benchincr",
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: benchrunner [flags] %v|all\n", order)
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for _, name := range args {
		if name == "benchobs" {
			rep, err := experiments.BenchObs(cfg)
			if err != nil {
				log.Fatal(err)
			}
			if err := experiments.WriteBenchObsReport(*obsOut, rep); err != nil {
				log.Fatal(err)
			}
			fmt.Println(experiments.BenchObsTable(rep))
			log.Printf("wrote %s", *obsOut)
			if *obsLimit >= 0 && rep.OverheadPct > *obsLimit {
				log.Fatalf("benchobs: metrics-on overhead %.2f%% exceeds %.2f%% threshold", rep.OverheadPct, *obsLimit)
			}
			continue
		}
		if name == "benchincr" {
			rep, err := experiments.BenchIncr(cfg)
			if err != nil {
				log.Fatal(err)
			}
			if err := experiments.WriteBenchIncrReport(*incrOut, rep); err != nil {
				log.Fatal(err)
			}
			fmt.Println(experiments.BenchIncrTable(rep))
			log.Printf("wrote %s", *incrOut)
			if *incrLimit >= 0 && rep.MinSpeedup < *incrLimit {
				log.Fatalf("benchincr: minimum ApplyDelta speedup %.1f× is below the %.1f× threshold", rep.MinSpeedup, *incrLimit)
			}
			continue
		}
		if name == "fig4" {
			unified, individual, err := experiments.Fig4()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Figure 4 — UIE vs individual IDB evaluation (Andersen, recursive phase)")
			fmt.Println("\n-- Unified IDB Evaluation:")
			fmt.Println(unified)
			fmt.Println("\n-- Individual IDB Evaluation:")
			fmt.Println(individual)
			fmt.Println()
			continue
		}
		fn, ok := table[name]
		if !ok {
			log.Fatalf("unknown experiment %q", name)
		}
		fmt.Println(fn(cfg))
	}
}
