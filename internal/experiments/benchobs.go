package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"recstep/internal/core"
	"recstep/internal/obs"
	"recstep/internal/programs"
)

// BenchObsArm is one measured observability configuration of the TC
// fixpoint: per-trial wall times plus their min and median. Min is the
// noise-robust estimator the overhead assertion uses — every run pays the
// full instrumented work, so the fastest trial is the one with the least
// scheduler interference.
type BenchObsArm struct {
	Name     string  `json:"name"`
	TrialNs  []int64 `json:"trial_ns"`
	MinNs    int64   `json:"min_ns"`
	MedianNs int64   `json:"median_ns"`
	Tuples   int     `json:"tuples"`
}

// BenchObsReport is the machine-readable output of the observability
// overhead smoke (BENCH_PR8.json): the same TC fixpoint run with the
// metrics registry + phase timers attached versus the zero-instrumentation
// ablation (core.Options.DisableObs), with the overhead the instruments
// cost. PhaseMs echoes one instrumented run's phase attribution so the
// report doubles as a sanity check that the timers actually collected.
type BenchObsReport struct {
	Workload string      `json:"workload"`
	Workers  int         `json:"workers"`
	Trials   int         `json:"trials"`
	On       BenchObsArm `json:"obs_on"`
	Off      BenchObsArm `json:"obs_off"`
	// OverheadPct is (min(on) - min(off)) / min(off) × 100 — negative when
	// noise makes the instrumented arm faster.
	OverheadPct float64 `json:"overhead_pct"`
	// MedianOverheadPct is the same ratio on medians, for reference.
	MedianOverheadPct float64            `json:"median_overhead_pct"`
	PhaseMs           map[string]float64 `json:"phase_ms"`
	// MetricLines counts the samples the registry exported after the last
	// instrumented run (a scrape's series count).
	MetricLines int `json:"metric_lines"`
}

// BenchObs measures what always-on observability costs: the TC fixpoint with
// the registry, phase timers and histograms attached (the engine default)
// against DisableObs, interleaving trials so clock drift and cache state hit
// both arms alike. The tracer stays off in both arms — it is opt-in
// (-trace) and buffers events, so it is priced separately, not here. Each
// trial starts on a collected heap, so no arm's garbage is collected in the
// other's time. At Quick, trials go on until each arm has run ~1.5 s.
func BenchObs(cfg Config) (BenchObsReport, error) {
	spec := GnpSpec{Label: "G1K", N: 1000, P: 0.01}
	trials, armTime := 5, time.Duration(0)
	if cfg.Quick {
		spec = GnpSpec{Label: "G300", N: 300, P: 0.02}
		trials, armTime = 3, 1500*time.Millisecond
	}
	w := TCWorkload(spec)
	prog, err := programs.Get(w.Program)
	if err != nil {
		return BenchObsReport{}, err
	}

	base := core.DefaultOptions()
	base.Workers = cfg.workers()

	rep := BenchObsReport{
		Workload: fmt.Sprintf("%s, %d edges", w.Name, w.Edges),
		Workers:  cfg.workers(),
		Trials:   trials,
		On:       BenchObsArm{Name: "obs-on"},
		Off:      BenchObsArm{Name: "obs-off"},
	}

	runArm := func(arm *BenchObsArm, disable bool) error {
		opts := base
		opts.DisableObs = disable
		var ob *obs.Observer
		if !disable {
			// A fresh Observer per trial, like cmd/recstep's per-process one;
			// registration cost is part of what the arm prices.
			ob = obs.New()
			opts.Obs = ob
		}
		runtime.GC()
		start := time.Now()
		res, err := core.New(opts).Run(prog, w.EDBs)
		d := time.Since(start)
		if err != nil {
			return err
		}
		arm.TrialNs = append(arm.TrialNs, d.Nanoseconds())
		arm.Tuples = res.Relations[w.Output].NumTuples()
		if !disable {
			rep.PhaseMs = make(map[string]float64)
			for name, pd := range res.Stats.PhaseDurations {
				rep.PhaseMs[name] = float64(pd) / float64(time.Millisecond)
			}
			rep.MetricLines = len(ob.Reg.Snapshot())
		}
		return nil
	}

	// Warm-up pass per arm (untimed), then interleaved timed trials.
	if err := runArm(&BenchObsArm{}, false); err != nil {
		return rep, err
	}
	if err := runArm(&BenchObsArm{}, true); err != nil {
		return rep, err
	}
	for start := time.Now(); len(rep.On.TrialNs) < trials || time.Since(start) < 2*armTime; {
		if err := runArm(&rep.On, false); err != nil {
			return rep, err
		}
		if err := runArm(&rep.Off, true); err != nil {
			return rep, err
		}
	}
	finish := func(arm *BenchObsArm) {
		sorted := slices.Sorted(slices.Values(arm.TrialNs))
		arm.MinNs = sorted[0]
		arm.MedianNs = sorted[len(sorted)/2]
	}
	finish(&rep.On)
	finish(&rep.Off)
	rep.Trials = len(rep.On.TrialNs)
	rep.OverheadPct = 100 * (float64(rep.On.MinNs) - float64(rep.Off.MinNs)) / float64(rep.Off.MinNs)
	rep.MedianOverheadPct = 100 * (float64(rep.On.MedianNs) - float64(rep.Off.MedianNs)) / float64(rep.Off.MedianNs)
	if rep.On.Tuples != rep.Off.Tuples {
		return rep, fmt.Errorf("benchobs: arms disagree on |TC|: %d vs %d", rep.On.Tuples, rep.Off.Tuples)
	}
	return rep, nil
}

// WriteBenchObsReport renders the report as indented JSON at path.
func WriteBenchObsReport(path string, rep BenchObsReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BenchObsTable renders the report as a printable table (the benchrunner's
// human-readable echo of BENCH_PR8.json).
func BenchObsTable(rep BenchObsReport) Table {
	tbl := Table{
		Title:  "Observability overhead — " + rep.Workload,
		Header: []string{"arm", "min ms", "median ms", "tuples"},
	}
	for _, arm := range []BenchObsArm{rep.On, rep.Off} {
		tbl.Rows = append(tbl.Rows, []string{
			arm.Name,
			fmt.Sprintf("%.1f", float64(arm.MinNs)/1e6),
			fmt.Sprintf("%.1f", float64(arm.MedianNs)/1e6),
			fmt.Sprintf("%d", arm.Tuples),
		})
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("overhead: %+.2f%% on min-of-%d, %+.2f%% on medians (registry + phase timers + histograms; tracer off in both arms)",
			rep.OverheadPct, rep.Trials, rep.MedianOverheadPct),
		fmt.Sprintf("registry exported %d metric families after the instrumented run", rep.MetricLines))
	return tbl
}
