package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// result is everything one workload reports.
type result struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"ops_attempted"`
	Failed    int             `json:"ops_failed"`
	Error     string          `json:"first_error,omitempty"`
	Reps      map[string]int  `json:"repetitions"`
	Sizes     map[string]int  `json:"sizes"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	TraceFile string          `json:"trace_file,omitempty"`
}

// config is the run configuration echoed in the report.
type config struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	Workers int     `json:"workers"`
	NProc   int     `json:"nproc"`
	Go      string  `json:"go"`
	Commit  string  `json:"commit"`
	outDir  string
}

// report is what -json writes: the configuration and, per pass over the
// suite, every workload's result.
type report struct {
	Config config     `json:"config"`
	Runs   [][]result `json:"runs"`
}

func writeJSON(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult writes one workload's metrics by name, each with its unit.
func printResult(out io.Writer, r *result) {
	fmt.Fprintf(out, "== %s: ops_attempted=%d ops_failed=%d correct=%v\n", r.Name, r.Attempted, r.Failed, r.Correct)
	if r.Error != "" {
		fmt.Fprintf(out, "   first error: %s\n", r.Error)
	}
	fmt.Fprintf(out, "   sizes %v, repetitions %v\n", r.Sizes, r.Reps)
	section := func(title string, defs []metricDef, values map[string]stat) {
		printed := false
		for _, d := range defs {
			s, ok := values[d.name]
			if !ok {
				continue
			}
			if !printed {
				fmt.Fprintf(out, "   %s\n", title)
				printed = true
			}
			fmt.Fprintf(out, "     %-36s %14.6g %-10s", d.name, s.Value, s.Unit)
			if s.N > 0 {
				fmt.Fprintf(out, " n=%d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
			}
			fmt.Fprintln(out)
		}
	}
	section("end-to-end (median)", userMetrics, r.EndToEnd)
	section("per layer (traced run at one worker, probes, derived)", perLayer, r.PerLayer)
	if r.TraceFile != "" {
		fmt.Fprintf(out, "   trace: %s\n", r.TraceFile)
	}
}

// contractLine is the last line of standard output when one workload was
// run: its end-to-end metrics without tracing, its per-layer metrics with.
func contractLine(r *result, trace bool) string {
	metrics := make(map[string]map[string]any)
	put := func(defs []metricDef, values map[string]stat) {
		for _, d := range defs {
			metrics[d.name] = map[string]any{"value": values[d.name].Value, "unit": d.unit}
		}
	}
	if trace {
		// On a batch workload the update latencies are not measured and read 0.
		put(updateMetrics, r.EndToEnd)
		put(perLayer, r.PerLayer)
	} else {
		put(endToEnd, r.EndToEnd)
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(line)
}

// compareRuns is the A/A mode: for every workload and end-to-end metric it
// prints the first pass's value, a later pass's value and their relative
// difference, and fails the metric when the difference exceeds its bound in
// either direction. It returns the number of failures.
func compareRuns(out io.Writer, runs [][]result) int {
	failures := 0
	fmt.Fprintf(out, "== A/A: pass 1 against each later pass\n")
	fmt.Fprintf(out, "   %-12s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "later", "diff", "bound")
	for pass := 1; pass < len(runs); pass++ {
		for i, first := range runs[0] {
			later := runs[pass][i]
			for _, d := range userMetrics {
				a, ok := first.EndToEnd[d.name]
				if !ok {
					continue
				}
				b := later.EndToEnd[d.name]
				diff := (b.Value - a.Value) / a.Value
				verdict := "PASS"
				if math.Abs(diff) > d.bound || math.IsNaN(diff) {
					verdict = "FAIL"
					failures++
				}
				fmt.Fprintf(out, "   %-12s %-22s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n",
					first.Name, d.name, a.Value, b.Value, 100*diff, 100*d.bound, verdict)
			}
		}
	}
	return failures
}
