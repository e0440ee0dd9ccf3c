package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"

	"recstep/internal/core"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// BenchIncrArm is one workload of the incremental-maintenance smoke: the
// from-scratch fixpoint time against the per-update ApplyDelta latency on
// ~0.1%-sized insertion deltas, with mixed insert+delete batches run after
// the measured stream for deletion coverage (their latency and the strata
// they recomputed are reported but not gated: a deletion recomputes every
// stratum it reaches, so it costs about a rerun by design). Speedup is
// min(scratch) / median(update) — the
// conservative pairing: the baseline's least-noisy trial against the update
// stream's typical latency.
type BenchIncrArm struct {
	Program        string  `json:"program"`
	Workload       string  `json:"workload"`
	BaseRows       int     `json:"base_rows"`
	DeltaRows      int     `json:"delta_rows_per_update"`
	Updates        int     `json:"updates"`
	ScratchNs      []int64 `json:"scratch_trial_ns"`
	MinScratchNs   int64   `json:"min_scratch_ns"`
	UpdateNs       []int64 `json:"insert_update_ns"`
	MedianUpdateNs int64   `json:"median_insert_update_ns"`
	DeleteNs       []int64 `json:"mixed_update_ns"`
	Speedup        float64 `json:"speedup"`
	OutputTuples   int     `json:"output_tuples"`
	Inserted       int     `json:"inserted"`
	Deleted        int     `json:"deleted"`
	Recomputed     int     `json:"recomputed_strata"`
}

// BenchIncrReport is the machine-readable output of the incremental
// maintenance smoke (BENCH_PR10.json): for tc, sg and cspa, how much faster
// ApplyDelta maintains the fixpoint under small mixed insert/delete batches
// than rerunning from scratch. Every arm's final resident state is verified
// against a from-scratch evaluation of the mutated EDBs before the numbers
// are reported, so the speedup never prices a wrong answer.
type BenchIncrReport struct {
	Workers    int            `json:"workers"`
	Quick      bool           `json:"quick"`
	Arms       []BenchIncrArm `json:"arms"`
	MinSpeedup float64        `json:"min_speedup"`
}

// incrWorkload pairs a Workload with which EDB the update stream mutates.
type incrWorkload struct {
	w      Workload
	mutate string
}

func benchIncrWorkloads(cfg Config) []incrWorkload {
	if cfg.Quick {
		return []incrWorkload{
			{TCWorkload(GnpSpec{Label: "G400", N: 400, P: 0.012}), "arc"},
			{SGWorkload(GnpSpec{Label: "G250", N: 250, P: 0.016}), "arc"},
			{Workload{
				Name:    "CSPA(synth-150)",
				Program: "cspa",
				EDBs:    pa.CSPASized(pa.CSPAConfig{Vars: 150, AssignPer: 13, DerefRatio: 3, Seed: 13}),
				Output:  "valueFlow",
			}, "assign"},
		}
	}
	return []incrWorkload{
		{TCWorkload(GnpSpec{Label: "G1K", N: 1000, P: 0.01}), "arc"},
		{SGWorkload(GnpSpec{Label: "G500", N: 500, P: 0.012}), "arc"},
		{Workload{
			Name:    "CSPA(synth-300)",
			Program: "cspa",
			EDBs:    pa.CSPASized(pa.CSPAConfig{Vars: 300, AssignPer: 13, DerefRatio: 3, Seed: 13}),
			Output:  "valueFlow",
		}, "assign"},
	}
}

// BenchIncr measures incremental fixpoint maintenance against from-scratch
// re-evaluation: each workload runs the baseline fixpoint a few times, then
// keeps a resident database and applies a stream of insertion batches sized
// at ~0.1% of the mutated EDB via ApplyDelta (the gated speedup), followed
// by mixed insert+delete batches exercising the recompute path. The resident
// state after both streams is checked against a from-scratch run over the
// mutated EDBs.
func BenchIncr(cfg Config) (BenchIncrReport, error) {
	trials, updates := 3, 6
	if cfg.Quick {
		trials, updates = 2, 4
	}
	rep := BenchIncrReport{Workers: cfg.workers(), Quick: cfg.Quick}

	for _, iw := range benchIncrWorkloads(cfg) {
		arm, err := benchIncrArm(cfg, iw, trials, updates)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", iw.w.Name, err)
		}
		rep.Arms = append(rep.Arms, arm)
	}
	rep.MinSpeedup = rep.Arms[0].Speedup
	for _, a := range rep.Arms[1:] {
		if a.Speedup < rep.MinSpeedup {
			rep.MinSpeedup = a.Speedup
		}
	}
	return rep, nil
}

func benchIncrArm(cfg Config, iw incrWorkload, trials, updates int) (BenchIncrArm, error) {
	prog, err := programs.Get(iw.w.Program)
	if err != nil {
		return BenchIncrArm{}, err
	}
	opts := core.DefaultOptions()
	opts.Workers = cfg.workers()

	base, ok := iw.w.EDBs[iw.mutate]
	if !ok {
		return BenchIncrArm{}, fmt.Errorf("workload has no EDB %q", iw.mutate)
	}
	arm := BenchIncrArm{
		Program:   iw.w.Program,
		Workload:  iw.w.Name,
		BaseRows:  base.NumTuples(),
		DeltaRows: max(1, base.NumTuples()/1000),
		Updates:   updates,
	}

	// Mirror of the mutated EDB (set semantics) plus the value domain the
	// fresh insertions draw from.
	mirror := make(map[string][]int32, base.NumTuples())
	var domain int32
	base.ForEach(func(tu []int32) {
		row := append([]int32(nil), tu...)
		mirror[fmt.Sprint(row)] = row
		for _, v := range row {
			if v > domain {
				domain = v
			}
		}
	})
	domain += 2
	arity := base.Arity()

	// Baseline: from-scratch fixpoint over the unmodified EDBs. Run reads
	// the inputs without consuming them, so the same map serves every trial
	// (one untimed warm-up first).
	for i := 0; i <= trials; i++ {
		res, err := core.New(opts).Run(prog, iw.w.EDBs)
		if err != nil {
			return arm, err
		}
		if i > 0 {
			arm.ScratchNs = append(arm.ScratchNs, res.Stats.Duration.Nanoseconds())
		}
		arm.OutputTuples = res.Relations[iw.w.Output].NumTuples()
	}

	// Resident database over a private copy of the EDBs: ApplyDelta mutates
	// the resident relations, so the pristine originals stay usable for the
	// final verification run.
	d, err := core.New(opts).RunIncremental(context.Background(), prog, copyEDBs(iw.w.EDBs))
	if err != nil {
		return arm, err
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(0x10C4))
	freshRows := func(n int) [][]int32 {
		out := make([][]int32, 0, n)
		for len(out) < n {
			row := make([]int32, arity)
			for i := range row {
				row[i] = rng.Int31n(domain)
			}
			if _, dup := mirror[fmt.Sprint(row)]; !dup {
				out = append(out, row)
			}
		}
		return out
	}
	apply := func(ins, del [][]int32) (core.UpdateStats, error) {
		us, err := d.ApplyDelta(iw.mutate, ins, del)
		if err != nil {
			return us, err
		}
		arm.Inserted += us.Inserted
		arm.Deleted += us.Deleted
		arm.Recomputed += us.FallbackStrata
		for _, row := range del {
			delete(mirror, fmt.Sprint(row))
		}
		for _, row := range ins {
			mirror[fmt.Sprint(row)] = row
		}
		return us, nil
	}

	// Measured stream: insertion-only ∆s through the seeded DeltaStep.
	for u := 0; u < updates; u++ {
		us, err := apply(freshRows(arm.DeltaRows), nil)
		if err != nil {
			return arm, fmt.Errorf("insert update %d: %w", u+1, err)
		}
		arm.UpdateNs = append(arm.UpdateNs, us.Duration.Nanoseconds())
	}
	// Coverage stream: mixed batches, whose deletions recompute the strata
	// they reach (reported, not gated — each costs about a rerun).
	for u := 0; u < 2; u++ {
		us, err := apply(freshRows(arm.DeltaRows), sampleRows(mirror, arm.DeltaRows, rng))
		if err != nil {
			return arm, fmt.Errorf("mixed update %d: %w", u+1, err)
		}
		arm.DeleteNs = append(arm.DeleteNs, us.Duration.Nanoseconds())
	}

	// Verify: a from-scratch run over the mutated EDBs must agree with the
	// resident headline IDB before the speedup is worth reporting.
	finalEDBs := copyEDBs(iw.w.EDBs)
	mutated := storage.NewRelation(iw.mutate, storage.NumberedColumns(arity))
	for _, row := range mirror {
		mutated.Append(row)
	}
	finalEDBs[iw.mutate] = mutated
	res, err := core.New(opts).Run(prog, finalEDBs)
	if err != nil {
		return arm, err
	}
	want := res.Relations[iw.w.Output].SortedRows()
	got, ok := d.Relation(iw.w.Output)
	if !ok {
		return arm, fmt.Errorf("resident database lost IDB %q", iw.w.Output)
	}
	if !reflect.DeepEqual(got.SortedRows(), want) {
		return arm, fmt.Errorf("resident %s diverged from the from-scratch evaluation after %d updates", iw.w.Output, updates)
	}

	sort.Slice(arm.ScratchNs, func(i, j int) bool { return arm.ScratchNs[i] < arm.ScratchNs[j] })
	arm.MinScratchNs = arm.ScratchNs[0]
	sorted := append([]int64(nil), arm.UpdateNs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	arm.MedianUpdateNs = sorted[len(sorted)/2]
	arm.Speedup = float64(arm.MinScratchNs) / float64(arm.MedianUpdateNs)
	return arm, nil
}

func copyEDBs(edbs map[string]*storage.Relation) map[string]*storage.Relation {
	out := make(map[string]*storage.Relation, len(edbs))
	for name, r := range edbs {
		c := storage.NewRelation(name, storage.NumberedColumns(r.Arity()))
		r.ForEach(func(tu []int32) { c.Append(append([]int32(nil), tu...)) })
		out[name] = c
	}
	return out
}

// sampleRows picks n distinct present rows from the mirror, iterating keys in
// sorted order so the choice is deterministic for a fixed rng.
func sampleRows(mirror map[string][]int32, n int, rng *rand.Rand) [][]int32 {
	keys := make([]string, 0, len(mirror))
	for k := range mirror {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if n > len(keys) {
		n = len(keys)
	}
	out := make([][]int32, 0, n)
	for _, k := range keys[:n] {
		out = append(out, append([]int32(nil), mirror[k]...))
	}
	return out
}

// WriteBenchIncrReport renders the report as indented JSON at path.
func WriteBenchIncrReport(path string, rep BenchIncrReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BenchIncrTable renders the report as a printable table (the benchrunner's
// human-readable echo of BENCH_PR10.json).
func BenchIncrTable(rep BenchIncrReport) Table {
	tbl := Table{
		Title:  "Incremental maintenance — ApplyDelta vs from-scratch rerun",
		Header: []string{"workload", "base rows", "∆/update", "scratch ms", "insert ms", "speedup", "mixed ms", "recomputed strata"},
	}
	for _, a := range rep.Arms {
		var mixed int64
		for _, ns := range a.DeleteNs {
			mixed += ns
		}
		if len(a.DeleteNs) > 0 {
			mixed /= int64(len(a.DeleteNs))
		}
		tbl.Rows = append(tbl.Rows, []string{
			a.Workload,
			fmt.Sprintf("%d", a.BaseRows),
			fmt.Sprintf("%d", a.DeltaRows),
			fmt.Sprintf("%.1f", float64(a.MinScratchNs)/1e6),
			fmt.Sprintf("%.2f", float64(a.MedianUpdateNs)/1e6),
			fmt.Sprintf("%.0f×", a.Speedup),
			fmt.Sprintf("%.1f", float64(mixed)/1e6),
			fmt.Sprintf("%d", a.Recomputed),
		})
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("speedup = min-of-%d from-scratch trials / median of %d insertion-only ApplyDelta batches (each ∆ ≈ 0.1%% of the mutated EDB)",
			len(rep.Arms[0].ScratchNs), rep.Arms[0].Updates),
		"mixed ms = mean of 2 insert+delete batches; a deletion recomputes every stratum it reaches (reported, not gated: it costs about a rerun)",
		"every arm's resident state re-verified against a from-scratch evaluation of the mutated EDBs")
	return tbl
}
