package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"recstep/internal/bitmatrix"
	"recstep/internal/core"
	"recstep/internal/datalog/analysis"
	"recstep/internal/datalog/querygen"
	"recstep/internal/metrics"
	"recstep/internal/programs"
	"recstep/internal/quickstep"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/stats"
)

// AblationConfigs returns the Figure 2/3 configurations in the paper's
// order: full RecStep, each optimization disabled in turn, and everything
// off (RecStep-NO-OP).
func AblationConfigs(workers int) []struct {
	Name string
	Opts core.Options
} {
	mk := func(mut func(*core.Options)) core.Options {
		o := core.DefaultOptions()
		o.Workers = workers
		if mut != nil {
			mut(&o)
		}
		return o
	}
	return []struct {
		Name string
		Opts core.Options
	}{
		{"RecStep", mk(nil)},
		{"UIE-off", mk(func(o *core.Options) { o.UIE = false })},
		{"DSD-off", mk(func(o *core.Options) { o.DSD = core.DSDAlwaysOPSD })},
		{"OOF-FA", mk(func(o *core.Options) { o.OOF = stats.ModeFull })},
		{"EOST-off", mk(func(o *core.Options) { o.EOST = false; o.DisableIO = false })},
		// FAST-DEDUP off also turns the fused delta pipeline off (the engine
		// runs it only under GSCHT): the fused pass *embeds* the CCK-GSCHT
		// dedup, so "the engine without its fast dedup" loses both the
		// structure and the fusion built on it — the bar measures that
		// combined regression, as the real system would experience it.
		{"FASTDEDUP-off", mk(func(o *core.Options) { o.Dedup = exec.DedupLockMap })},
		{"OOF-NA", mk(func(o *core.Options) { o.OOF = stats.ModeNone })},
		{"NO-OP", mk(func(o *core.Options) {
			o.UIE = false
			o.DSD = core.DSDAlwaysOPSD
			o.OOF = stats.ModeNone
			o.EOST = false
			o.DisableIO = false
			o.Dedup = exec.DedupLockMap
		})},
	}
}

// runAblation evaluates one workload under explicit engine options,
// sampling memory.
func runAblation(opts core.Options, w Workload) (time.Duration, uint64, error) {
	if !opts.DisableIO && opts.SpillDir == "" {
		dir, err := os.MkdirTemp("", "recstep-ablate-*")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		opts.SpillDir = dir
	}
	sampler := metrics.NewSampler(2*time.Millisecond, nil)
	opts.OnDB = func(db *quickstep.Database) { sampler.AttachPool(db.Pool()) }
	runtime.GC()
	sampler.Start()
	start := time.Now()
	_, err := runCore(opts, w)
	elapsed := time.Since(start)
	samples := sampler.Stop()
	return elapsed, metrics.PeakHeap(samples), err
}

// Fig2 reproduces the optimization-ablation runtime chart: CSPA on the
// httpd-like dataset, total runtime of each configuration as a percentage
// of RecStep-NO-OP.
func Fig2(cfg Config) Table {
	w := CSPAWorkload("httpd", cfg)
	configs := AblationConfigs(cfg.workers())
	times := make([]time.Duration, len(configs))
	for i, c := range configs {
		t, _, err := runAblation(c.Opts, w)
		if err != nil {
			times[i] = -1
			continue
		}
		times[i] = t
	}
	noop := times[len(times)-1]
	tbl := Table{
		Title:  "Figure 2 — optimization ablation, " + w.Name + " (runtime, % of NO-OP)",
		Header: []string{"config", "time", "% of NO-OP"},
	}
	for i, c := range configs {
		pct := "-"
		if times[i] > 0 && noop > 0 {
			pct = fmt.Sprintf("%.0f%%", 100*float64(times[i])/float64(noop))
		}
		tbl.Rows = append(tbl.Rows, []string{c.Name, fmtDuration(times[i]), pct})
	}
	tbl.Notes = append(tbl.Notes, "paper: RecStep ≈ 24%, OOF-NA ≈ 63%, NO-OP = 100%")
	return tbl
}

// Fig3 reproduces the ablation memory chart: peak heap per configuration.
func Fig3(cfg Config) Table {
	w := CSPAWorkload("httpd", cfg)
	tbl := Table{
		Title:  "Figure 3 — optimization ablation, " + w.Name + " (peak heap)",
		Header: []string{"config", "peak heap (MiB)"},
	}
	for _, c := range AblationConfigs(cfg.workers()) {
		_, peak, err := runAblation(c.Opts, w)
		cell := fmt.Sprintf("%.1f", float64(peak)/(1<<20))
		if err != nil {
			cell = "error"
		}
		tbl.Rows = append(tbl.Rows, []string{c.Name, cell})
	}
	return tbl
}

// Fig4 returns the generated SQL for Andersen's analysis in both unified
// (UIE) and individual form — the side-by-side of Figure 4.
func Fig4() (unified, individual string, err error) {
	prog := programs.MustParse(programs.Andersen)
	res, err := analysis.Analyze(prog)
	if err != nil {
		return "", "", err
	}
	gen := querygen.New(res)
	s := res.Strata[res.Preds["pointsTo"].Stratum]
	qs, err := gen.StratumQueries(s)
	if err != nil {
		return "", "", err
	}
	for _, q := range qs {
		if q.Pred != "pointsTo" {
			continue
		}
		unified = q.Rec.Unified
		var parts string
		for _, p := range q.Rec.Parts {
			parts += p + ";\n"
		}
		parts += q.Rec.Merge + ";"
		return unified + ";", parts, nil
	}
	return "", "", fmt.Errorf("experiments: pointsTo queries not found")
}

// Fig6 reproduces the PBME memory-saving comparison: TC and SG across the
// Gn-p family with and without the bit matrix.
func Fig6(cfg Config) Table {
	tbl := Table{
		Title:  "Figure 6 — PBME memory saving (peak heap, completion)",
		Header: []string{"workload", "PBME", "NON-PBME"},
	}
	specs := GnpFamily(cfg)
	if !cfg.Quick && len(specs) > 5 {
		specs = specs[:5] // up to G2K: non-PBME beyond is OOM by budget anyway
	}
	cell := func(r Result) string {
		if r.Err != nil {
			return r.Cell()
		}
		return fmt.Sprintf("%.1f MiB / %s", float64(r.PeakHeap)/(1<<20), fmtDuration(r.Time))
	}
	for _, program := range []string{"tc", "sg"} {
		for _, spec := range specs {
			var w Workload
			if program == "tc" {
				w = TCWorkload(spec)
			} else {
				w = SGWorkload(spec)
			}
			with := RunSampled(RecStep, w, cfg)
			without := RunSampled(RecStepNoPBME, w, cfg)
			tbl.Rows = append(tbl.Rows, []string{w.Name, cell(with), cell(without)})
		}
	}
	tbl.Notes = append(tbl.Notes, "paper: NON-PBME fails (OOM) on G20K for TC and G10K for SG")
	return tbl
}

// skewedArc builds a graph where a few hub parents have very large child
// sets — the skew regime Figure 7's coordination targets.
func skewedArc(n, hubs, hubDeg, rest int, seed int64) *bitmatrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := bitmatrix.New(n)
	for h := 0; h < hubs; h++ {
		for i := 0; i < hubDeg; i++ {
			m.Set(h, rng.Intn(n))
		}
	}
	for i := 0; i < rest; i++ {
		m.Set(hubs+rng.Intn(n-hubs), rng.Intn(n))
	}
	return m
}

// Fig7 compares SG-PBME with and without work-order coordination on a
// skewed graph.
func Fig7(cfg Config) Table {
	n := 1200
	if cfg.Quick {
		n = 300
	}
	arc := skewedArc(n, 4, n/2, n, 7)
	tbl := Table{
		Title:  "Figure 7 — SG-PBME coordination vs no coordination (skewed graph)",
		Header: []string{"variant", "time", "sg tuples"},
	}
	for _, coord := range []bool{false, true} {
		name := "PBME-NO-COORD"
		if coord {
			name = "PBME-COORD"
		}
		start := time.Now()
		sg := bitmatrix.SameGeneration(arc, bitmatrix.SGOptions{
			Threads: cfg.workers(), Coordinate: coord, Threshold: 2048,
		})
		tbl.Rows = append(tbl.Rows, []string{name, fmtDuration(time.Since(start)), fmt.Sprint(sg.Count())})
	}
	tbl.Notes = append(tbl.Notes,
		"paper: coordination reaches ~100% CPU and finishes earlier; equal memory",
		fmt.Sprintf("run with %d workers on GOMAXPROCS=%d", cfg.workers(), runtime.GOMAXPROCS(0)))
	return tbl
}

// Fig8 reproduces the core-scaling speedup curves: CSPA(httpd) and
// CC(livejournal) runtime across thread counts, normalized to 1 thread.
func Fig8(cfg Config) Table {
	threads := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		threads = []int{1, 2, 4}
	}
	workloads := []Workload{
		CSPAWorkload("httpd", cfg),
		RealWorldWorkload("cc", "livejournal", cfg),
	}
	tbl := Table{
		Title:  "Figure 8 — speedup scaling with threads",
		Header: []string{"workload", "threads", "time", "speedup"},
	}
	for _, w := range workloads {
		var base time.Duration
		for _, th := range threads {
			c := cfg
			c.Workers = th
			r := Run(RecStep, w, c)
			if r.Err != nil {
				tbl.Rows = append(tbl.Rows, []string{w.Name, fmt.Sprint(th), r.Cell(), "-"})
				continue
			}
			if th == threads[0] {
				base = r.Time
			}
			tbl.Rows = append(tbl.Rows, []string{
				w.Name, fmt.Sprint(th), fmtDuration(r.Time),
				fmt.Sprintf("%.2fx", float64(base)/float64(r.Time)),
			})
		}
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("GOMAXPROCS=%d: speedup flattens at the physical core count, as in the paper", runtime.GOMAXPROCS(0)))
	return tbl
}

// Fig9 reproduces data scaling: CC over the RMAT series and Andersen over
// datasets 1–7 (with the theoretical-linear column of Figure 9b).
func Fig9(cfg Config) Table {
	tbl := Table{
		Title:  "Figure 9 — scaling with data size (RecStep)",
		Header: []string{"workload", "input tuples", "time", "theoretical-linear"},
	}
	for _, n := range RMATSeries(cfg) {
		w := RMATWorkload("cc", n)
		r := Run(RecStep, w, cfg)
		tbl.Rows = append(tbl.Rows, []string{w.Name, fmt.Sprint(w.EDBs["arc"].NumTuples()), r.Cell(), "-"})
	}
	datasets := []int{1, 2, 3, 4, 5, 6, 7}
	if cfg.Quick {
		datasets = []int{1, 2, 3}
	}
	var baseTime time.Duration
	var baseSize int
	for _, d := range datasets {
		w := AndersenWorkload(d, cfg)
		size := w.EDBs["assign"].NumTuples()
		r := Run(RecStep, w, cfg)
		linear := "-"
		if d == datasets[0] && r.Err == nil {
			baseTime, baseSize = r.Time, size
		}
		if baseSize > 0 {
			linear = fmtDuration(time.Duration(float64(baseTime) * float64(size) / float64(baseSize)))
		}
		tbl.Rows = append(tbl.Rows, []string{w.Name, fmt.Sprint(size), r.Cell(), linear})
	}
	tbl.Notes = append(tbl.Notes, "paper: flat while cores are underutilized, then ∝ data size")
	return tbl
}

// comparisonTable runs a set of workloads across the comparison engines.
func comparisonTable(title string, workloads []Workload, cfg Config) Table {
	engines := AllEngines()
	tbl := Table{Title: title, Header: []string{"workload"}}
	for _, e := range engines {
		tbl.Header = append(tbl.Header, string(e))
	}
	for _, w := range workloads {
		row := []string{w.Name}
		for _, e := range engines {
			row = append(row, Run(e, w, cfg).Cell())
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// Fig10 reproduces the TC and SG comparison across the Gn-p family.
func Fig10(cfg Config) Table {
	var ws []Workload
	for _, spec := range GnpFamily(cfg) {
		ws = append(ws, TCWorkload(spec))
	}
	for _, spec := range GnpFamily(cfg) {
		ws = append(ws, SGWorkload(spec))
	}
	t := comparisonTable("Figure 10 — TC and SG across engines (Gn-p family)", ws, cfg)
	t.Notes = append(t.Notes, "paper: RecStep (with PBME) is the only system completing every graph")
	return t
}

// Fig11 reproduces the TC/SG memory comparison on the small Gn-p graph.
func Fig11(cfg Config) Table {
	spec := GnpFamily(cfg)[1]
	tbl := Table{
		Title:  "Figure 11 — memory usage, TC and SG on " + spec.Label,
		Header: []string{"workload", "engine", "peak heap (MiB)", "time"},
	}
	for _, w := range []Workload{TCWorkload(spec), SGWorkload(spec)} {
		for _, e := range []Engine{RecStep, Native, Naive} {
			r := RunSampled(e, w, cfg)
			cell := fmt.Sprintf("%.1f", float64(r.PeakHeap)/(1<<20))
			if r.Err != nil {
				cell = r.Cell()
			}
			tbl.Rows = append(tbl.Rows, []string{w.Name, string(e), cell, r.Cell()})
		}
	}
	return tbl
}

// Fig12 reproduces REACH/CC/SSSP over the RMAT series.
func Fig12(cfg Config) Table {
	var ws []Workload
	for _, program := range []string{"reach", "cc", "sssp"} {
		for _, n := range RMATSeries(cfg) {
			ws = append(ws, RMATWorkload(program, n))
		}
	}
	t := comparisonTable("Figure 12 — REACH/CC/SSSP on RMAT graphs", ws, cfg)
	t.Notes = append(t.Notes, "n/a: Soufflé-like engine lacks recursive aggregation (CC, SSSP); worklist is binary-grammar only")
	return t
}

// Fig13 reproduces REACH/CC/SSSP over the real-world-like graphs.
func Fig13(cfg Config) Table {
	var ws []Workload
	names := []string{"livejournal", "orkut", "arabic", "twitter"}
	if cfg.Quick {
		names = names[:1]
	}
	for _, program := range []string{"reach", "cc", "sssp"} {
		for _, name := range names {
			ws = append(ws, RealWorldWorkload(program, name, cfg))
		}
	}
	return comparisonTable("Figure 13 — REACH/CC/SSSP on real-world-like graphs", ws, cfg)
}

// Fig14 reproduces the memory comparison on the livejournal-like graph.
func Fig14(cfg Config) Table {
	tbl := Table{
		Title:  "Figure 14 — memory on livejournal-like graph",
		Header: []string{"workload", "engine", "peak heap (MiB)", "time"},
	}
	for _, program := range []string{"reach", "cc", "sssp"} {
		w := RealWorldWorkload(program, "livejournal", cfg)
		for _, e := range []Engine{RecStep, Native, Naive} {
			r := RunSampled(e, w, cfg)
			cell := fmt.Sprintf("%.1f", float64(r.PeakHeap)/(1<<20))
			if r.Err != nil {
				cell = r.Cell()
			}
			tbl.Rows = append(tbl.Rows, []string{w.Name, string(e), cell, r.Cell()})
		}
	}
	return tbl
}

// Fig15 reproduces the program-analysis comparison: AA on datasets 1–7,
// CSDA and CSPA on the three system programs.
func Fig15(cfg Config) Table {
	var ws []Workload
	datasets := []int{1, 2, 3, 4, 5, 6, 7}
	systems := []string{"linux", "postgresql", "httpd"}
	if cfg.Quick {
		datasets = []int{1, 2}
		systems = []string{"httpd"}
	}
	for _, d := range datasets {
		ws = append(ws, AndersenWorkload(d, cfg))
	}
	for _, s := range systems {
		ws = append(ws, CSDAWorkload(s, cfg))
	}
	for _, s := range systems {
		ws = append(ws, CSPAWorkload(s, cfg))
	}
	t := comparisonTable("Figure 15 — program analyses across engines", ws, cfg)
	t.Notes = append(t.Notes,
		"paper: RecStep wins AA and CSPA(linux/postgresql); CSDA's many cheap iterations favour the native engine (per-query overhead)")
	return t
}

// Fig16 reproduces the CPU-utilization comparison on program analyses.
func Fig16(cfg Config) Table {
	tbl := Table{
		Title:  "Figure 16 — CPU utilization on program analyses",
		Header: []string{"workload", "engine", "avg CPU util", "time"},
	}
	ws := []Workload{AndersenWorkload(5, cfg), CSPAWorkload("linux", cfg), CSPAWorkload("httpd", cfg)}
	if cfg.Quick {
		ws = ws[:1]
	}
	for _, w := range ws {
		for _, e := range []Engine{RecStep, Naive} {
			r := RunSampled(e, w, cfg)
			tbl.Rows = append(tbl.Rows, []string{
				w.Name, string(e), fmt.Sprintf("%.0f%%", 100*r.AvgCPU), r.Cell(),
			})
		}
	}
	tbl.Notes = append(tbl.Notes, "native engine uses raw goroutines (no instrumented pool): utilization not sampled")
	return tbl
}
