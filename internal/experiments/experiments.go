// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6). Each figure function returns a printable Table
// whose rows mirror the series the paper plots; cmd/benchrunner prints them
// and bench_test.go wraps them as testing.B benchmarks. Datasets are the
// scaled synthetic families of workloads.go; engine names map to the
// comparator stand-ins of internal/baselines (docs/ARCHITECTURE.md, "`cmd`,
// `examples`, `internal/experiments`"; docs/BENCHMARKS.md, "Running
// benchrunner", lists the exhibits).
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"recstep/internal/baselines/bdd"
	"recstep/internal/baselines/native"
	"recstep/internal/baselines/worklist"
	"recstep/internal/bitmatrix"
	"recstep/internal/core"
	"recstep/internal/obs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/storage"
)

// Engine identifies one evaluated system (or system stand-in).
type Engine string

// The engines compared throughout Section 6. Native stands in for Soufflé,
// Worklist for Graspan, Naive for a no-semi-naive strawman; RecStepNoPBME
// is RecStep with the bit-matrix fast path disabled (Figure 6).
const (
	RecStep       Engine = "recstep"
	RecStepNoPBME Engine = "recstep-nopbme"
	Naive         Engine = "naive"
	Native        Engine = "native(souffle-like)"
	Worklist      Engine = "worklist(graspan-like)"
	BDDB          Engine = "bdd(bddbddb-like)"
)

// AllEngines lists the comparison set in display order.
func AllEngines() []Engine {
	return []Engine{RecStep, Native, Naive, Worklist, BDDB}
}

// ErrUnsupported marks engine × workload combinations the corresponding
// real system cannot express (e.g. Soufflé lacks recursive aggregation, so
// CC/SSSP have no Soufflé bar in Figures 12–13).
var ErrUnsupported = errors.New("workload unsupported by engine")

// ErrOOM marks runs whose estimated footprint exceeds the configured memory
// budget — the scaled-down stand-in for the paper's out-of-memory failures.
var ErrOOM = errors.New("out of memory (budget)")

// ErrTimeout marks runs the corresponding real system could not finish in
// the paper's 10h limit (bddbddb on graphs beyond its variable-ordering
// sweet spot); we cut them off by domain size rather than wall clock.
var ErrTimeout = errors.New("timeout (domain too large)")

// bddDomainCap is the largest active domain the BDD engine attempts for TC;
// beyond it the real bddbddb ran out of time on every such graph.
const bddDomainCap = 700

// Config scales the experiment suite.
type Config struct {
	// Workers bounds evaluation parallelism (0 = GOMAXPROCS).
	Workers int
	// MemBudgetBytes is the simulated memory capacity; hash-based engines
	// whose estimated output exceeds it report ErrOOM, as the real systems
	// did at 160 GB. 0 selects 1 GiB.
	MemBudgetBytes int64
	// Quick shrinks every dataset (used by unit tests and -short benches).
	Quick bool
	// Partitions fixes the radix partition count for hash builds (0 = let
	// the optimizer pick from cardinality, 1 = off).
	Partitions int
	// ManagedBudgetBytes bounds the engine's live block-pool bytes (the
	// -mem-budget flag): exceeding it spills cold partitions of full
	// relations. Distinct from MemBudgetBytes, which models the *simulated*
	// capacity at which the paper's comparison systems OOM.
	ManagedBudgetBytes int64
	// Obs, when set, attaches this Observer to every engine run the
	// experiments make; successive runs re-bind the registry's series, so a
	// benchrunner -metrics-addr listener always shows the run in flight.
	Obs *obs.Observer
	// NoObs disables metrics and phase-timer collection in the engine (the
	// -obs=false ablation; zero value keeps observability on — the engine
	// then makes a private Observer per run). The benchobs experiment
	// measures the difference.
	NoObs bool
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) budget() int64 {
	if c.MemBudgetBytes <= 0 {
		return 1 << 30
	}
	return c.MemBudgetBytes
}

// Workload is one program × dataset instance.
type Workload struct {
	Name     string
	Program  string // key into programs.ByName
	EDBs     map[string]*storage.Relation
	Output   string // headline IDB
	Vertices int    // active-domain size (PBME and OOM estimation); 0 if n/a
	Edges    int    // arc count (OOM estimation); 0 if n/a
}

// Result is one engine × workload measurement.
type Result struct {
	Engine   Engine
	Workload string
	Time     time.Duration
	Tuples   int
	PeakHeap uint64
	AvgCPU   float64
	Err      error
}

// Cell renders the result the way the paper's figures annotate bars.
func (r Result) Cell() string {
	switch {
	case errors.Is(r.Err, ErrUnsupported):
		return "n/a"
	case errors.Is(r.Err, ErrOOM):
		return "OOM"
	case errors.Is(r.Err, ErrTimeout):
		return "timeout"
	case r.Err != nil:
		return "error"
	}
	return fmtDuration(r.Time)
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Run evaluates one workload on one engine.
func Run(engine Engine, w Workload, cfg Config) Result {
	res := Result{Engine: engine, Workload: w.Name}
	if err := checkSupported(engine, w); err != nil {
		res.Err = err
		return res
	}
	if err := checkBudget(engine, w, cfg); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	out, err := evaluate(engine, w, cfg)
	res.Time = time.Since(start)
	if err != nil {
		res.Err = err
		return res
	}
	res.Tuples = out.NumTuples()
	return res
}

// RunSampled is Run plus memory/CPU sampling for the figures that plot
// resource series.
func RunSampled(engine Engine, w Workload, cfg Config) Result {
	res := Result{Engine: engine, Workload: w.Name}
	if err := checkSupported(engine, w); err != nil {
		res.Err = err
		return res
	}
	if err := checkBudget(engine, w, cfg); err != nil {
		res.Err = err
		return res
	}
	var sampler obs.Sampler
	runtime.GC() // stable baseline before sampling
	sampler.Start()
	out, err := evaluate(engine, w, cfg)
	u := sampler.Stop()
	res.Time = u.Wall
	res.PeakHeap = u.PeakHeap
	res.AvgCPU = u.CPUUtil()
	if err != nil {
		res.Err = err
		return res
	}
	res.Tuples = out.NumTuples()
	return res
}

func checkSupported(engine Engine, w Workload) error {
	switch engine {
	case Native:
		// Soufflé does not support recursive aggregation (Table 1), so CC
		// and SSSP are excluded, mirroring the missing bars.
		if w.Program == "cc" || w.Program == "sssp" {
			return ErrUnsupported
		}
	case Worklist:
		// Graspan handles binary-relation grammars only.
		switch w.Program {
		case "tc", "csda", "cspa":
		default:
			return ErrUnsupported
		}
	case BDDB:
		// The BDD engine covers TC and Andersen (bddbddb's home turf); the
		// graph-analytics workloads have vertex counts "too large" for it,
		// mirroring the paper's exclusion of bddbddb from Figures 12–13.
		switch w.Program {
		case "tc", "aa":
		default:
			return ErrUnsupported
		}
		if w.Vertices == 0 {
			return ErrUnsupported
		}
		if w.Program == "tc" && w.Vertices > bddDomainCap {
			return ErrTimeout
		}
	}
	return nil
}

// checkBudget estimates whether a hash-based evaluation of a dense closure
// fits the simulated memory capacity. Only TC and SG have quadratic output.
func checkBudget(engine Engine, w Workload, cfg Config) error {
	if w.Vertices == 0 {
		return nil
	}
	switch w.Program {
	case "tc", "sg":
	default:
		return nil
	}
	if engine == RecStep && pbmeApplies(w, cfg) {
		// The bit matrix needs only n²/8 bytes.
		if !bitmatrix.FitsMemory(w.Vertices, cfg.budget()) {
			return ErrOOM
		}
		return nil
	}
	// Tuple engines hold ~n² closure pairs plus, per iteration, a raw
	// derivation bag with its dedup structures — the blow-up PBME avoids.
	// TC derives up to |∆|·deg tuples per iteration; SG joins arc twice,
	// so its bag reaches |∆|·deg² ("much more memory demanding and
	// computationally expensive", Section 6.3).
	deg := int64(1)
	if w.Vertices > 0 && w.Edges > 0 {
		deg = int64(w.Edges) / int64(w.Vertices)
		if deg < 1 {
			deg = 1
		}
	}
	n2 := int64(w.Vertices) * int64(w.Vertices)
	var est int64
	if w.Program == "sg" {
		est = 8 * n2 * (2 + deg*deg)
	} else {
		est = 8 * n2 * (2 + 4*deg)
	}
	if est > cfg.budget() {
		return ErrOOM
	}
	return nil
}

func pbmeApplies(w Workload, cfg Config) bool {
	return (w.Program == "tc" || w.Program == "sg") && w.Vertices > 0 &&
		bitmatrix.FitsMemory(w.Vertices, cfg.budget())
}

func evaluate(engine Engine, w Workload, cfg Config) (*storage.Relation, error) {
	workers := cfg.workers()
	switch engine {
	case RecStep, RecStepNoPBME:
		if engine == RecStep && pbmeApplies(w, cfg) {
			return runPBME(w, workers)
		}
		opts := core.DefaultOptions()
		opts.Workers = workers
		opts.Partitions = cfg.Partitions
		opts.MemBudgetBytes = cfg.ManagedBudgetBytes
		opts.Obs = cfg.Obs
		opts.DisableObs = cfg.NoObs
		return runCore(opts, w)
	case Naive:
		opts := core.DefaultOptions()
		opts.Workers = workers
		opts.Partitions = cfg.Partitions
		opts.MemBudgetBytes = cfg.ManagedBudgetBytes
		opts.Obs = cfg.Obs
		opts.DisableObs = cfg.NoObs
		opts.Naive = true
		return runCore(opts, w)
	case Native:
		return runNative(w, workers)
	case Worklist:
		return runWorklist(w)
	case BDDB:
		if w.Program == "tc" {
			return bdd.TC(w.EDBs["arc"], w.Vertices)
		}
		return bdd.Andersen(w.EDBs, w.Vertices)
	}
	return nil, fmt.Errorf("experiments: unknown engine %q", engine)
}

func runPBME(w Workload, workers int) (*storage.Relation, error) {
	m, err := bitmatrix.FromEdges(w.EDBs["arc"], w.Vertices)
	if err != nil {
		return nil, err
	}
	if w.Program == "tc" {
		return bitmatrix.TransitiveClosure(m, workers).ToRelation("tc"), nil
	}
	sg := bitmatrix.SameGeneration(m, bitmatrix.SGOptions{Threads: workers})
	return sg.ToRelation("sg"), nil
}

func runCore(opts core.Options, w Workload) (*storage.Relation, error) {
	prog, err := programs.Get(w.Program)
	if err != nil {
		return nil, err
	}
	res, err := core.New(opts).Run(prog, w.EDBs)
	if err != nil {
		return nil, err
	}
	return res.Relations[w.Output], nil
}

func runNative(w Workload, workers int) (*storage.Relation, error) {
	switch w.Program {
	case "tc":
		return native.TC(w.EDBs["arc"], workers), nil
	case "sg":
		return native.SG(w.EDBs["arc"], workers), nil
	case "reach":
		return native.Reach(w.EDBs["arc"], sourceOf(w), workers), nil
	case "aa":
		return native.Andersen(w.EDBs, workers), nil
	case "cspa":
		return native.CSPA(w.EDBs, workers).ValueFlow, nil
	case "csda":
		return native.CSDA(w.EDBs, workers), nil
	}
	return nil, ErrUnsupported
}

func runWorklist(w Workload) (*storage.Relation, error) {
	switch w.Program {
	case "tc":
		return worklist.TC(w.EDBs["arc"]), nil
	case "csda":
		return worklist.CSDA(w.EDBs), nil
	case "cspa":
		vf, _, _ := worklist.CSPA(w.EDBs)
		return vf, nil
	}
	return nil, ErrUnsupported
}

func sourceOf(w Workload) int32 {
	var src int32
	w.EDBs["id"].ForEach(func(t []int32) { src = t[0] })
	return src
}

// DedupOf exposes the dedup strategies for the Figure 2 ablation labels.
var DedupOf = map[string]exec.DedupStrategy{
	"gscht":   exec.DedupGSCHT,
	"lockmap": exec.DedupLockMap,
	"sort":    exec.DedupSort,
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}
