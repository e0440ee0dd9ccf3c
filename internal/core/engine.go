// Package core implements the RecStep interpreter — the paper's primary
// contribution. It drives semi-naive, stratified Datalog evaluation
// (Algorithm 1) over the QuickStep-like substrate, with every optimization
// from Section 5 individually toggleable for the ablation experiments:
//
//   - UIE   — unified IDB evaluation (one UNION ALL query per IDB)
//   - OOF   — optimization on the fly (selective per-iteration ANALYZE;
//     the -NA and -FA ablations use no / full statistics)
//   - DSD   — dynamic set difference (OPSD vs TPSD by the cost model)
//   - EOST  — evaluation as one single transaction (deferred write-back)
//   - FAST-DEDUP — CCK-GSCHT deduplication (vs locked map / sort)
//
// Recursive aggregation (MIN/MAX inside recursion, used by CC and SSSP) is
// evaluated with a monotone aggregate-merge step in place of dedup + set
// difference.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"recstep/internal/datalog/analysis"
	"recstep/internal/datalog/ast"
	"recstep/internal/datalog/querygen"
	"recstep/internal/faultinject"
	"recstep/internal/obs"
	"recstep/internal/quickstep"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/memory"
	"recstep/internal/quickstep/optimizer"
	"recstep/internal/quickstep/plan"
	"recstep/internal/quickstep/stats"
	"recstep/internal/quickstep/storage"
)

// DSDMode selects the set-difference policy.
type DSDMode int

const (
	// DSDDynamic chooses OPSD/TPSD per iteration via the cost model.
	DSDDynamic DSDMode = iota
	// DSDAlwaysOPSD forces the one-phase algorithm (QuickStep's default —
	// the paper's DSD-off ablation).
	DSDAlwaysOPSD
	// DSDAlwaysTPSD forces the two-phase algorithm.
	DSDAlwaysTPSD
)

// Options configures an Engine. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	Workers int
	// UIE emits one unified query per IDB; false issues one query per
	// subquery plus a merge (Figure 4's individual evaluation).
	UIE bool
	// OOF selects which statistics each iteration refreshes:
	// ModeSelective (RecStep), ModeNone (OOF-NA), ModeFull (OOF-FA).
	OOF stats.Mode
	// DSD selects the set-difference policy.
	DSD DSDMode
	// EOST defers write-back to a single final commit.
	EOST bool
	// Dedup selects the deduplication implementation. GSCHT runs the fused
	// partition-native delta step: the join output is scattered at the source
	// into radix partitions and one per-partition pass replaces dedup, set
	// difference and the delta materialization. The lock-map and sort
	// baselines run the staged pipeline, which materializes Rδ.
	Dedup exec.DedupStrategy
	// Partitions fixes the radix partition count for hash builds (joins,
	// set difference, aggregation): 0 lets the optimizer pick 1/16/64/256
	// per operator from cardinality estimates, 1 disables partitioning.
	Partitions int
	// Alpha is the calibrated build/probe cost ratio for DSD (0 = default).
	Alpha float64
	// Naive disables semi-naive evaluation: every iteration re-evaluates
	// every rule against the full relations (the baseline of Section 3.2).
	Naive bool
	// MaxIterations bounds each stratum's fixpoint loop (safety valve).
	MaxIterations int
	// MemBudgetBytes bounds live block-pool bytes (the -mem-budget flag).
	// When exceeded, cold partitions of the full recursive relations spill
	// to temp files, LRU by last-probed iteration, and the optimizer shrinks
	// radix fan-out; 0 disables the budget. Block recycling and per-category
	// accounting are always on.
	MemBudgetBytes int64
	// SpillDir and DisableIO control the simulated write-back target.
	SpillDir  string
	DisableIO bool
	// Obs is the run's observability attach point: its registry backs the
	// /metrics and /statusz endpoints, its exec metrics receive the pool's
	// phase timers and histograms, and its tracer (if any) collects the
	// per-phase trace. Nil makes the engine create a private Observer, so
	// Stats.PhaseDurations and the histograms are populated even without a
	// caller-supplied one; set DisableObs to suppress that (the overhead
	// ablation). A long-lived Observer may be reused across Runs — engine
	// registrations replace their prior bindings by metric name.
	Obs *obs.Observer
	// DisableObs turns off all metrics and phase-timer collection when Obs
	// is nil (the -obs=false ablation: phase closures collapse to no-ops on
	// the hot path).
	DisableObs bool
	// IterHook, when set, is called synchronously after every (stratum,
	// iteration, IDB) evaluation step with that step's IterInfo. It runs on
	// the engine goroutine between steps — a scrape-friendly point to copy
	// counters out, but work done here extends the fixpoint's wall time.
	IterHook func(IterInfo)
	// OnDB, when set, receives the database right after it opens and before
	// any evaluation. Use it to attach samplers that need the *Database
	// itself (catalog walks, memory snapshots); metrics that the engine
	// already exports ride Obs instead.
	OnDB func(*quickstep.Database)
	// FaultInject installs chaos-test fault triggers (spill writes, fault
	// reads, allocation accounting, worker panics) throughout the substrate.
	// Nil — the production default — leaves every trigger point inert.
	FaultInject *faultinject.Injector
}

// DefaultOptions returns the all-optimizations-on configuration the paper
// calls "RecStep".
func DefaultOptions() Options {
	return Options{
		UIE:           true,
		OOF:           stats.ModeSelective,
		DSD:           DSDDynamic,
		EOST:          true,
		Dedup:         exec.DedupGSCHT,
		MaxIterations: 1 << 20,
		DisableIO:     true,
	}
}

// IterInfo describes one IDB evaluation step for tracing and experiments.
type IterInfo struct {
	Stratum   int
	Iteration int
	Pred      string
	TmpTuples int
	Delta     int
	// DeltaParts is the radix fan-out this step's fused delta pipeline ran
	// at; 0 when the step ran none (no live arm, an aggregate merge, or the
	// staged pipeline of the FAST-DEDUP baselines).
	DeltaParts int
	Algo       exec.DiffAlgorithm
	// Copy holds this step's copy- and rescan-accounting deltas: tuples
	// scattered into partitions, tuples adopted without copy, flat
	// materializations of pipeline intermediates (zero per iteration under
	// the fused pipeline), rows of R and of join probe sides re-read, and
	// whether a resident index or a cached build served the step.
	Copy exec.CopySnapshot
	// Mem is a point-in-time reading of the memory manager after the step:
	// live pool bytes by category, budget headroom, spill/fault counters.
	Mem memory.Snapshot
	// ArmsSkipped counts the UNION ALL arms this step dropped before
	// planning because their seeding ∆ relation was empty.
	ArmsSkipped int
	// Phase attributes this step's wall time to fixpoint phases (scatter,
	// build, probe, delta, …) — the per-step delta of the run's phase
	// timers. All zeros when observability is disabled.
	Phase obs.PhaseSnapshot
}

// Stats aggregates counters over one Run.
type Stats struct {
	Iterations  int
	Queries     int64
	DiffOPSD    int
	DiffTPSD    int
	TmpTuples   int64
	DeltaTuples int64
	// Copy accounting over the whole run (Section "partition-native
	// pipeline"): how many tuples were copied by partition scatters, how
	// many were installed by block adoption without copying, and how many
	// flat materializations of tmp/Rδ the delta pipeline performed.
	TuplesScattered      int64
	TuplesAdopted        int64
	FlatMaterializations int64
	// Join-build scatter accounting (the join-key-carried partitionings):
	// how many hash builds had to scatter their input versus how many were
	// served in place from a carried or cached partitioned view.
	JoinBuildScatters        int64
	JoinBuildScattersAvoided int64
	// JoinBuildsByKeyset breaks the build counters down by (relation,
	// keyset) — see exec.BuildKey — so the copy experiments can show
	// exactly which predicate and join shape still pays per-iteration
	// build scatters.
	JoinBuildsByKeyset map[string]exec.BuildCount
	// JoinOrdersByRule records, per rule arm (branch name), the atoms in
	// textual order, the join order the optimizer last chose, the strategy
	// (greedy / wcoj) and how many iterations ran it.
	JoinOrdersByRule map[string]quickstep.PlanChoice
	// WCOJRules lists the arms evaluated by the leapfrog join.
	WCOJRules []string
	// Rescan accounting — the counts behind "one iteration costs
	// O(|∆| + |join output|)", exact at one worker and independent of the
	// clock. SetDiffRowsScanned is the rows of full relations set difference
	// read or re-inserted (|R| per transient pass or index re-seed, nothing
	// for a pass a resident index served); JoinProbeRows the probe-side rows
	// hash joins scanned. ResidentIndexHits/ResidentIndexReseeds split the
	// fused delta passes that ran against a resident index by whether it was
	// already there; CachedBuildHits counts joins served by a build table
	// cached on an iteration-invariant relation. IterInfo.Copy carries the
	// same five per step.
	SetDiffRowsScanned   int64
	JoinProbeRows        int64
	ResidentIndexHits    int64
	ResidentIndexReseeds int64
	CachedBuildHits      int64
	// Join-output accounting. JoinRowsExpanded is the rows joins produced
	// before the duplicate filter of a set-valued output, DupSuppressed the
	// rows that filter dropped before they were written anywhere, and
	// DupFilterBypassed the output windows flushed after a worker had switched
	// its filter off for want of hits. TmpTuples above stays what reached the
	// tmp tables; DupSuppressed / JoinRowsExpanded is the filter's hit share.
	// IterInfo.Copy carries the same three per step.
	JoinRowsExpanded  int64
	DupSuppressed     int64
	DupFilterBypassed int64
	// OutputInPlace is the join output rows written straight into their probe
	// row's partition — the probe side carried the output's partitioning
	// through the projection — with no scatter; they are not in
	// TuplesScattered. IterInfo.Copy carries it per step.
	OutputInPlace int64
	// AggRowsIn is the rows the aggregate operator folded into its group
	// tables and AggGroupsOut the groups it emitted; both read 0 on a
	// program without aggregates. IterInfo.Copy carries both per step.
	AggRowsIn    int64
	AggGroupsOut int64
	// Carry records, per IDB predicate evaluated by the delta pipeline, the
	// keysets its carried partitioning routed on and the rule that chose
	// them (the last stratum evaluation's choice).
	Carry map[string]CarryChoice
	// FanOut records, per predicate in Carry, every delta-pipeline fan-out
	// it entered and the iteration it entered it in (the last stratum
	// evaluation's sequence; empty for a predicate the fused pipeline never
	// ran). The fan-out only grows within a stratum.
	FanOut map[string][]FanOutStep
	// ArmsSkipped counts UNION ALL arms skipped across the run because
	// their seeding ∆ relation was empty (the early-exit arm filter).
	ArmsSkipped int64
	// PeakJoinIntermediate is the largest non-final pairwise join
	// intermediate materialized anywhere in the run (rows) — the blow-up
	// gauge the WCOJ path exists to keep bounded.
	PeakJoinIntermediate int64
	// Mem is the final memory-manager snapshot: peak live pool bytes, live
	// bytes by category, pool hit/miss counts and spill/fault totals — the
	// observability the paper's memory figures (3, 11, 14) rely on.
	Mem      memory.Snapshot
	Duration time.Duration
	// StratumDurations holds each stratum's fixpoint wall time, in stratum
	// order.
	StratumDurations []time.Duration
	// Splits lists the rule splits the analyzer made (analysis.Split): each
	// rule body that lost a dead join variable through an auxiliary IDB.
	Splits []analysis.Split
	// PhaseDurations attributes the run's wall time to fixpoint phases
	// (scatter, build, probe, delta, aggregate, spill, fault, leapfrog),
	// keyed by phase name; zero phases are omitted. Empty when
	// observability is disabled. Phases overlap across pool workers, so the
	// sum can exceed Duration.
	PhaseDurations map[string]time.Duration
}

// CarryChoice is one predicate's carried keyset: Keys routes the delta
// pipeline, R and ∆R; Rule says what chose it — "output" (pass-through
// columns), "join" (the keys its hash builds use) or "whole-tuple".
type CarryChoice struct {
	Keys []int
	Rule string
}

// String renders the choice the way recstep -v prints it, e.g. "[0] (output)".
func (c CarryChoice) String() string {
	return fmt.Sprintf("%v (%s)", c.Keys, c.Rule)
}

// FanOutStep is one delta-pipeline fan-out a predicate entered: Parts
// partitions from iteration Iteration of its stratum on.
type FanOutStep struct {
	Parts, Iteration int
}

// CarryLine renders Carry the way recstep -v prints it after "carry:", one
// "pred keys (rule)" entry per predicate in name order, e.g. "tc [0] (output)".
func (s Stats) CarryLine() string {
	preds := slices.Sorted(maps.Keys(s.Carry))
	out := make([]string, len(preds))
	for i, pred := range preds {
		out[i] = pred + " " + s.Carry[pred].String()
	}
	return strings.Join(out, "; ")
}

// FanOutLine renders FanOut the way recstep -v prints it after "fan-out:",
// each predicate in name order followed by every fan-out it entered and the
// iteration it entered it in, e.g. "tc 1@1 16@2 64@3".
func (s Stats) FanOutLine() string {
	preds := slices.Sorted(maps.Keys(s.FanOut))
	out := make([]string, len(preds))
	for i, pred := range preds {
		var b strings.Builder
		b.WriteString(pred)
		for _, step := range s.FanOut[pred] {
			fmt.Fprintf(&b, " %d@%d", step.Parts, step.Iteration)
		}
		out[i] = b.String()
	}
	return strings.Join(out, "; ")
}

// Result is the outcome of evaluating a program.
type Result struct {
	// Relations maps every IDB predicate of the program to its final
	// relation; the auxiliary predicates of rule splitting are not in it.
	Relations map[string]*storage.Relation
	Stats     Stats
}

// Engine evaluates Datalog programs.
type Engine struct {
	opts Options
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 1 << 20
	}
	return &Engine{opts: opts}
}

// Run analyzes and evaluates a program. edbs supplies input relations by
// predicate name (inline program facts are added on top).
func (e *Engine) Run(prog *ast.Program, edbs map[string]*storage.Relation) (*Result, error) {
	return e.RunContext(context.Background(), prog, edbs)
}

// RunContext is Run with a cancellation context threaded through every worker
// loop: cancellation (or a deadline) aborts the fixpoint at the next
// task/partition boundary — within one iteration at the engine level. An
// aborted run returns the context's error together with a non-nil *Result
// whose Stats cover the partial run; every cataloged relation is released
// first, so the caller observes zero live pooled bytes. The same teardown
// serves runs aborted by a contained worker panic or a fatal memory-manager
// failure (failed allocation, unreadable spill file).
func (e *Engine) RunContext(ctx context.Context, prog *ast.Program, edbs map[string]*storage.Relation) (*Result, error) {
	run, err := e.prepare(ctx, prog)
	if err != nil {
		return nil, err
	}
	defer run.db.Close()
	if evalErr := run.evaluate(edbs); evalErr != nil {
		return run.abort(evalErr), evalErr
	}

	// Snapshot the manager before result delivery: Stats.Mem reports the
	// *evaluation* footprint, and restoring spilled results for the caller
	// necessarily re-materializes all of R.
	run.stats.Mem = run.db.MemSnapshot()

	// Auxiliary IDBs from rule splitting stay behind: IDBNames leaves them out.
	out := &Result{Relations: make(map[string]*storage.Relation)}
	// Result relations outlive the database (and its spill directory): seal
	// eviction — restoring one result must not re-spill another — then fault
	// every cold partition back in before Close removes the files.
	run.db.Mem().StopSpilling()
	for _, name := range run.res.IDBNames() {
		rel := run.db.Catalog().MustGet(name)
		rel.Restore()
		// The caller gets tuples, not the fixpoint's working structures: a
		// resident index would ride along at three times the relation's size.
		rel.DropAttachments()
		out.Relations[name] = rel
	}
	// Restoring results is itself fallible I/O: a fault failure here is
	// recorded as the run error, and delivering partially-restored relations
	// as success would be silent corruption.
	if err := run.db.Err(); err != nil {
		return run.abort(err), err
	}
	run.collectStats()
	out.Stats = run.stats
	return out, nil
}

// prepare analyzes the program, opens the substrate database and assembles
// the runState shared by RunContext and RunIncremental. On success the
// caller owns run.db and is responsible for closing it.
func (e *Engine) prepare(ctx context.Context, prog *ast.Program) (*runState, error) {
	res, err := analysis.Analyze(prog)
	if err != nil {
		return nil, err
	}
	for name, pi := range res.Preds {
		if !pi.Aux && strings.HasSuffix(name, analysis.AuxSuffix) {
			return nil, fmt.Errorf("core: predicate name %q collides with the auxiliary-predicate suffix %q", name, analysis.AuxSuffix)
		}
		if strings.HasSuffix(name, querygen.DeltaSuffix) || strings.HasSuffix(name, querygen.TmpSuffix) {
			return nil, fmt.Errorf("core: predicate name %q collides with engine table suffixes", name)
		}
		for _, suf := range querygen.UpdateSuffixes {
			if strings.HasSuffix(name, suf) {
				return nil, fmt.Errorf("core: predicate name %q collides with incremental-update table suffixes", name)
			}
		}
	}

	// A caller-supplied Observer survives the Run (cmd/recstep serves it
	// over HTTP for the whole process); otherwise the engine makes a
	// private one so phase timers and Stats.PhaseDurations work out of the
	// box. DisableObs suppresses even that — the zero-instrumentation
	// ablation the benchobs experiment compares against.
	ob := e.opts.Obs
	if ob == nil && !e.opts.DisableObs {
		ob = obs.New()
	}

	db, err := quickstep.Open(quickstep.Options{
		Workers:        e.opts.Workers,
		Dedup:          e.opts.Dedup,
		EOST:           e.opts.EOST,
		SpillDir:       e.opts.SpillDir,
		DisableIO:      e.opts.DisableIO,
		Partitions:     e.opts.Partitions,
		MemBudgetBytes: e.opts.MemBudgetBytes,
		Obs:            ob,
		FaultInject:    e.opts.FaultInject,
	})
	if err != nil {
		return nil, err
	}
	db.SetContext(ctx)
	if e.opts.OnDB != nil {
		e.opts.OnDB(db)
	}

	run := &runState{
		engine: e,
		db:     db,
		res:    res,
		gen:    querygen.New(res),
		start:  time.Now(),
		ob:     ob,
		stats:  Stats{Splits: res.Splits},
	}
	if ob != nil {
		if ob.Exec != nil {
			run.phaseBase = ob.Exec.Phase.Snapshot()
			run.lastPhase = run.phaseBase
		}
		if ob.Reg != nil {
			run.em = &engineMetrics{}
			run.em.register(ob.Reg)
		}
	}
	return run, nil
}

// evaluate runs the full from-scratch fixpoint — EDB load, IDB creation,
// every stratum, final commit — with engine-goroutine panic containment.
func (r *runState) evaluate(edbs map[string]*storage.Relation) error {
	evalErr := func() (err error) {
		// Last-resort containment: the pool's worker guard and runQuery's
		// branch recover catch panics on their goroutines, but the engine
		// goroutine itself runs serial operator paths too. A panic here
		// becomes an error so the process survives and tears down cleanly.
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("core: evaluation panic: %v\n%s", v, debug.Stack())
			}
		}()
		if err := r.loadEDBs(edbs); err != nil {
			return err
		}
		if err := r.createIDBs(); err != nil {
			return err
		}
		for _, s := range r.res.Strata {
			if err := r.evalStratum(s); err != nil {
				return err
			}
		}
		return r.db.FinalCommit()
	}()
	if evalErr == nil {
		// An abort recorded after the last boundary check (or surfaced by a
		// kernel call that returns no error) must not pass for success.
		evalErr = r.db.Err()
	}
	return evalErr
}

// collectStats fills the counter-derived Stats fields from the database's
// accounting. Called once per Run on the success path.
func (r *runState) collectStats() {
	r.stats.Queries = r.db.QueriesIssued()
	copySnap := r.db.CopySnapshot()
	r.stats.TuplesScattered = copySnap.Scattered
	r.stats.TuplesAdopted = copySnap.Adopted
	r.stats.FlatMaterializations = copySnap.FlatMats
	r.stats.JoinBuildScatters = copySnap.BuildScatters
	r.stats.JoinBuildScattersAvoided = copySnap.BuildScattersAvoided
	r.stats.JoinBuildsByKeyset = copySnap.BuildDetail
	r.stats.SetDiffRowsScanned = copySnap.SetDiffRowsScanned
	r.stats.JoinProbeRows = copySnap.JoinProbeRows
	r.stats.ResidentIndexHits = copySnap.ResidentIndexHits
	r.stats.ResidentIndexReseeds = copySnap.ResidentIndexReseeds
	r.stats.CachedBuildHits = copySnap.CachedBuildHits
	r.stats.JoinRowsExpanded = copySnap.JoinRowsExpanded
	r.stats.DupSuppressed = copySnap.DupSuppressed
	r.stats.DupFilterBypassed = copySnap.DupFilterBypassed
	r.stats.OutputInPlace = copySnap.OutputInPlace
	r.stats.AggRowsIn = copySnap.AggRowsIn
	r.stats.AggGroupsOut = copySnap.AggGroupsOut
	r.stats.JoinOrdersByRule = r.db.PlanChoices()
	for name, pc := range r.stats.JoinOrdersByRule {
		if pc.Strategy == "wcoj" {
			r.stats.WCOJRules = append(r.stats.WCOJRules, name)
		}
	}
	sort.Strings(r.stats.WCOJRules)
	r.stats.PeakJoinIntermediate = r.db.PeakJoinIntermediate()
	r.stats.Duration = time.Since(r.start)
	if r.ob != nil && r.ob.Exec != nil {
		// Attribute only this Run's share: a reused Observer's timers carry
		// earlier runs too.
		r.stats.PhaseDurations = r.ob.Exec.Phase.Snapshot().Sub(r.phaseBase).Map()
	}
}

// abort is the failed-run teardown: it releases every cataloged relation (and
// with them all pooled blocks and spill files), classifies the cause for the
// cancellation counter, and packages the partial run's Stats. The memory
// snapshot is taken *after* the release, so Stats.Mem.LiveTotal reads zero —
// the "no leaked blocks" guarantee the chaos suite asserts.
func (r *runState) abort(cause error) *Result {
	if r.em != nil && (errors.Is(cause, context.Canceled) || errors.Is(cause, context.DeadlineExceeded)) {
		r.em.cancelled.Add(1)
	}
	r.db.ReleaseAll()
	r.stats.Mem = r.db.MemSnapshot()
	r.stats.Queries = r.db.QueriesIssued()
	r.stats.PeakJoinIntermediate = r.db.PeakJoinIntermediate()
	r.stats.Duration = time.Since(r.start)
	if r.ob != nil && r.ob.Exec != nil {
		r.stats.PhaseDurations = r.ob.Exec.Phase.Snapshot().Sub(r.phaseBase).Map()
	}
	return &Result{Stats: r.stats}
}

// engineMetrics are the fixpoint-loop counters and gauges the engine itself
// exports (the substrate's counters register from database.Open). Counters
// and gauges are atomics, so the HTTP scraper reads them mid-fixpoint
// without synchronizing with the engine goroutine.
type engineMetrics struct {
	iterations  obs.Counter
	tmpTuples   obs.Counter
	deltaTuples obs.Counter
	armsSkipped obs.Counter
	diffOPSD    obs.Counter
	diffTPSD    obs.Counter
	cancelled   obs.Counter
	stratum     obs.Gauge
	iteration   obs.Gauge
}

func (m *engineMetrics) register(reg *obs.Registry) {
	reg.RegisterCounter("recstep_iterations_total",
		"Fixpoint iterations completed across all strata.", &m.iterations)
	reg.RegisterCounter("recstep_tmp_tuples_total",
		"Duplicate-inclusive tuples materialized into tmp tables by uieval.", &m.tmpTuples)
	reg.RegisterCounter("recstep_delta_tuples_total",
		"Genuinely new tuples admitted into ∆ relations.", &m.deltaTuples)
	reg.RegisterCounter("recstep_arms_skipped_total",
		"UNION ALL arms dropped before planning because their seeding ∆ was empty.", &m.armsSkipped)
	reg.RegisterCounter("recstep_diff_opsd_total",
		"Set-difference steps run with the one-phase algorithm.", &m.diffOPSD)
	reg.RegisterCounter("recstep_diff_tpsd_total",
		"Set-difference steps run with the two-phase algorithm.", &m.diffTPSD)
	reg.RegisterCounter("recstep_fixpoint_cancelled_total",
		"Fixpoint runs aborted by context cancellation or deadline.", &m.cancelled)
	reg.RegisterGauge("recstep_current_stratum",
		"Stratum index the fixpoint loop is currently evaluating.", &m.stratum)
	reg.RegisterGauge("recstep_current_iteration",
		"Iteration number within the current stratum.", &m.iteration)
}

// runState carries the per-Run evaluation context.
type runState struct {
	engine *Engine
	db     *quickstep.Database
	res    *analysis.Result
	gen    *querygen.Generator
	stats  Stats
	start  time.Time
	// ob is the run's observer (possibly engine-private); em holds the
	// engine-level registry instruments, nil when no registry is attached.
	ob *obs.Observer
	em *engineMetrics
	// phaseBase is the phase-timer reading at Run start (a reused Observer
	// carries earlier runs' time); lastPhase is the reading after the
	// previous evaluation step, for IterInfo's per-step attribution.
	phaseBase obs.PhaseSnapshot
	lastPhase obs.PhaseSnapshot
	// incremental marks ApplyDelta evaluation: delta partitioning mirrors
	// each full relation's carried layout instead of re-deriving a fan-out
	// from (tiny) update cardinalities.
	incremental bool
}

// tracer returns the run's tracer; nil (inert) when tracing is off.
func (r *runState) tracer() *obs.Tracer {
	if r.ob == nil {
		return nil
	}
	return r.ob.Tracer
}

func (r *runState) opts() Options { return r.engine.opts }

// loadEDBs registers input relations (re-wrapped onto engine column names)
// plus inline facts.
func (r *runState) loadEDBs(edbs map[string]*storage.Relation) error {
	for _, name := range r.res.EDBNames() {
		pi := r.res.Preds[name]
		rel := storage.NewRelation(name, storage.NumberedColumns(pi.Arity))
		rel.SetLifecycle(r.db.Alloc(), storage.CatEDB)
		if in, ok := edbs[name]; ok {
			if in.Arity() != pi.Arity {
				return fmt.Errorf("core: EDB %q has arity %d, program expects %d", name, in.Arity(), pi.Arity)
			}
			rel.AppendRelation(in)
		}
		for _, f := range r.res.Program.Facts[name] {
			rel.Append(f)
		}
		if err := r.db.Install(rel); err != nil {
			return err
		}
		// Base tables get analyzed once up front; OOF decides per-iteration
		// refreshes for derived tables.
		r.db.AnalyzeRelation(rel, stats.ModeSelective)
	}
	for pred := range edbs {
		if _, ok := r.res.Preds[pred]; !ok {
			return fmt.Errorf("core: EDB %q is not referenced by the program", pred)
		}
	}
	return nil
}

func (r *runState) createIDBs() error {
	for _, name := range r.res.AllIDBNames() {
		pi := r.res.Preds[name]
		full := storage.NewRelation(name, storage.NumberedColumns(pi.Arity))
		full.SetLifecycle(r.db.Alloc(), storage.CatIDB)
		if err := r.db.Install(full); err != nil {
			return err
		}
		// Under a memory budget, the full relation's cold carried-view
		// partitions become evictable (LRU by last-probed iteration).
		r.db.MarkSpillable(name)
		delta := storage.NewRelation(querygen.DeltaTable(name), storage.NumberedColumns(pi.Arity))
		delta.SetLifecycle(r.db.Alloc(), storage.CatDelta)
		if err := r.db.Install(delta); err != nil {
			return err
		}
	}
	return nil
}

// evalStratum runs Algorithm 1's inner loop for one stratum.
func (r *runState) evalStratum(s analysis.Stratum) error {
	return r.evalStratumWith(s, nil, nil)
}

// evalStratumWith is evalStratum with two incremental-maintenance hooks:
// seed, when non-nil, replaces iteration 1's Init unit per IDB (ApplyDelta's
// insertion phase starts from the injected ∆ instead of ⊥ — absent entries
// evaluate nothing, converging immediately for unaffected predicates), and
// onDelta fires after every non-empty installed ∆ so the update can
// accumulate the net insertions. Iterations past the first run the ordinary
// Rec units either way.
func (r *runState) evalStratumWith(s analysis.Stratum, seed map[string]querygen.UnitQueries, onDelta func(pred string, delta *storage.Relation) error) error {
	stratumStart := time.Now()
	if r.em != nil {
		r.em.stratum.Set(int64(s.Index))
		r.em.iteration.Set(0)
	}
	endStratum := r.tracer().Span("stratum", 0, obs.Step{Stratum: s.Index}, -1)
	defer func() {
		endStratum()
		r.stats.StratumDurations = append(r.stats.StratumDurations, time.Since(stratumStart))
	}()

	queries, err := r.gen.StratumQueries(s)
	if err != nil {
		return err
	}

	// Per-IDB evaluation state. Every unit the loop runs is bound here, once:
	// the tables its arms read all exist by now (the tmp table is only the
	// insert target), so the iterations execute bound plans and never touch
	// SQL text. Join order is still chosen per iteration, on live
	// cardinalities, when a branch runs.
	states := make(map[string]*idbState, len(queries))
	for i := range queries {
		q := &queries[i]
		st := &idbState{
			q:       q,
			cols:    storage.NumberedColumns(q.Arity),
			chooser: optimizer.NewDiffChooser(r.opts().Alpha),
		}
		if err := r.bindStratumUnits(st, seed); err != nil {
			return err
		}
		if q.RecursiveAgg {
			st.agg = newAggMerge(r.res.Preds[q.Pred].Agg, q.Arity)
			st.agg.fixedParts = r.opts().Partitions
			// Naive evaluation always reads the full relation, so the
			// aggregate's materialization must track every iteration.
			st.rebuildEachIter = r.opts().Naive || r.aggNeedsFullRebuild(s, q.Pred)
		}
		states[q.Pred] = st
	}

	// Join-key-carried partitionings: bind the stratum's recursive queries
	// once (no execution) to learn which key columns the fixpoint's joins
	// build on, then fix each predicate's carried keyset for the whole
	// stratum — the same descriptor then serves the fused scatter, the
	// delta step, ∆R, R's carried view and the next iteration's hash
	// builds. A predicate's keysets come from every query of the stratum
	// (its delta feeds other predicates' rules too). The keyset must stay
	// stable across iterations: R ⊎ ∆R merges carried views only when their
	// partitionings match.
	// A linear recursive predicate that passes columns of its body atom
	// through to the head is carried on those instead, at every worker count
	// (optimizer.ChooseCarry): the task probing a partition of ∆ then writes
	// its join output into that same partition.
	carrying := !r.opts().Naive
	usage := make(map[string][][]int)
	for i := range queries {
		rec := states[queries[i].Pred].rec
		if !carrying || rec.query == nil {
			continue
		}
		for table, keysets := range quickstep.PlanJoinKeys(rec.query) {
			usage[table] = append(usage[table], keysets...)
		}
	}
	for _, st := range states {
		c := CarryChoice{Keys: storage.AllCols(st.q.Arity), Rule: string(optimizer.CarryWholeTuple)}
		if carrying {
			keysets := append(append([][]int{}, usage[st.q.Pred]...), usage[st.q.Delta]...)
			var passed []int
			if st.agg == nil {
				passed = r.passThroughCols(s, st.q.Pred)
			}
			var rule optimizer.CarryRule
			st.keyCols, rule = optimizer.ChooseCarry(st.q.Arity, keysets, passed)
			c = CarryChoice{Keys: st.keyCols, Rule: string(rule)}
		}
		if st.agg != nil {
			// Aggregate state is bucketed on its group columns by the merge.
			continue
		}
		if r.stats.Carry == nil {
			r.stats.Carry = make(map[string]CarryChoice)
		}
		r.stats.Carry[st.q.Pred] = c
		if r.stats.FanOut == nil {
			r.stats.FanOut = make(map[string][]FanOutStep)
		}
		r.stats.FanOut[st.q.Pred] = nil
	}
	// A recursive stratum's rule bodies read relations its fixpoint never
	// writes, its EDBs and lower strata: every join over one builds it once
	// and probes it with ∆ from then on.
	if s.Recursive {
		r.db.SetInvariant(invariantTables(queries, states))
		defer r.db.ClearInvariant()
	}

	for iter := 1; ; iter++ {
		if iter > r.opts().MaxIterations {
			return fmt.Errorf("core: stratum %d exceeded %d iterations", s.Index, r.opts().MaxIterations)
		}
		r.stats.Iterations++
		if r.em != nil {
			r.em.iterations.Add(1)
			r.em.iteration.Set(int64(iter))
		}
		endIter := r.tracer().Span("iteration", 0, obs.Step{Stratum: s.Index, Iteration: iter}, -1)
		anyDelta := false
		for i := range queries {
			q := &queries[i]
			st := states[q.Pred]
			unit := st.rec
			if iter == 1 {
				unit = st.first
			}
			delta, err := r.evalIDB(s, iter, st, unit)
			if err != nil {
				return err
			}
			if delta > 0 {
				anyDelta = true
				if onDelta != nil {
					if err := onDelta(q.Pred, r.db.Catalog().MustGet(q.Delta)); err != nil {
						return err
					}
				}
			}
		}
		// Epoch boundary: recycle retired view copies, advance the spill LRU
		// clock and reclaim any budget overshoot while no query is in flight.
		r.db.EndIteration()
		endIter()
		// Iteration-boundary abort check: cancellation, a contained worker
		// panic or a fatal manager failure ends the fixpoint here at the
		// latest, so an abort costs at most one iteration of extra work.
		if err := r.db.Err(); err != nil {
			return err
		}
		if !s.Recursive || !anyDelta {
			break
		}
	}

	// Materialize recursive aggregates and clear this stratum's deltas,
	// releasing the superseded relations' blocks back to the pool.
	for _, st := range states {
		if st.agg != nil {
			if err := r.installAggFull(st, st.q.Pred); err != nil {
				return err
			}
		}
		if err := r.db.InstallReplacing(storage.NewRelation(st.q.Delta, storage.NumberedColumns(st.q.Arity))); err != nil {
			return err
		}
	}
	return nil
}

// invariantTables returns the tables the stratum's bound units read that
// none of its IDBs writes: everything but the IDBs' full, ∆ and tmp tables.
func invariantTables(queries []querygen.IDBQueries, states map[string]*idbState) []string {
	written := make(map[string]bool, 3*len(queries))
	for _, q := range queries {
		written[q.Pred], written[q.Delta], written[q.Tmp] = true, true, true
	}
	var tables []string
	for _, st := range states {
		for _, u := range []boundUnit{st.first, st.rec} {
			if u.query == nil {
				continue
			}
			for _, br := range u.query.Branches {
				for _, t := range br.Tables {
					if !written[t] && !slices.Contains(tables, t) {
						tables = append(tables, t)
					}
				}
			}
		}
	}
	return tables
}

// idbState is the per-IDB loop state within one stratum.
type idbState struct {
	q *querygen.IDBQueries
	// cols names the tmp table's columns.
	cols []string
	// first is the unit iteration 1 runs, rec the one every later iteration
	// runs; both are bound once, at stratum start.
	first, rec      boundUnit
	chooser         *optimizer.DiffChooser
	agg             *aggMerge
	rebuildEachIter bool
	// keyCols is the stratum-stable keyset the predicate's carried
	// partitioning routes on — the pass-through columns of a linear
	// predicate, else the top-ranked join-key columns of its recursive
	// builds, the whole tuple otherwise (or under naive evaluation). Nil
	// selects the whole tuple.
	keyCols []int
	// lastDelta is the previous iteration's |∆R| — the slowly-changing
	// estimate of the join output the delta fan-out choice uses before the
	// current Rt exists. Not |Rt| itself: the share of Rt the duplicate
	// filter drops depends on how the workers split the probe, and the
	// fan-out must follow the data alone.
	lastDelta int
	// deltaParts is the fan-out the predicate's delta pipeline last ran at
	// in this stratum (0 before its first fused step); the next choice never
	// goes below it.
	deltaParts int
}

// evalIDB performs lines 8-13 of Algorithm 1 for one IDB: uieval, analyze,
// then either the fused partition-native delta step or the staged dedup +
// set difference (or the aggregate merge), and the merge into R. It returns
// the delta size.
func (r *runState) evalIDB(s analysis.Stratum, iter int, st *idbState, unit boundUnit) (int, error) {
	q := st.q
	// Publish the step context: worker phase spans and the memory manager's
	// spill/fault spans stamp whatever step is current when they fire.
	r.db.SetStep(s.Index, iter, q.Pred)
	defer r.tracer().Span(q.Pred, 0, obs.Step{Stratum: s.Index, Iteration: iter, Pred: q.Pred}, -1)()
	copyBase := r.db.CopySnapshot()
	// Early-exit arm filter: a semi-naive arm seeded by an empty ∆ relation
	// can only produce zero tuples, so it is dropped before any planning or
	// execution. In multi-IDB strata deltas empty out at different
	// iterations, leaving whole arms firing on nothing every iteration
	// until the stratum converges.
	query, skipped := r.liveArms(unit)
	r.stats.ArmsSkipped += int64(skipped)
	if r.em != nil {
		r.em.armsSkipped.Add(int64(skipped))
	}
	if query == nil {
		// Nothing fires this phase; the delta is empty.
		if err := r.db.InstallReplacing(storage.NewRelation(q.Delta, storage.NumberedColumns(q.Arity))); err != nil {
			return 0, err
		}
		r.hook(s, iter, q.Pred, 0, 0, 0, exec.OPSD, exec.CopySnapshot{}, skipped)
		return 0, nil
	}

	full := r.db.Catalog().MustGet(q.Pred)
	// The fused pipeline picks one whole-tuple fan-out for the whole
	// iteration *before* uieval and registers it as Rt's output
	// partitioning, so the join probe scatters at the source and uieval's
	// result lands pre-partitioned for the delta step. The fused pass embeds
	// a per-partition CCK-GSCHT-style dedup, so the FAST-DEDUP baselines
	// (lock-map, sort) force the staged pipeline — otherwise their ablation
	// would silently measure nothing.
	fuse := st.agg == nil && r.opts().Dedup == exec.DedupGSCHT
	part := storage.Partitioning{Parts: 1}
	if fuse {
		part = r.deltaPartitioning(st, full)
		if part.Parts != st.deltaParts {
			st.deltaParts = part.Parts
			r.stats.FanOut[q.Pred] = append(r.stats.FanOut[q.Pred], FanOutStep{Parts: part.Parts, Iteration: iter})
		}
		// The fused delta step dedups Rt before anything else reads it, so the
		// joins producing it are told their output is a set. Only here: an
		// aggregate needs every candidate, and the staged pipeline and the
		// FAST-DEDUP baselines measure the bag.
		r.db.SetOutputHint(q.Tmp, quickstep.OutputHint{Part: part, Set: true})
		defer r.db.ClearOutputHint(q.Tmp)
	} else if st.agg != nil {
		// Partition-parallel aggregate merge: once the state fan-out is
		// fixed (first merge), candidates land pre-scattered on the group
		// columns and ∆R exits carrying that partitioning for the next
		// iteration's joins.
		if ap, ok := st.agg.partitioning(); ok {
			r.db.SetOutputHint(q.Tmp, quickstep.OutputHint{Part: ap})
			defer r.db.ClearOutputHint(q.Tmp)
		}
	}

	tmp, err := r.uieval(q.Tmp, st.cols, query, r.opts().UIE)
	if err != nil {
		return 0, err
	}
	// Rt is dead once the delta step, the aggregate merge or the staged dedup
	// has read it: it is dropped right there, so what follows — installing
	// and analyzing ∆R, the step hook's memory reading — never sees it live.
	// The deferred call covers the error paths.
	tmpLive := true
	consumeTmp := func() {
		if tmpLive {
			tmpLive = false
			r.dropTmp(q.Tmp)
		}
	}
	defer consumeTmp()
	tmpRows := tmp.NumTuples()
	r.stats.TmpTuples += int64(tmpRows)
	if r.em != nil {
		r.em.tmpTuples.Add(int64(tmpRows))
	}

	// analyze(Rt): OOF collects per-iteration statistics; OOF-NA refreshes
	// only on the first iteration, leaving later iterations with stale data.
	mode := r.opts().OOF
	if mode == stats.ModeNone && iter == 1 {
		mode = stats.ModeSelective
	}
	tmpStats := r.db.AnalyzeRelation(tmp, mode)

	var delta *storage.Relation
	algo := exec.OPSD
	if st.agg != nil {
		delta = st.agg.merge(r.db.Pool(), r.db.Alloc(), tmp, q.Delta)
		consumeTmp()
		if st.rebuildEachIter {
			if err := r.installAggFull(st, q.Pred); err != nil {
				return 0, err
			}
		}
	} else {
		// Dedup pre-allocation uses the conservative estimate min(memory,
		// table size); the raw tuple count comes from insertion counters and
		// is free even without ANALYZE.
		est := tmpStats.DistinctEst
		if est <= 0 {
			est = tmpRows
		}
		fullStats := r.fullStats(q.Pred, full, mode)
		if fuse {
			// The fused pass never materializes Rδ, so the DSD decision and
			// the µ update both run on the dedup estimate of |Rδ| — the same
			// ANALYZE output the staged path uses for pre-sizing. Under
			// OOF-NA no estimate exists past iteration 1 and est falls back
			// to the duplicate-inclusive |Rt|, biasing the choice toward
			// OPSD — one more way stale statistics degrade plans, exactly
			// the regime that ablation studies.
			// Under DSDDynamic the substrate may keep the set-difference table
			// on R as a resident index and serve the pass from it; the forced
			// modes keep the paper's per-iteration tables (Section 5 figures).
			// The call also merges ∆R into R, so the index can follow it.
			algo = r.chooseAlgo(st, fullStats.NumTuples, est)
			delta, algo, err = r.db.DeltaStep(tmp, q.Pred, algo, part, est, q.Delta, r.opts().DSD == DSDDynamic)
			if err != nil {
				return 0, err
			}
			consumeTmp()
			st.chooser.Observe(est, est-delta.NumTuples())
		} else {
			rdelta := r.db.Dedup(tmp, est, q.Pred+"_rdelta")
			consumeTmp()
			// analyze(Rδ, R) ahead of the set-difference decision.
			rdeltaStats := r.db.AnalyzeRelation(rdelta, mode)
			algo = r.chooseAlgo(st, fullStats.NumTuples, rdeltaStats.NumTuples)
			delta = r.db.Diff(rdelta, full, algo, q.Delta)
			st.chooser.Observe(rdelta.NumTuples(), rdelta.NumTuples()-delta.NumTuples())
			// Epoch reclamation: Rδ is dead the moment ∆R exists (the fused
			// pipeline never materializes it at all).
			rdelta.Release()
			if err := r.db.AppendTo(q.Pred, delta); err != nil {
				return 0, err
			}
		}
		if algo == exec.OPSD {
			r.stats.DiffOPSD++
		} else {
			r.stats.DiffTPSD++
		}
		if r.em != nil {
			if algo == exec.OPSD {
				r.em.diffOPSD.Add(1)
			} else {
				r.em.diffTPSD.Add(1)
			}
		}
	}

	// Install ∆R, releasing the previous iteration's delta: its surviving
	// tuples live on inside R through the blocks R adopted, so only the
	// delta-table references are dropped (and recycled if exclusive).
	if err := r.db.InstallReplacing(delta); err != nil {
		return 0, err
	}
	// Delta statistics feed the next iteration's join build-side choices.
	// Under OOF-NA only iteration 1 records them (mode was forced
	// selective), so later plans reuse stale sizes — the paper's
	// "same query plan at each iteration".
	if mode != stats.ModeNone {
		r.db.AnalyzeRelation(delta, mode)
	}
	n := delta.NumTuples()
	st.lastDelta = n
	r.stats.DeltaTuples += int64(n)
	if r.em != nil {
		r.em.deltaTuples.Add(int64(n))
	}
	deltaParts := 0
	if fuse {
		deltaParts = part.Parts
	}
	r.hook(s, iter, q.Pred, tmpRows, n, deltaParts, algo, r.db.CopySnapshot().Sub(copyBase), skipped)
	// The statement path surfaces aborts through Exec; the direct kernel calls
	// (fused delta step, aggregate merge) drain silently with partial output.
	// Check here so a step that aborted mid-kernel fails the iteration
	// instead of feeding a truncated ∆R forward.
	if err := r.db.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// installAggFull replaces a recursive-aggregate predicate's full relation
// with a fresh materialization. The replacement joins the memory manager
// under the IDB category and re-registers as a spill candidate — without
// this, the relation whose growth dominates aggregate programs would drop
// out of accounting (and budgeting) at the first rebuild.
func (r *runState) installAggFull(st *idbState, pred string) error {
	full := st.agg.materialize(r.db.Alloc(), pred)
	if err := r.db.InstallReplacing(full); err != nil {
		return err
	}
	r.db.MarkSpillable(pred)
	return nil
}

// deltaPartitioning picks the partitioning shared by every stage of one
// predicate's delta pipeline this iteration (fused scatter, delta step, ∆R,
// R's carried view, and — when the keyset is join-key-carried — the next
// iteration's hash builds). The fan-out follows the iteration's work and
// only grows within a stratum; the keyset is stratum-stable. Neither
// depends on the worker count.
func (r *runState) deltaPartitioning(st *idbState, full *storage.Relation) storage.Partitioning {
	if r.incremental && r.opts().Partitions <= 0 {
		// Update deltas must land on R's carried layout exactly (key columns
		// and fan-out): a mismatched ∆ degrades R ⊎ ∆R to a flat-mutation
		// rebuild of the full relation on every update.
		carried, ok := full.Partitioning()
		return optimizer.ChooseUpdateDeltaPartitioning(carried, ok,
			full.NumTuples(), st.lastDelta, st.deltaParts, r.db.Headroom(), st.q.Arity)
	}
	parts := 0
	if p := r.opts().Partitions; p > 0 {
		parts = storage.NormalizePartitions(p)
	} else {
		parts = optimizer.ChooseDeltaPartitionsBudget(full.NumTuples(), st.lastDelta, st.deltaParts, r.db.Headroom())
	}
	keyCols := st.keyCols
	if len(keyCols) == 0 {
		keyCols = storage.AllCols(st.q.Arity)
	}
	return storage.Partitioning{KeyCols: keyCols, Parts: parts}
}

// chooseAlgo applies the configured DSD policy.
func (r *runState) chooseAlgo(st *idbState, rTuples, rdeltaTuples int) exec.DiffAlgorithm {
	switch r.opts().DSD {
	case DSDAlwaysOPSD:
		return exec.OPSD
	case DSDAlwaysTPSD:
		return exec.TPSD
	default:
		return st.chooser.Choose(rTuples, rdeltaTuples)
	}
}

// fullStats returns R's statistics under the iteration's OOF mode, falling
// back to a selective ANALYZE when none were ever recorded.
func (r *runState) fullStats(pred string, full *storage.Relation, mode stats.Mode) stats.Table {
	fullStats, ok := r.db.Stats(pred)
	if !ok {
		return r.db.AnalyzeRelation(full, stats.ModeSelective)
	}
	if mode != stats.ModeNone {
		return r.db.AnalyzeRelation(full, mode)
	}
	return fullStats
}

// boundUnit is one unit of rule arms bound against the catalog: branch i of
// query is arm i of the unit, seeded by ∆ table deltas[i] ("" when no ∆
// seeds it). A unit without arms has a nil query. The branches are shared,
// read-only, by every iteration that runs the unit.
type boundUnit struct {
	query  *plan.Query
	deltas []string
}

// bindUnit binds a unit's unified INSERT … SELECT, numbering its arms from
// firstArm on (plan.Branch.Arm).
func (r *runState) bindUnit(u querygen.UnitQueries, firstArm int) (boundUnit, error) {
	if u.Subqueries == 0 {
		return boundUnit{}, nil
	}
	st, err := r.db.Prepare(u.Unified)
	if err != nil {
		return boundUnit{}, err
	}
	q, err := quickstep.QueryOf(st)
	if err != nil {
		return boundUnit{}, err
	}
	for i, br := range q.Branches {
		br.Arm = firstArm + i
	}
	return boundUnit{query: q, deltas: u.DeltaTables}, nil
}

// then returns u's arms followed by b's.
func (u boundUnit) then(b boundUnit) boundUnit {
	switch {
	case u.query == nil:
		return b
	case b.query == nil:
		return u
	}
	return boundUnit{
		query:  &plan.Query{Branches: append(slices.Clip(u.query.Branches), b.query.Branches...), OutCols: u.query.OutCols},
		deltas: append(slices.Clip(u.deltas), b.deltas...),
	}
}

// bindStratumUnits binds the units one IDB's fixpoint runs: naive evaluation
// runs the Full unit every iteration; otherwise iteration 1 runs the Init
// unit (or, under seed, the seed arms) followed by the ordinary Rec arms, and
// later iterations run Rec. Iteration 1 needs the Rec arms because deltas
// install in predicate order within an iteration: a predicate evaluated after
// a producer sees the producer's iteration-1 ∆ only during iteration 1 — by
// iteration 2 the producer has replaced it. Without them a from-scratch run
// loses every tuple a later-sorted predicate derives from an earlier one's
// first ∆ (p :- e. p :- q. q :- p, e. leaves q empty).
//
// Every arm gets a stable id, its position in Init ++ Rec (seed arms follow
// them), so a plan choice names the same arm whichever arms an iteration runs.
func (r *runState) bindStratumUnits(st *idbState, seed map[string]querygen.UnitQueries) error {
	q := st.q
	var err error
	if r.opts().Naive && seed == nil {
		st.rec, err = r.bindUnit(q.Full, 0)
		st.first = st.rec
		return err
	}
	if st.rec, err = r.bindUnit(q.Rec, q.Init.Subqueries); err != nil {
		return err
	}
	var head boundUnit
	if seed == nil {
		head, err = r.bindUnit(q.Init, 0)
	} else {
		head, err = r.bindUnit(seed[q.Pred], q.Init.Subqueries+q.Rec.Subqueries)
	}
	st.first = head.then(st.rec)
	return err
}

// liveArms is the early-exit arm filter: it returns the query of u's arms
// whose seeding ∆ relation is not empty, and how many arms it dropped. A
// semi-naive arm seeded by an empty ∆ can only produce zero tuples. Nil when
// no arm fires.
func (r *runState) liveArms(u boundUnit) (*plan.Query, int) {
	if u.query == nil {
		return nil, 0
	}
	kept := querygen.KeptArms(u.deltas, func(delta string) bool {
		d, ok := r.db.Catalog().Get(delta)
		return !ok || d.NumTuples() > 0
	})
	skipped := len(u.deltas) - len(kept)
	switch {
	case skipped == 0:
		return u.query, 0
	case len(kept) == 0:
		return nil, skipped
	}
	branches := make([]*plan.Branch, len(kept))
	for j, i := range kept {
		branches[j] = u.query.Branches[i]
	}
	return &plan.Query{Branches: branches, OutCols: u.query.OutCols}, skipped
}

// uieval materializes the temporary table tmp from the arms of q: the
// unified UIE query, or one query per arm into its own part table plus a
// merge (Figure 4's individual evaluation). On error no table it created is
// left behind, so a failed run can be re-derived.
func (r *runState) uieval(tmp string, cols []string, q *plan.Query, uie bool) (_ *storage.Relation, err error) {
	created := []string{tmp}
	defer func() {
		if err != nil {
			for _, name := range created {
				r.db.DropTable(name)
			}
		}
	}()
	if _, err := r.db.Exec(plan.CreateTable{Name: tmp, Cols: cols}); err != nil {
		return nil, err
	}
	if uie {
		if _, err := r.db.Exec(plan.InsertSelect{Table: tmp, Query: q}); err != nil {
			return nil, err
		}
		return r.db.Catalog().MustGet(tmp), nil
	}
	merge := make([]string, len(q.Branches))
	for i, br := range q.Branches {
		part := fmt.Sprintf("%s_%d", tmp, br.Arm)
		created = append(created, part)
		if _, err := r.db.Exec(plan.CreateTable{Name: part, Cols: cols}); err != nil {
			return nil, err
		}
		arm := &plan.Query{Branches: []*plan.Branch{br}, OutCols: q.OutCols}
		if _, err := r.db.Exec(plan.InsertSelect{Table: part, Query: arm}); err != nil {
			return nil, err
		}
		merge[i] = "SELECT * FROM " + part
	}
	st, err := r.db.Prepare("INSERT INTO " + tmp + " " + strings.Join(merge, " UNION ALL "))
	if err != nil {
		return nil, err
	}
	if _, err := r.db.Exec(st); err != nil {
		return nil, err
	}
	for _, part := range created[1:] {
		if _, err := r.db.Exec(plan.DropTable{Name: part, IfExists: true}); err != nil {
			return nil, err
		}
	}
	return r.db.Catalog().MustGet(tmp), nil
}

// dropTmp drops a tmp table once its consumer has read it.
func (r *runState) dropTmp(tmp string) {
	_, _ = r.db.Exec(plan.DropTable{Name: tmp, IfExists: true})
}

// passThroughCols returns the columns K a predicate P of stratum s may be
// carried on so that every row a recursive arm emits from ∆P's partition p
// lies in Rt's partition p: every rule of the stratum that reads P is a rule
// of P with exactly one body atom from the stratum — P itself — and every
// such rule copies column k of that atom to head position k for each k in K.
// Nil when P has no recursive rule or K is empty.
func (r *runState) passThroughCols(s analysis.Stratum, pred string) []int {
	var keys []int
	recursive := false
	for _, ri := range s.RuleIdx {
		rule := r.res.Program.Rules[ri]
		var self []ast.Atom
		others := 0
		for _, a := range rule.Body {
			if pi, ok := r.res.Preds[a.Pred]; !ok || !pi.IsIDB || pi.Stratum != s.Index {
				continue
			}
			if a.Pred == pred {
				self = append(self, a)
			} else {
				others++
			}
		}
		if rule.HeadPred != pred {
			if len(self) > 0 {
				return nil // another predicate's rule reads P's full relation
			}
			continue
		}
		if len(self) == 0 && others == 0 {
			continue // an initial rule
		}
		if len(self) != 1 || others != 0 {
			return nil // not linear in P
		}
		var passed []int
		for k, t := range self[0].Args {
			if t.IsConst || t.IsWild || k >= len(rule.HeadTerms) {
				continue
			}
			if v, ok := rule.HeadTerms[k].Expr.(ast.Var); ok && rule.HeadTerms[k].Agg == "" && v.Name == t.Var {
				if !recursive || slices.Contains(keys, k) {
					passed = append(passed, k)
				}
			}
		}
		keys, recursive = passed, true
		if len(keys) == 0 {
			return nil
		}
	}
	return keys
}

// aggNeedsFullRebuild reports whether a recursive-aggregate predicate is
// referenced at a non-delta (full) position inside some delta subquery of
// its stratum, forcing its relation to be rebuilt every iteration.
func (r *runState) aggNeedsFullRebuild(s analysis.Stratum, pred string) bool {
	for _, ri := range s.RuleIdx {
		rule := r.res.Program.Rules[ri]
		var positions []int
		for i, a := range rule.Body {
			if a.Negated {
				continue
			}
			if pi, ok := r.res.Preds[a.Pred]; ok && pi.IsIDB && pi.Stratum == s.Index {
				positions = append(positions, i)
			}
		}
		if len(positions) < 2 {
			continue
		}
		for _, i := range positions {
			if rule.Body[i].Pred == pred {
				return true
			}
		}
	}
	return false
}

func (r *runState) hook(s analysis.Stratum, iter int, pred string, tmp, delta, deltaParts int, algo exec.DiffAlgorithm, copies exec.CopySnapshot, skipped int) {
	var ph obs.PhaseSnapshot
	if r.ob != nil && r.ob.Exec != nil {
		cur := r.ob.Exec.Phase.Snapshot()
		ph = cur.Sub(r.lastPhase)
		r.lastPhase = cur
	}
	if h := r.opts().IterHook; h != nil {
		h(IterInfo{Stratum: s.Index, Iteration: iter, Pred: pred, TmpTuples: tmp, Delta: delta, DeltaParts: deltaParts, Algo: algo, Copy: copies, Mem: r.db.MemSnapshot(), ArmsSkipped: skipped, Phase: ph})
	}
}
