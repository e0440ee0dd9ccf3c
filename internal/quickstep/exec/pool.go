// Package exec implements the parallel relational operators of the
// QuickStep-like substrate: hash join, selection/projection, union-all,
// deduplication (FAST-DEDUP and its baselines), set difference (OPSD and
// TPSD) and hash aggregation. One query executes at a time; parallelism is
// intra-operator over storage blocks, which is the QuickStep execution model
// RecStep's UIE optimization exploits (one big query keeps every core busy).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"recstep/internal/faultinject"
	"recstep/internal/obs"
	"recstep/internal/quickstep/storage"
)

// CopyCounters is the copy- and rescan-accounting instrumentation of the
// partition-native pipeline: it tracks how tuples move between operators so
// the fused-scatter refactor's win (fewer materializations per fixpoint
// iteration) is directly measurable, and how many rows operators re-read
// that a resident structure would have spared them — the counts that make
// "one iteration costs O(|∆|)" checkable without a clock. One instance lives
// on each Pool; operators update it with per-operator totals (never
// per-tuple atomics).
// The fields are obs.Counter (which embeds atomic.Int64, so update sites
// are unchanged) and can be registered on a metrics registry via Register,
// making the same atomics scrapeable mid-fixpoint.
type CopyCounters struct {
	// Scattered counts tuples copied into radix-partition blocks — by the
	// standalone scatter (PartitionRelation) or by an operator emitting its
	// output pre-partitioned for the next consumer.
	Scattered obs.Counter
	// Adopted counts tuples installed into a destination relation by block
	// adoption, without copying tuple data.
	Adopted obs.Counter
	// FlatMats counts flat (unpartitioned) materializations of delta-pipeline
	// intermediates: a dedup output (rdelta) or a tmp table whose producer
	// could not honour the requested output partitioning. The fused pipeline
	// drives this to zero.
	FlatMats obs.Counter
	// BuildScatters counts partitioned hash-join builds over a relation that
	// carried no partitioning on the join keys, so the build routed every row
	// to its partition itself — from the relation's own blocks, with no
	// scatter copy (buildStriped) — the per-join routing pass the
	// join-key-carried partitionings exist to eliminate.
	BuildScatters obs.Counter
	// BuildScattersAvoided counts hash-join builds served directly from a
	// carried partitioned view — nothing routed.
	BuildScattersAvoided obs.Counter
	// SetDiffRowsScanned counts rows of the full relation R that set
	// difference read or re-inserted: |R| per transient OPSD/TPSD pass and
	// per (re-)seed of a resident index, zero for a pass served by one.
	SetDiffRowsScanned obs.Counter
	// JoinProbeRows counts probe-side rows hash joins scanned.
	JoinProbeRows obs.Counter
	// ResidentIndexHits counts fused delta passes served by a resident
	// set-difference index; ResidentIndexReseeds counts passes that had to
	// seed one from R first (no index yet, or a mutation, fan-out or keyset
	// shift dropped it).
	ResidentIndexHits    obs.Counter
	ResidentIndexReseeds obs.Counter
	// CachedBuildHits counts hash joins served by a build table cached on an
	// iteration-invariant relation.
	CachedBuildHits obs.Counter
	// JoinRowsExpanded counts the rows joins produced (matches expanded, or
	// cross-product rows, past any residual) before the duplicate filter of a
	// set-valued output or the fold of an aggregate over the join;
	// DupSuppressed counts those the filter dropped, so their difference is
	// what the joins wrote to output blocks. DupFilterBypassed counts output
	// windows flushed after their worker had switched the filter off for want
	// of hits.
	JoinRowsExpanded  obs.Counter
	DupSuppressed     obs.Counter
	DupFilterBypassed obs.Counter
	// OutputInPlace counts join output rows written into the partition of
	// the probe row they came from — the probe side carried the output's
	// partitioning through the projection — with no hash and no counting
	// sort. They are not in Scattered.
	OutputInPlace obs.Counter
	// AggRowsIn counts rows HashAggregate folded into its group tables;
	// AggGroupsOut counts the groups it emitted. Their ratio is how far the
	// aggregate collapses its input. The recursive MIN/MAX merge, whose
	// input is already aggregated, counts in neither.
	AggRowsIn    obs.Counter
	AggGroupsOut obs.Counter

	// buildDetail breaks the build counters down by (relation, keyset) so
	// the copy-accounting experiments can show exactly which predicate and
	// join shape still pays per-iteration build scatters. Guarded by mu;
	// updated once per hash build, never per tuple.
	mu          sync.Mutex
	buildDetail map[string]BuildCount
}

// BuildCount tallies the partitioned hash builds of one (relation, keyset)
// pair: how many routed the relation's rows from its own blocks versus how
// many were served in place from a carried view.
type BuildCount struct {
	FromBlocks, InPlace int64
}

// BuildKey renders the (relation, keyset) identity used by the per-build
// breakdown, e.g. "valueFlow[1]".
func BuildKey(name string, keys []int) string {
	return fmt.Sprintf("%s%v", name, keys)
}

// NoteBuild records one partitioned hash build over relation name keyed on
// keys, and whether a carried view served it in place.
func (c *CopyCounters) NoteBuild(name string, keys []int, inPlace bool) {
	k := BuildKey(name, keys)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.buildDetail == nil {
		c.buildDetail = make(map[string]BuildCount)
	}
	bc := c.buildDetail[k]
	if inPlace {
		bc.InPlace++
	} else {
		bc.FromBlocks++
	}
	c.buildDetail[k] = bc
}

// CopySnapshot is a point-in-time reading of CopyCounters.
type CopySnapshot struct {
	Scattered, Adopted, FlatMats        int64
	BuildScatters, BuildScattersAvoided int64
	SetDiffRowsScanned, JoinProbeRows   int64
	ResidentIndexHits                   int64
	ResidentIndexReseeds                int64
	CachedBuildHits                     int64
	JoinRowsExpanded, DupSuppressed     int64
	DupFilterBypassed, OutputInPlace    int64
	AggRowsIn, AggGroupsOut             int64
	// BuildDetail maps BuildKey(relation, keyset) to that pair's build
	// tallies.
	BuildDetail map[string]BuildCount
}

// Snapshot reads the counters.
func (c *CopyCounters) Snapshot() CopySnapshot {
	s := CopySnapshot{
		Scattered:            c.Scattered.Load(),
		Adopted:              c.Adopted.Load(),
		FlatMats:             c.FlatMats.Load(),
		BuildScatters:        c.BuildScatters.Load(),
		BuildScattersAvoided: c.BuildScattersAvoided.Load(),
		SetDiffRowsScanned:   c.SetDiffRowsScanned.Load(),
		JoinProbeRows:        c.JoinProbeRows.Load(),
		ResidentIndexHits:    c.ResidentIndexHits.Load(),
		ResidentIndexReseeds: c.ResidentIndexReseeds.Load(),
		CachedBuildHits:      c.CachedBuildHits.Load(),
		JoinRowsExpanded:     c.JoinRowsExpanded.Load(),
		DupSuppressed:        c.DupSuppressed.Load(),
		DupFilterBypassed:    c.DupFilterBypassed.Load(),
		OutputInPlace:        c.OutputInPlace.Load(),
		AggRowsIn:            c.AggRowsIn.Load(),
		AggGroupsOut:         c.AggGroupsOut.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.buildDetail) > 0 {
		s.BuildDetail = make(map[string]BuildCount, len(c.buildDetail))
		for k, v := range c.buildDetail {
			s.BuildDetail[k] = v
		}
	}
	return s
}

// Sub returns the counter deltas since an earlier snapshot. Per-build
// detail entries that did not move are dropped from the result.
func (s CopySnapshot) Sub(o CopySnapshot) CopySnapshot {
	d := CopySnapshot{
		Scattered:            s.Scattered - o.Scattered,
		Adopted:              s.Adopted - o.Adopted,
		FlatMats:             s.FlatMats - o.FlatMats,
		BuildScatters:        s.BuildScatters - o.BuildScatters,
		BuildScattersAvoided: s.BuildScattersAvoided - o.BuildScattersAvoided,
		SetDiffRowsScanned:   s.SetDiffRowsScanned - o.SetDiffRowsScanned,
		JoinProbeRows:        s.JoinProbeRows - o.JoinProbeRows,
		ResidentIndexHits:    s.ResidentIndexHits - o.ResidentIndexHits,
		ResidentIndexReseeds: s.ResidentIndexReseeds - o.ResidentIndexReseeds,
		CachedBuildHits:      s.CachedBuildHits - o.CachedBuildHits,
		JoinRowsExpanded:     s.JoinRowsExpanded - o.JoinRowsExpanded,
		DupSuppressed:        s.DupSuppressed - o.DupSuppressed,
		DupFilterBypassed:    s.DupFilterBypassed - o.DupFilterBypassed,
		OutputInPlace:        s.OutputInPlace - o.OutputInPlace,
		AggRowsIn:            s.AggRowsIn - o.AggRowsIn,
		AggGroupsOut:         s.AggGroupsOut - o.AggGroupsOut,
	}
	for k, v := range s.BuildDetail {
		v.FromBlocks -= o.BuildDetail[k].FromBlocks
		v.InPlace -= o.BuildDetail[k].InPlace
		if v.FromBlocks == 0 && v.InPlace == 0 {
			continue
		}
		if d.BuildDetail == nil {
			d.BuildDetail = make(map[string]BuildCount)
		}
		d.BuildDetail[k] = v
	}
	return d
}

// Register exposes the copy-accounting counters on reg, including a labeled
// breakdown of hash builds by (relation, keyset). Registration replaces any
// prior binding, so re-opening a database against a long-lived registry
// simply re-points the series at the new run's counters.
func (c *CopyCounters) Register(reg *obs.Registry) {
	reg.RegisterCounter("recstep_tuples_scattered_total",
		"Tuples copied into radix-partition blocks by scatters and fused operator emits.", &c.Scattered)
	reg.RegisterCounter("recstep_tuples_adopted_total",
		"Tuples installed into destination relations by block adoption (no copy).", &c.Adopted)
	reg.RegisterCounter("recstep_flat_materializations_total",
		"Flat (unpartitioned) materializations of delta-pipeline intermediates.", &c.FlatMats)
	reg.RegisterCounter("recstep_join_build_scatters_total",
		"Partitioned hash-join builds that routed the relation's rows from its own blocks (no carried view matched).", &c.BuildScatters)
	reg.RegisterCounter("recstep_join_build_scatters_avoided_total",
		"Partitioned hash-join builds served in place from a carried view.", &c.BuildScattersAvoided)
	reg.RegisterCounter("recstep_setdiff_rows_scanned_total",
		"Rows of full relations read or re-inserted by set difference (0 for passes served by a resident index).", &c.SetDiffRowsScanned)
	reg.RegisterCounter("recstep_join_probe_rows_total",
		"Probe-side rows scanned by hash joins.", &c.JoinProbeRows)
	reg.RegisterCounter("recstep_resident_index_hits_total",
		"Fused delta passes served by a resident set-difference index.", &c.ResidentIndexHits)
	reg.RegisterCounter("recstep_resident_index_reseeds_total",
		"Fused delta passes that seeded a resident set-difference index from R first.", &c.ResidentIndexReseeds)
	reg.RegisterCounter("recstep_cached_build_hits_total",
		"Hash joins served by a build table cached on an iteration-invariant relation.", &c.CachedBuildHits)
	reg.RegisterCounter("recstep_join_rows_expanded_total",
		"Rows joins produced before the duplicate filter of a set-valued output.", &c.JoinRowsExpanded)
	reg.RegisterCounter("recstep_join_dup_suppressed_total",
		"Join output rows the duplicate filter dropped before they reached an output block.", &c.DupSuppressed)
	reg.RegisterCounter("recstep_join_dup_filter_bypassed_total",
		"Join output windows flushed after their worker switched the duplicate filter off for want of hits.", &c.DupFilterBypassed)
	reg.RegisterCounter("recstep_join_output_in_place_total",
		"Join output rows written into their probe row's partition without a scatter.", &c.OutputInPlace)
	reg.RegisterCounter("recstep_aggregate_rows_in_total",
		"Rows the aggregate operator folded into its group tables.", &c.AggRowsIn)
	reg.RegisterCounter("recstep_aggregate_groups_out_total",
		"Groups emitted by aggregates.", &c.AggGroupsOut)
	reg.RegisterSampleFunc("recstep_join_builds_total",
		"Partitioned hash builds by (relation,keyset) build key and kind (from_blocks vs in_place).",
		"counter", func() []obs.Sample {
			c.mu.Lock()
			keys := make([]string, 0, len(c.buildDetail))
			for k := range c.buildDetail {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out := make([]obs.Sample, 0, 2*len(keys))
			for _, k := range keys {
				bc := c.buildDetail[k]
				out = append(out,
					obs.Sample{Labels: []obs.LabelPair{{Key: "build", Value: k}, {Key: "kind", Value: "from_blocks"}}, Value: float64(bc.FromBlocks)},
					obs.Sample{Labels: []obs.LabelPair{{Key: "build", Value: k}, {Key: "kind", Value: "in_place"}}, Value: float64(bc.InPlace)})
			}
			c.mu.Unlock()
			return out
		})
}

// Pool is a bounded worker pool for block-parallel operator execution. It
// tracks how many workers are busy so the metrics sampler can report CPU
// utilization the way the paper's Figures 7 and 16 do, and carries the
// copy-accounting counters every operator running on it updates.
type Pool struct {
	workers int
	busy    atomic.Int32

	// Copy accumulates the pool's copy-accounting events.
	Copy CopyCounters

	// alloc, when set, routes every operator block allocation through the
	// memory manager (recycling + accounting). Nil keeps plain heap blocks.
	alloc storage.Lifecycle

	// om/tracer, when set, receive per-phase wall-time attribution and
	// distribution histograms from the operators running on this pool. Both
	// nil (the -obs=false ablation) makes every phase() span a shared no-op.
	om     *obs.ExecMetrics
	tracer *obs.Tracer
	// step is the engine-published fixpoint position (stratum, iteration,
	// predicate) stamped onto trace spans recorded by pool workers.
	step atomic.Pointer[obs.Step]
	// chainTick throttles chain-length sampling to every
	// chainSampleEvery-th dedup-set release.
	chainTick atomic.Int64

	// ctx/ctxDone carry the run's cancellation signal into the worker task
	// loops; failed/fail hold the first-error-wins run failure (a recovered
	// worker panic or a fatal injected fault). failed is the one-atomic-load
	// fast path Aborted() reads per task — the loops check at block/partition
	// granularity, never per tuple, to stay inside the benchobs budget.
	ctx     context.Context
	ctxDone <-chan struct{}
	failed  atomic.Bool
	fail    atomic.Pointer[runFailure]
	// panics counts worker panics converted to errors by the recover barrier.
	panics obs.Counter
	// inject is the chaos-test fault injector (nil in production); its
	// worker.panic site fires between tasks in the worker loops.
	inject *faultinject.Injector

	// dupFree is the free list of join duplicate filters (see dupfilter.go),
	// narrow tables at index 0 and wide ones at 1.
	dupMu   sync.Mutex
	dupFree [2][]*dupFilter
}

// runFailure is the first-error-wins record of a failed run.
type runFailure struct{ err error }

// NewPool returns a pool with the given degree of parallelism; workers <= 0
// selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the configured degree of parallelism.
func (p *Pool) Workers() int { return p.workers }

// SetAlloc installs the block lifecycle (the memory manager) operators on
// this pool allocate output blocks through. Call before running operators.
func (p *Pool) SetAlloc(lc storage.Lifecycle) { p.alloc = lc }

// Alloc returns the installed block lifecycle (nil = heap).
func (p *Pool) Alloc() storage.Lifecycle { return p.alloc }

// SetObs installs the exec metrics and (optional) tracer the pool's phase
// spans report to. Pass nil, nil to disable phase attribution entirely.
func (p *Pool) SetObs(m *obs.ExecMetrics, t *obs.Tracer) {
	p.om = m
	p.tracer = t
}

// Obs returns the installed exec metrics (nil when observability is off).
func (p *Pool) Obs() *obs.ExecMetrics { return p.om }

// SetStep publishes the fixpoint position subsequent phase spans are
// attributed to. The engine calls this before each evaluation step.
func (p *Pool) SetStep(stratum, iteration int, pred string) {
	p.step.Store(&obs.Step{Stratum: stratum, Iteration: iteration, Pred: pred})
}

// CurrentStep returns the last-published fixpoint position (zero before the
// first SetStep). The memory manager uses it to stamp spill/fault spans.
func (p *Pool) CurrentStep() obs.Step {
	if s := p.step.Load(); s != nil {
		return *s
	}
	return obs.Step{}
}

// noopEnd is the shared span terminator returned when observability is off,
// so disabled spans cost one nil check and no closure allocation.
var noopEnd = func() {}

// phase opens a wall-time span attributed to ph. part >= 0 places the trace
// span on that partition's lane (tid 1+part); part < 0 marks a whole-operator
// span on the engine lane (tid 0). The returned func ends the span.
func (p *Pool) phase(ph obs.Phase, part int) func() {
	m, tr := p.om, p.tracer
	if m == nil && tr == nil {
		return noopEnd
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		if m != nil {
			m.Phase.Add(ph, d)
		}
		if tr != nil {
			var step obs.Step
			if s := p.step.Load(); s != nil {
				step = *s
			}
			tid := 0
			if part >= 0 {
				tid = 1 + part
			}
			tr.Complete(ph.String(), tid, t0, d, step, part)
		}
	}
}

// observeChains samples the released dedup set's hash-chain lengths into the
// chain-length histogram (a no-op when observability is off). Call just
// before releasing a GSCHT-backed tupleSet. Scans chase pointers across the
// node arena, so only every chainSampleEvery-th release is scanned — the
// benchobs budget (≤2% whole-fixpoint overhead) is the constraint here.
func (p *Pool) observeChains(set *tupleSet) {
	if p.om == nil || set == nil {
		return
	}
	if p.chainTick.Add(1)%chainSampleEvery != 1 {
		return
	}
	set.observeChains(&p.om.ChainLen)
}

// observeBatch records one batch kernel block of n rows.
func (p *Pool) observeBatch(n int) {
	if p.om != nil {
		p.om.BatchRows.Observe(int64(n))
	}
}

// passAlloc returns the lifecycle a pass-private structure (dedup table,
// GSCHT node slabs) should allocate through, plus a release hook to call
// when the pass ends. With a magazine-capable manager the lifecycle is a
// per-worker magazine, so the pass's alloc/free churn costs one pool-shard
// lock per batch instead of one per array. The structure's full lifetime —
// allocation through release — must stay on the calling goroutine.
func (p *Pool) passAlloc() (storage.Lifecycle, func()) {
	if ms, ok := p.alloc.(storage.MagazineSource); ok {
		mag := ms.AcquireMagazine()
		return mag, func() { ms.ReleaseMagazine(mag) }
	}
	return p.alloc, func() {}
}

// scatterHint is the initial row capacity of operator output blocks. Small
// on purpose: a scatter keeps workers × partitions blocks open at once, and
// near convergence most receive a handful of rows — the regrow ladder for
// the partitions that do fill is served almost entirely by pool recycling.
const scatterHint = 64

// newBlock allocates one operator output block through the pool's lifecycle.
func (p *Pool) newBlock(arity int, cat storage.Category, rowHint int) *storage.Block {
	return storage.NewBlockIn(p.alloc, cat, arity, rowHint)
}

// BusyWorkers returns how many workers are currently executing tasks.
func (p *Pool) BusyWorkers() int { return int(p.busy.Load()) }

// SetContext installs the run's cancellation context. Worker task loops poll
// its Done channel at task boundaries, so a cancel or deadline drains every
// in-flight operator within one block/partition of work. Nil clears it.
func (p *Pool) SetContext(ctx context.Context) {
	p.ctx = ctx
	if ctx != nil {
		p.ctxDone = ctx.Done()
	} else {
		p.ctxDone = nil
	}
}

// SetFaultInjector installs the chaos-test fault injector whose worker.panic
// site fires in the task loops. Nil (the production default) keeps the loops
// trigger-free.
func (p *Pool) SetFaultInjector(in *faultinject.Injector) { p.inject = in }

// RegisterMetrics exposes the pool's failure-containment counters on reg.
func (p *Pool) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("recstep_worker_panics_total",
		"Pool worker panics converted into per-run errors by the recover barrier.", &p.panics)
}

// Aborted reports whether the current run should stop: a worker panic or
// fatal fault was recorded, or the run context was cancelled. Operator loops
// call it once per task/partition — one atomic load plus (with a context
// installed) one non-blocking channel poll.
func (p *Pool) Aborted() bool {
	if p.failed.Load() {
		return true
	}
	if d := p.ctxDone; d != nil {
		select {
		case <-d:
			return true
		default:
		}
	}
	return false
}

// Fail records err as the run's failure — first error wins — and flips the
// abort flag every worker loop polls, so remaining workers drain at their
// next task boundary. The memory manager routes fatal alloc/fault errors
// here; the recover barrier routes worker panics.
func (p *Pool) Fail(err error) {
	if err == nil {
		return
	}
	p.fail.CompareAndSwap(nil, &runFailure{err: err})
	p.failed.Store(true)
}

// Err returns the run's failure: a recorded worker panic or fatal fault
// first, else the context's cancellation error, else nil.
func (p *Pool) Err() error {
	if f := p.fail.Load(); f != nil {
		return f.err
	}
	if ctx := p.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ResetErr clears the recorded run failure and the abort flag, so a
// resident database can accept new work after a failed operation's state
// has been torn down. Callers must be quiescent: no worker tasks in flight,
// or a draining worker could re-record the stale failure.
func (p *Pool) ResetErr() {
	p.fail.Store(nil)
	p.failed.Store(false)
}

// guard runs fn on the calling goroutine, converting a panic into the run
// failure (stack captured into the error) instead of letting it unwind past
// the pool — the containment barrier every worker body runs under.
func (p *Pool) guard(fn func()) {
	defer func() {
		if v := recover(); v != nil {
			p.panics.Add(1)
			// Panicking with an error value keeps its chain intact so
			// callers can still errors.Is the root cause.
			if err, ok := v.(error); ok {
				p.Fail(fmt.Errorf("exec: worker panic: %w\n%s", err, debug.Stack()))
			} else {
				p.Fail(fmt.Errorf("exec: worker panic: %v\n%s", v, debug.Stack()))
			}
		}
	}()
	fn()
}

// checkInject fires the chaos injector's worker.panic site. It sits between
// tasks — no operator state is held — so the injected panic exercises the
// recover barrier without leaking pass-private allocations.
func (p *Pool) checkInject() {
	if p.inject != nil {
		if err := p.inject.Fail(faultinject.WorkerPanic); err != nil {
			panic(err)
		}
	}
}

// Run executes fn(task) for every task in [0, numTasks), using up to
// Workers() goroutines pulling tasks from a shared counter.
func (p *Pool) Run(numTasks int, fn func(task int)) {
	if numTasks <= 0 {
		return
	}
	n := p.workers
	if n > numTasks {
		n = numTasks
	}
	if n == 1 {
		p.busy.Add(1)
		defer p.busy.Add(-1)
		p.guard(func() {
			for i := 0; i < numTasks; i++ {
				if p.Aborted() {
					return
				}
				p.checkInject()
				fn(i)
			}
		})
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.busy.Add(1)
			defer p.busy.Add(-1)
			p.guard(func() {
				for {
					t := int(next.Add(1)) - 1
					if t >= numTasks || p.Aborted() {
						return
					}
					p.checkInject()
					fn(t)
				}
			})
		}()
	}
	wg.Wait()
}

// RunPartitions executes fn(p) once for every partition p in [0, parts) with
// partition-affine scheduling: worker w owns the stripe of partitions
// congruent to w modulo the worker count, so across operators — and across
// fixpoint iterations, where partition counts are carried — the same worker
// slot revisits the same partitions' blocks and private tables. This is the
// pure-Go approximation of NUMA-aware partition placement: goroutine w keeps
// partition w's working set warm in whatever core's cache the runtime keeps
// it on, instead of partitions migrating between workers every pass under a
// shared task counter. A worker that drains its stripe steals unclaimed
// partitions from the others (skew fallback), so wall-clock never degrades
// below the shared-counter schedule; claims are CAS-guarded, so every
// partition runs exactly once.
func (p *Pool) RunPartitions(parts int, fn func(part int)) {
	if parts <= 0 {
		return
	}
	n := p.workers
	if n > parts {
		n = parts
	}
	if n == 1 {
		p.busy.Add(1)
		defer p.busy.Add(-1)
		p.guard(func() {
			for q := 0; q < parts; q++ {
				if p.Aborted() {
					return
				}
				p.checkInject()
				fn(q)
			}
		})
		return
	}
	claimed := make([]atomic.Bool, parts)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.busy.Add(1)
			defer p.busy.Add(-1)
			p.guard(func() {
				// Own stripe first — the sticky assignment.
				for q := w; q < parts; q += n {
					if p.Aborted() {
						return
					}
					if claimed[q].CompareAndSwap(false, true) {
						p.checkInject()
						fn(q)
					}
				}
				// Stripe drained: steal whatever is still unclaimed, scanning
				// from the next stripe over so thieves spread out.
				for i := 0; i < parts; i++ {
					if p.Aborted() {
						return
					}
					q := (w + 1 + i) % parts
					if claimed[q].CompareAndSwap(false, true) {
						p.checkInject()
						fn(q)
					}
				}
			})
		}(w)
	}
	wg.Wait()
}

// runTasksPerWorker executes fn(worker, task) for every task in
// [0, numTasks), tasks claimed from a shared counter by at most Workers()
// goroutines. worker identifies the claiming goroutine's slot in
// [0, Workers()), so an operator keeps one arena, scratch buffer or output
// sink per worker instead of one per task.
func (p *Pool) runTasksPerWorker(numTasks int, fn func(worker, task int)) {
	if numTasks <= 0 {
		return
	}
	var next atomic.Int64
	p.RunWorkers(numTasks, func(worker, _ int) {
		for {
			t := int(next.Add(1)) - 1
			if t >= numTasks || p.Aborted() {
				return
			}
			p.checkInject()
			fn(worker, t)
		}
	})
}

// RunWorkers executes fn(worker) once per worker slot (exactly n goroutines,
// n = min(Workers, maxWorkers)). Operators that maintain per-worker state
// (arenas, output buffers) and do their own work distribution use this form.
func (p *Pool) RunWorkers(maxWorkers int, fn func(worker, numWorkers int)) {
	n := p.workers
	if maxWorkers > 0 && n > maxWorkers {
		n = maxWorkers
	}
	if n <= 1 {
		p.busy.Add(1)
		defer p.busy.Add(-1)
		p.guard(func() { fn(0, 1) })
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.busy.Add(1)
			defer p.busy.Add(-1)
			p.guard(func() { fn(w, n) })
		}(w)
	}
	wg.Wait()
}

// partWriter routes rows into per-partition open blocks. Exactly one
// goroutine owns a writer, so writes need no latches; the standalone scatter
// (PartitionRelation) and the fused scatter sinks share it.
type partWriter struct {
	arity   int
	keyCols []int
	parts   int
	pool    *Pool
	cat     storage.Category
	open    []*storage.Block
	out     [][]*storage.Block
}

func newPartWriter(pool *Pool, cat storage.Category, arity int, keyCols []int, parts int) *partWriter {
	return &partWriter{
		arity:   arity,
		keyCols: keyCols,
		parts:   parts,
		pool:    pool,
		cat:     cat,
		open:    make([]*storage.Block, parts),
		out:     make([][]*storage.Block, parts),
	}
}

// write appends the row to its partition's open block.
func (w *partWriter) write(row []int32) {
	p := storage.PartitionOf(storage.PartitionHash(row, w.keyCols), w.parts)
	blk := w.open[p]
	if blk == nil || blk.Full() {
		blk = w.pool.newBlock(w.arity, w.cat, scatterHint)
		w.open[p] = blk
		w.out[p] = append(w.out[p], blk)
	}
	blk.Append(row)
}

// writeBulk appends a partition-contiguous run of rows to partition p's open
// block with chunked AppendBulk copies — the batch-mode scatter's emit half.
func (w *partWriter) writeBulk(p int, rows []int32) {
	for len(rows) > 0 {
		blk := w.open[p]
		if blk == nil || blk.Full() {
			blk = w.pool.newBlock(w.arity, w.cat, scatterHint)
			w.open[p] = blk
			w.out[p] = append(w.out[p], blk)
		}
		n := (storage.DefaultBlockRows - blk.Rows()) * w.arity
		if n > len(rows) {
			n = len(rows)
		}
		blk.AppendBulk(rows[:n])
		rows = rows[n:]
	}
}

// collector gathers per-sink output blocks and assembles them into a result
// relation without cross-sink synchronization on the hot path. With a
// partitioning set, every sink routes rows into sink-private per-partition
// block lists (the fused scatter: the operator's single output copy lands
// directly in the partition the next consumer wants), and into() assembles a
// relation that carries the partitioning. Operators hand sinks out per
// *worker* (see scatterRun), so a scatter keeps at most workers × parts open
// blocks regardless of how many block tasks feed it.
type collector struct {
	arity  int
	pool   *Pool
	cat    storage.Category
	part   *storage.Partitioning
	copy   *CopyCounters
	byTask [][]*storage.Block   // flat mode: [sink] -> blocks
	parted [][][]*storage.Block // partitioned mode: [sink][partition] -> blocks
	// inPlace is how many of the partitioned rows their producer wrote into
	// the partition they came from, without a scatter (set before into).
	inPlace int64
}

func newCollector(pool *Pool, cat storage.Category, arity, tasks int) *collector {
	return &collector{arity: arity, pool: pool, cat: cat, byTask: make([][]*storage.Block, tasks)}
}

// newPartCollector returns a collector whose sinks scatter rows by part and
// whose into() produces a relation carrying that partitioning. counters (if
// non-nil) receive the scattered-tuple total.
func newPartCollector(pool *Pool, cat storage.Category, arity, sinks int, part storage.Partitioning, counters *CopyCounters) *collector {
	return &collector{
		arity:  arity,
		pool:   pool,
		cat:    cat,
		part:   &part,
		copy:   counters,
		parted: make([][][]*storage.Block, sinks),
	}
}

// sink returns an emit function for one sink slot. The returned function
// copies the row into a sink-private block — partition-routed when the
// collector has a partitioning.
func (c *collector) sink(task int) func(row []int32) {
	if c.part == nil {
		var cur *storage.Block
		room := 0
		return func(row []int32) {
			if room == 0 {
				cur = c.pool.newBlock(c.arity, c.cat, scatterHint)
				c.byTask[task] = append(c.byTask[task], cur)
				room = storage.DefaultBlockRows
			}
			cur.Append(row)
			room--
		}
	}
	return c.partSink(task).write
}

// partSink returns the scatter writer of one sink slot of a partitioned
// collector, for callers that route whole windows through it.
func (c *collector) partSink(task int) *partWriter {
	w := newPartWriter(c.pool, c.cat, c.arity, c.part.KeyCols, c.part.Parts)
	c.parted[task] = w.out
	return w
}

// scatterRun executes fn once per input block, handing each execution the
// collector sink of the worker that claimed the block. One sink per worker,
// not per block task, bounds a scatter's open blocks by workers × parts
// instead of blocks × parts — over a long fixpoint that is the difference
// between adopting a handful of well-filled partition blocks per iteration
// and fragmenting relations into thousands of tiny ones — and a flat output
// by one open block per worker.
func scatterRun(pool *Pool, col *collector, blocks []*storage.Block, fn func(b *storage.Block, emit func(row []int32))) {
	emits := make([]func(row []int32), pool.Workers())
	pool.runTasksPerWorker(len(blocks), func(worker, t int) {
		if emits[worker] == nil {
			emits[worker] = col.sink(worker)
		}
		fn(blocks[t], emits[worker])
	})
}

// bulkSink appends row-major runs of whole rows to one sink slot of a flat
// collector in block-sized copies — the bulk counterpart of sink, as a value
// an operator can keep per worker without a closure.
type bulkSink struct {
	c    *collector
	slot int
	cur  *storage.Block
}

func (s *bulkSink) write(rows []int32) {
	c := s.c
	for len(rows) > 0 {
		if s.cur == nil || s.cur.Full() {
			s.cur = c.pool.newBlock(c.arity, c.cat, scatterHint)
			c.byTask[s.slot] = append(c.byTask[s.slot], s.cur)
		}
		n := (storage.DefaultBlockRows - s.cur.Rows()) * c.arity
		if n > len(rows) {
			n = len(rows)
		}
		s.cur.AppendBulk(rows[:n])
		rows = rows[n:]
	}
}

// sinkBulk returns the bulk emit function of one sink slot of a flat
// collector: it takes a row-major run of whole rows (a gathered batch).
func (c *collector) sinkBulk(task int) func(rows []int32) {
	return (&bulkSink{c: c, slot: task}).write
}

// sinkPartBulk returns an emit function writing whole gathered batches
// directly into one partition of one task, with chunked AppendBulk copies —
// for operators whose unit of work *is* a partition, so every row they emit
// is already known to belong to it (no re-hash).
func (c *collector) sinkPartBulk(task, p int) func(rows []int32) {
	if c.parted[task] == nil {
		c.parted[task] = make([][]*storage.Block, c.part.Parts)
	}
	out := c.parted[task]
	var cur *storage.Block
	return func(rows []int32) {
		for len(rows) > 0 {
			if cur == nil || cur.Full() {
				cur = c.pool.newBlock(c.arity, c.cat, scatterHint)
				out[p] = append(out[p], cur)
			}
			n := (storage.DefaultBlockRows - cur.Rows()) * c.arity
			if n > len(rows) {
				n = len(rows)
			}
			cur.AppendBulk(rows[:n])
			rows = rows[n:]
		}
	}
}

// into adopts all collected blocks into a fresh relation. In partitioned
// mode the relation carries the partitioning, so downstream consumers keyed
// the same way skip their scatter entirely.
func (c *collector) into(name string, colNames []string) *storage.Relation {
	if colNames == nil {
		colNames = storage.NumberedColumns(c.arity)
	}
	out := storage.NewRelation(name, colNames)
	if c.part == nil {
		for _, blocks := range c.byTask {
			for _, b := range blocks {
				b.Compact()
				out.AdoptBlock(b)
			}
		}
		return out
	}
	merged := make([][]*storage.Block, c.part.Parts)
	scattered := int64(0)
	for _, byPart := range c.parted {
		for p, bs := range byPart {
			for _, b := range bs {
				// Compact before sharing: near convergence each partition
				// block holds a handful of rows, and these blocks are adopted
				// into R, living for the rest of the run.
				b.Compact()
				scattered += int64(b.Rows())
			}
			merged[p] = append(merged[p], bs...)
		}
	}
	if c.copy != nil {
		c.copy.Scattered.Add(scattered - c.inPlace)
	}
	out.AdoptPartitioned(storage.NewPartitionedView(c.part.KeyCols, c.part.Parts, merged))
	return out
}
