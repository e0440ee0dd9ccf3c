// Package quickstep assembles the storage, execution, statistics, optimizer
// and transaction subsystems into a single-node parallel in-memory RDBMS
// facade — the role QuickStep plays under RecStep (Figure 1). It exposes the
// SQL API used by the query generator plus the kernel-level calls Algorithm 1
// relies on: analyze, dedup and set difference.
package quickstep

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"recstep/internal/faultinject"
	"recstep/internal/obs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/memory"
	"recstep/internal/quickstep/optimizer"
	"recstep/internal/quickstep/plan"
	"recstep/internal/quickstep/sql"
	"recstep/internal/quickstep/stats"
	"recstep/internal/quickstep/storage"
	"recstep/internal/quickstep/txn"
)

// Options configures a Database.
type Options struct {
	// Workers bounds intra-query parallelism; <=0 selects GOMAXPROCS.
	Workers int
	// Dedup selects the deduplication implementation (FAST-DEDUP ablation).
	Dedup exec.DedupStrategy
	// EOST defers all write-back to the final commit; turning it off makes
	// every mutating query flush dirty tables (the paper's EOST ablation).
	EOST bool
	// SpillDir receives write-back files; empty selects a temp directory.
	SpillDir string
	// StatsBudgetTuples caps dedup distinct estimates (0 = unbounded).
	StatsBudgetTuples int
	// Partitions fixes the radix partition count for hash builds (joins,
	// set difference, aggregation): 0 lets the optimizer pick 1/16/64/256
	// per operator from cardinality estimates, 1 disables partitioning.
	Partitions int
	// DisableIO skips the transaction manager entirely (no disk touched);
	// used by unit tests and benchmarks that measure pure compute.
	DisableIO bool
	// MemBudgetBytes bounds live block-pool bytes. When exceeded, cold
	// partitions of registered full relations spill to temp files and the
	// optimizer shrinks radix fan-out. 0 disables the budget (block
	// recycling and accounting stay on).
	MemBudgetBytes int64
	// Obs, when set, wires the database's counters (copy accounting, memory
	// gauges, query/peak gauges) onto the observer's registry and installs
	// its exec metrics + tracer on the worker pool and memory manager. Nil
	// disables per-phase attribution entirely (the -obs=false ablation).
	Obs *obs.Observer
	// FaultInject installs chaos-test fault triggers in the memory manager
	// (spill writes, fault reads, allocation accounting) and the worker pool
	// (injected worker panics). Nil — the production default — leaves every
	// trigger point inert.
	FaultInject *faultinject.Injector
}

// PlanChoice records the join plan the optimizer picked for one branch: the
// atoms in textual order, the chosen execution order (table names), the
// atoms' cardinalities it was chosen on (textual order), the strategy, and
// how many times the branch ran (re-planning happens per iteration, so Count
// tracks iterations and Order and Cards the latest decision).
type PlanChoice struct {
	Tables   []string `json:"tables"`
	Order    []string `json:"order"`
	Cards    []int    `json:"cards"`
	Strategy string   `json:"strategy"`
	Count    int      `json:"count"`
}

// Database is the QuickStep-like engine instance.
type Database struct {
	opts  Options
	cat   *storage.Catalog
	stats *stats.Catalog
	pool  *exec.Pool
	mem   *memory.Manager
	txn   *txn.Manager

	mu      sync.Mutex // one query at a time, as in QuickStep
	queries atomic.Int64
	// prepared counts statements Prepare bound: the front-end work the
	// engine pays once per rule unit, not once per iteration.
	prepared atomic.Int64

	// outHints maps destination-table names to what the engine has said about
	// the output of an INSERT … SELECT into them (see OutputHint). Guarded by
	// hintMu (registered outside the query lock).
	hintMu   sync.Mutex
	outHints map[string]OutputHint
	// rescans is the set-difference index's ledger: per predicate, the rows
	// set difference has re-read from R for want of an index, which
	// optimizer.RepaysResident weighs against the rows the index would hold.
	// Guarded by hintMu.
	rescans map[string]*rescanDebt
	// invariant names the relations the running fixpoint reads and never
	// writes (see SetInvariant). Guarded by hintMu.
	invariant map[string]bool

	// plans records the latest join order and strategy per branch (branches
	// of one query run concurrently, hence the lock). peakJoinRows is a
	// high-water gauge of non-final join-intermediate cardinality — the
	// number the WCOJ path exists to keep bounded.
	planMu       sync.Mutex
	plans        map[string]*PlanChoice
	peakJoinRows atomic.Int64
	// armGoroutines counts the goroutines runQuery started for arms.
	armGoroutines atomic.Int64
}

// rescanDebt is one entry of Database.rescans. R changes with every pass by
// construction, so the tally is the predicate's, not one relation state's;
// once its rescans have repaid an index the verdict sticks, so an index
// dropped by a deletion or a fan-out shift is re-seeded at the very next pass.
type rescanDebt struct {
	rows   int64
	repaid bool
}

// rescanDebtLocked returns the ledger entry for pred; callers hold hintMu.
func (db *Database) rescanDebtLocked(pred string) *rescanDebt {
	d := db.rescans[pred]
	if d == nil {
		if db.rescans == nil {
			db.rescans = make(map[string]*rescanDebt)
		}
		d = &rescanDebt{}
		db.rescans[pred] = d
	}
	return d
}

// SetInvariant tells the planner which tables the fixpoint about to run reads
// and never writes — a recursive stratum's EDBs and lower strata — until
// ClearInvariant. A join reading one such table builds on it and keeps the
// table on the relation (see chooseBuildSide), so every later iteration
// probes it with what changed instead of rebuilding or rescanning it.
// Nothing here is trusted for correctness: a cached table is guarded by the
// version of the relation it was built from, and a mutation retires it.
func (db *Database) SetInvariant(tables []string) {
	db.hintMu.Lock()
	defer db.hintMu.Unlock()
	db.invariant = make(map[string]bool, len(tables))
	for _, t := range tables {
		db.invariant[t] = true
	}
}

// ClearInvariant forgets the tables SetInvariant named.
func (db *Database) ClearInvariant() {
	db.hintMu.Lock()
	defer db.hintMu.Unlock()
	db.invariant = nil
}

// isInvariant reports whether SetInvariant named table.
func (db *Database) isInvariant(table string) bool {
	db.hintMu.Lock()
	defer db.hintMu.Unlock()
	return db.invariant[table]
}

// notePlan records the strategy, order (table names in execution order) and
// the cardinalities behind it chosen for a branch; single-table branches are
// skipped (there is nothing to order).
func (db *Database) notePlan(name string, br *plan.Branch, order []string, cards []int, strategy optimizer.JoinStrategy) {
	if len(br.Tables) < 2 {
		return
	}
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if db.plans == nil {
		db.plans = make(map[string]*PlanChoice)
	}
	pc := db.plans[name]
	if pc == nil {
		pc = &PlanChoice{Tables: append([]string(nil), br.Tables...)}
		db.plans[name] = pc
	}
	pc.Order = order // read-only: a compiled plan's or the bound branch's
	pc.Cards = append(pc.Cards[:0], cards...)
	pc.Strategy = strategy.String()
	pc.Count++
}

// PlanChoices snapshots the per-branch join-plan decisions recorded so far,
// keyed by branch name (destination table + plan.Branch.Arm).
func (db *Database) PlanChoices() map[string]PlanChoice {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	out := make(map[string]PlanChoice, len(db.plans))
	for k, v := range db.plans {
		c := *v
		c.Order = append([]string(nil), v.Order...)
		c.Tables = append([]string(nil), v.Tables...)
		c.Cards = append([]int(nil), v.Cards...)
		out[k] = c
	}
	return out
}

// notePeak raises the join-intermediate high-water gauge.
func (db *Database) notePeak(n int) {
	v := int64(n)
	for {
		cur := db.peakJoinRows.Load()
		if v <= cur || db.peakJoinRows.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PeakJoinIntermediate returns the largest non-final join-intermediate
// cardinality materialized so far (rows). Final fused join outputs are the
// branch result, not an intermediate, and are excluded; the leapfrog path
// materializes no intermediates at all.
func (db *Database) PeakJoinIntermediate() int64 { return db.peakJoinRows.Load() }

// Open creates a database.
func Open(opts Options) (*Database, error) {
	db := &Database{
		opts:  opts,
		cat:   storage.NewCatalog(),
		stats: stats.NewCatalog(opts.StatsBudgetTuples),
		pool:  exec.NewPool(opts.Workers),
		mem:   memory.NewManager(memory.Config{BudgetBytes: opts.MemBudgetBytes, SpillDir: opts.SpillDir, FaultInject: opts.FaultInject}),
	}
	db.pool.SetAlloc(db.mem)
	db.pool.SetFaultInjector(opts.FaultInject)
	// Fatal manager failures (a failed allocation, an unreadable spill file)
	// become the pool's run error, so every worker loop drains at its next
	// boundary check instead of computing on unreachable data.
	db.mem.SetFailHandler(db.pool.Fail)
	if ob := opts.Obs; ob != nil {
		db.pool.SetObs(ob.Exec, ob.Tracer)
		db.mem.SetObs(ob.Exec, ob.Tracer, db.pool.CurrentStep)
		if ob.Reg != nil {
			db.pool.Copy.Register(ob.Reg)
			db.pool.RegisterMetrics(ob.Reg)
			db.mem.RegisterMetrics(ob.Reg)
			ob.Reg.RegisterGaugeFunc("recstep_queries_total",
				"SQL-equivalent queries issued against the database.",
				func() float64 { return float64(db.queries.Load()) })
			ob.Reg.RegisterGaugeFunc("recstep_statements_prepared_total",
				"SQL statements parsed and bound against the catalog.",
				func() float64 { return float64(db.prepared.Load()) })
			ob.Reg.RegisterGaugeFunc("recstep_peak_join_intermediate_rows",
				"Largest non-final join-intermediate cardinality materialized so far.",
				func() float64 { return float64(db.PeakJoinIntermediate()) })
		}
	}
	if !opts.DisableIO {
		m, err := txn.NewManager(opts.EOST, opts.SpillDir)
		if err != nil {
			return nil, err
		}
		db.txn = m
	}
	return db, nil
}

// Close releases spill resources and drains the block pool.
func (db *Database) Close() error {
	memErr := db.mem.Close()
	if db.txn != nil {
		if err := db.txn.Close(); err != nil {
			return err
		}
	}
	return memErr
}

// Catalog exposes the table catalog.
func (db *Database) Catalog() *storage.Catalog { return db.cat }

// Pool exposes the worker pool (metrics sampling reads busy counts from it).
func (db *Database) Pool() *exec.Pool { return db.pool }

// Observer returns the observer wired at Open (nil when observability is
// off). OnDB consumers use it to reach the same registry and tracer the
// engine's own counters live on.
func (db *Database) Observer() *obs.Observer { return db.opts.Obs }

// SetStep publishes the fixpoint position (stratum, iteration, predicate)
// that subsequent phase spans — pool workers and spill/fault passes — are
// attributed to. The engine calls it before each evaluation step.
func (db *Database) SetStep(stratum, iteration int, pred string) {
	db.pool.SetStep(stratum, iteration, pred)
}

// Mem exposes the memory manager owning all tuple-block storage.
func (db *Database) Mem() *memory.Manager { return db.mem }

// Alloc returns the block lifecycle relations created outside the database
// should allocate through to participate in pooling and accounting.
func (db *Database) Alloc() storage.Lifecycle { return db.mem }

// Headroom returns the bytes remaining under the memory budget (a very
// large value when no budget is set).
func (db *Database) Headroom() int64 { return db.mem.Headroom() }

// MemSnapshot reads the memory manager gauges (live bytes by category,
// peak, pool hit rates, spill/fault counters).
func (db *Database) MemSnapshot() memory.Snapshot { return db.mem.Snapshot() }

// MarkSpillable registers a table as a cold-partition spill candidate under
// memory pressure. The engine marks the full recursive relations; with no
// budget configured this is a no-op.
func (db *Database) MarkSpillable(table string) {
	if db.opts.MemBudgetBytes <= 0 {
		return
	}
	if r, ok := db.cat.Get(table); ok {
		db.mem.Register(r)
	}
}

// EndIteration is the engine's epoch hook, called once per fixpoint
// iteration at a quiescent point (no query in flight): retired view copies
// from superseded PartitionedViews and stale attachments are recycled, the
// spill LRU epoch advances, and any budget overshoot is reclaimed. Eviction
// order under pressure, each stage only if the one before left the run over
// budget: pool-backed attachments first (resident set-difference indexes —
// derived from the relation's own contents, several times its bytes, and
// without them the engine merely runs yesterday's transient tables; cached
// join builds hold no pool bytes and stay), and only then cold partitions
// (EndEpoch's fallback: a disk write plus a fault each). The quiescent point
// is what makes the drops safe to release this epoch: no in-flight operator
// can still hold them.
func (db *Database) EndIteration() {
	// Recycle this iteration's retired garbage *before* reading the budget
	// signal: superseded view copies still count in the live gauge until
	// reclaimed, and deciding to shed attachments on bytes that are freed
	// two lines later would drop structures the budget actually has room
	// for (and pay a full |R| re-seed next iteration).
	// Every relation's garbage goes before any coalescing allocates, so the
	// pool peak does not depend on the (map) order of the sweep.
	rels := db.cat.Relations()
	for _, r := range rels {
		r.ReclaimRetired()
	}
	// Long fixpoints adopt one small ∆R block per partition per iteration;
	// coalescing bounds the per-partition block count so pool-class padding
	// never dominates R's footprint.
	for _, r := range rels {
		r.CoalescePartitions()
	}
	if db.mem.OverBudget() {
		for _, r := range rels {
			if r.EvictAttachments() > 0 {
				db.mem.NoteAttachmentDrop()
			}
		}
	}
	db.mem.EndEpoch()
}

// SetContext installs the cancellation context the worker loops poll at
// task/partition boundaries. The engine threads its run context through here;
// nil detaches (queries run uncancellable, the pre-context behaviour).
func (db *Database) SetContext(ctx context.Context) { db.pool.SetContext(ctx) }

// Err reports why the current run must abort, nil while it is healthy:
// a contained worker panic or injected fault first, then a fatal memory-
// manager failure (failed allocation, unreadable spill file), then the run
// context's cancellation.
func (db *Database) Err() error {
	if err := db.pool.Err(); err != nil {
		return err
	}
	return db.mem.RunError()
}

// ResetErr clears a prior failure's sticky abort state — the pool's
// recorded error/abort flag and the memory manager's fatal run error — so a
// resident database can evaluate again after a failed incremental update
// has been rolled back. The caller must be quiescent (no query in flight)
// and must have already released or re-derived any state the failed run
// left behind. Relation-level fault errors (unreadable spill files) are
// not cleared: that data genuinely remains unreachable.
func (db *Database) ResetErr() {
	db.pool.ResetErr()
	db.mem.ResetRunError()
}

// ReleaseAll releases every cataloged relation — blocks, retired view copies
// and spill files — without committing anything. The engine's abort path
// calls it so a cancelled or failed run tears down to zero live pooled bytes.
func (db *Database) ReleaseAll() {
	for _, r := range db.cat.Relations() {
		db.cat.Drop(r.Name())
		r.Release()
		r.ReclaimRetired()
	}
}

// Txn exposes the transaction manager, or nil with DisableIO.
func (db *Database) Txn() *txn.Manager { return db.txn }

// QueriesIssued counts the statements Exec ran (ExecSQL included) — the
// per-query overhead UIE minimizes. A statement that failed to parse or bind
// was never issued and is not counted.
func (db *Database) QueriesIssued() int64 { return db.queries.Load() }

// StatementsPrepared counts the statements Prepare bound (ExecSQL included).
func (db *Database) StatementsPrepared() int64 { return db.prepared.Load() }

// CopySnapshot reads the copy-accounting counters (tuples scattered, tuples
// adopted without copy, flat materializations) accumulated by every operator
// run on this database's pool.
func (db *Database) CopySnapshot() exec.CopySnapshot { return db.pool.Copy.Snapshot() }

// OutputHint is what the consumer of an INSERT … SELECT's result tells the
// producer about it — the one door through which knowledge of the next
// operator reaches a query's final operator.
type OutputHint struct {
	// Part, with more than one partition, asks the final operator of every
	// branch to scatter its output rows by it; the materialized result then
	// carries the partitioning, landing pre-partitioned for the fused delta
	// step or the partitioned aggregate merge.
	Part storage.Partitioning
	// Set says the consumer reads the result as a set: it removes duplicates
	// before anything else sees the rows. A branch's last join may then drop a
	// row equal to one the same operator call already emitted. Only a consumer
	// that dedups unconditionally may say so — an aggregate, or a pipeline that
	// measures the duplicates, must see the full bag.
	Set bool
}

// part returns the partitioning to emit by, nil for a flat result.
func (h OutputHint) part() *storage.Partitioning {
	if h.Part.Parts > 1 {
		return &h.Part
	}
	return nil
}

// SetOutputHint registers h for the INSERT … SELECTs into table. It persists
// until cleared or overwritten (the engine re-registers it per iteration as
// the chosen fan-out shifts).
func (db *Database) SetOutputHint(table string, h OutputHint) {
	db.hintMu.Lock()
	defer db.hintMu.Unlock()
	if db.outHints == nil {
		db.outHints = make(map[string]OutputHint)
	}
	db.outHints[table] = h
}

// ClearOutputHint removes a table's output hint.
func (db *Database) ClearOutputHint(table string) {
	db.hintMu.Lock()
	defer db.hintMu.Unlock()
	delete(db.outHints, table)
}

// outputHint looks up the hint for a destination table (zero when none).
func (db *Database) outputHint(table string) OutputHint {
	db.hintMu.Lock()
	defer db.hintMu.Unlock()
	return db.outHints[table]
}

// FilteredSuffix names the transient relations runBranch materializes for
// pre-filtered join inputs ("<table>_filtered"). The copy-accounting
// experiments use it to exclude those intermediates from the carried-build
// metrics — no carried partitioning could ever serve them.
const FilteredSuffix = "_filtered"

// schemaFn adapts the catalog for the SQL binder.
func (db *Database) schemaFn(table string) ([]string, bool) {
	r, ok := db.cat.Get(table)
	if !ok {
		return nil, false
	}
	return r.ColNames(), true
}

// ExecSQL parses, binds and executes one SQL statement: Prepare, then Exec.
// SELECT returns its result relation; other statements return nil.
func (db *Database) ExecSQL(q string) (*storage.Relation, error) {
	st, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return db.Exec(st)
}

// Prepare parses and binds one SQL statement against the catalog without
// running it. Binding resolves table names to column positions only; the
// tables a statement reads are looked up again, and its joins ordered on
// live cardinalities, each time Exec runs it. So a bound statement stays
// valid for as long as the tables it names keep their arity, and the engine
// binds each rule unit once per stratum. Bound statements are read-only:
// their branches run concurrently and across iterations, and each branch
// compiles the plan of a join order once, on the first run under that order
// (plan.Branch.Compile).
func (db *Database) Prepare(q string) (plan.Statement, error) {
	st, err := sql.Parse(q, db.schemaFn)
	if err != nil {
		return nil, err
	}
	db.prepared.Add(1)
	return st, nil
}

// Exec runs one bound statement. SELECT returns its result relation; other
// statements return nil.
func (db *Database) Exec(st plan.Statement) (*storage.Relation, error) {
	db.queries.Add(1)
	db.mu.Lock()
	defer db.mu.Unlock()
	res, err := db.execStatement(st)
	if err == nil {
		// A statement can "succeed" operationally while the run underneath it
		// is aborting (cancelled context, contained worker panic, fatal
		// manager failure): operators drain early and return partial results.
		// Surface the abort here so no caller acts on those results.
		if aerr := db.Err(); aerr != nil {
			if res != nil {
				res.Release()
			}
			return nil, aerr
		}
	}
	return res, err
}

// QueryOf returns the query a bound INSERT … SELECT or SELECT evaluates.
func QueryOf(st plan.Statement) (*plan.Query, error) {
	switch s := st.(type) {
	case plan.InsertSelect:
		return s.Query, nil
	case plan.SelectStmt:
		return s.Query, nil
	}
	return nil, fmt.Errorf("quickstep: %T carries no query", st)
}

// ExecScript executes a semicolon-separated list of statements.
func (db *Database) ExecScript(script string) error {
	for _, stmt := range sql.SplitScript(script) {
		if _, err := db.ExecSQL(stmt); err != nil {
			return fmt.Errorf("quickstep: executing %q: %w", stmt, err)
		}
	}
	return nil
}

func (db *Database) execStatement(st plan.Statement) (*storage.Relation, error) {
	switch s := st.(type) {
	case plan.CreateTable:
		if _, err := db.cat.Create(s.Name, s.Cols); err != nil {
			return nil, err
		}
		return nil, nil
	case plan.DropTable:
		if _, ok := db.cat.Get(s.Name); !ok {
			if s.IfExists {
				return nil, nil
			}
			return nil, fmt.Errorf("quickstep: DROP of unknown table %q", s.Name)
		}
		r, _ := db.cat.Get(s.Name)
		db.cat.Drop(s.Name)
		db.stats.Drop(s.Name)
		if db.txn != nil {
			db.txn.Forget(s.Name)
		}
		if r != nil {
			// Epoch reclamation: a dropped table (the per-iteration tmp, a
			// UIE part table) releases its blocks back to the pool the moment
			// it dies. Blocks shared into another relation survive through
			// their remaining references.
			r.Release()
		}
		return nil, nil
	case plan.InsertValues:
		dst, ok := db.cat.Get(s.Table)
		if !ok {
			return nil, fmt.Errorf("quickstep: INSERT into unknown table %q", s.Table)
		}
		for _, tup := range s.Tuples {
			if len(tup) != dst.Arity() {
				return nil, fmt.Errorf("quickstep: INSERT arity %d into table %q of arity %d", len(tup), s.Table, dst.Arity())
			}
			dst.Append(tup)
		}
		return nil, db.afterMutation(s.Table)
	case plan.InsertSelect:
		dst, ok := db.cat.Get(s.Table)
		if !ok {
			return nil, fmt.Errorf("quickstep: INSERT into unknown table %q", s.Table)
		}
		out := db.outputHint(s.Table)
		hint := out.part()
		res, err := db.runQuery(s.Query, s.Table+"_ins", out)
		if err != nil {
			return nil, err
		}
		if res.Arity() != dst.Arity() {
			return nil, fmt.Errorf("quickstep: INSERT SELECT arity %d into table %q of arity %d", res.Arity(), s.Table, dst.Arity())
		}
		dst.AppendRelation(res)
		db.pool.Copy.Adopted.Add(int64(res.NumTuples()))
		res.Release() // transient result shell; dst holds the blocks now
		if hint != nil {
			if got, ok := dst.Partitioning(); !ok || !got.Equal(*hint) {
				// Some branch could not honour the fused scatter: the
				// destination materialized flat and the delta step will pay a
				// re-scatter. Recorded so the cost is measurable.
				db.pool.Copy.FlatMats.Add(1)
			}
		}
		return nil, db.afterMutation(s.Table)
	case plan.SelectStmt:
		return db.runQuery(s.Query, "result", OutputHint{})
	}
	return nil, fmt.Errorf("quickstep: unhandled statement %T", st)
}

func (db *Database) afterMutation(table string) error {
	db.stats.Invalidate(table)
	if db.txn != nil {
		db.txn.MarkDirty(table)
		return db.txn.MaybeCommit(db.cat)
	}
	return nil
}

// runQuery evaluates a bound query. UNION ALL branches run concurrently —
// the execution-level payoff of UIE: subqueries of one unified query keep
// all cores busy without inter-query coordination. Branch 0 runs on the
// calling goroutine and each further branch on one goroutine of its own, so a
// one-arm query — every iteration of a linear recursion — hands off to no
// other goroutine. With an output partitioning, every branch emits
// pre-partitioned and the union merges the per-partition block lists, so the
// combined result still carries it.
func (db *Database) runQuery(q *plan.Query, name string, out OutputHint) (*storage.Relation, error) {
	results := make([]*storage.Relation, len(q.Branches))
	errs := make([]error, len(q.Branches))
	var wg sync.WaitGroup
	for i := 1; i < len(q.Branches); i++ {
		wg.Add(1)
		db.armGoroutines.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = db.runArm(q.Branches[i], name, out)
		}(i)
	}
	results[0], errs[0] = db.runArm(q.Branches[0], name, out)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Sibling branches may have completed; release their results so a
			// failed query leaks nothing.
			for _, r := range results {
				if r != nil {
					r.Release()
				}
			}
			return nil, err
		}
	}
	outCols := q.OutCols
	if len(outCols) != results[0].Arity() {
		outCols = storage.NumberedColumns(results[0].Arity())
	}
	union := exec.UnionAll(name, outCols, results...)
	for _, br := range results {
		br.Release() // branch shells are dead; union retains their blocks
	}
	return union, nil
}

// runArm runs one branch of a query and contains a panic raised in it — on
// the caller's goroutine or an arm's own, outside the pool's worker guard —
// as the branch's error and the run's failure, so operator state corrupted by
// an aborting run cannot crash the process.
func (db *Database) runArm(br *plan.Branch, query string, out OutputHint) (res *storage.Relation, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("quickstep: query branch panic: %v\n%s", v, debug.Stack())
			db.pool.Fail(err)
			res = nil
		}
	}()
	return db.runBranch(br, br.Names(query), out)
}

// ArmGoroutines counts the goroutines runQuery has started for UNION ALL
// arms: none for a one-arm query, k−1 for a k-arm query.
func (db *Database) ArmGoroutines() int64 { return db.armGoroutines.Load() }

func (db *Database) runBranch(br *plan.Branch, names *plan.Names, hint OutputHint) (*storage.Relation, error) {
	part := hint.part()
	name := names.Branch
	// Resolve and pre-filter base tables. owned marks relations this branch
	// materialized itself (filtered inputs, join intermediates): they are
	// released — blocks recycled — as soon as the next operator has consumed
	// them, the operator-level half of epoch reclamation.
	inputs := make([]*storage.Relation, len(br.Tables))
	owned := make([]bool, len(br.Tables))
	for i, t := range br.Tables {
		r, ok := db.cat.Get(t)
		if !ok {
			return nil, fmt.Errorf("quickstep: unknown table %q", t)
		}
		if preds := br.PreFilter[i]; len(preds) > 0 {
			r = exec.SelectProject(db.pool, r, preds, identityProjs(r.Arity()), t+FilteredSuffix, r.ColNames())
			owned[i] = true
		}
		inputs[i] = r
	}

	// Per-atom cardinalities drive the greedy ordering pass. Pre-filtered
	// materializations use their live (post-filter) count; unfiltered base
	// tables use catalog statistics. ∆-relations re-resolve from the catalog
	// every iteration, so delta arms are ordered by the live delta count.
	n := len(br.Tables)
	cards := make([]int, n)
	for i := range inputs {
		if owned[i] {
			cards[i] = inputs[i].NumTuples()
		} else {
			cards[i] = db.statTuples(br.Tables[i], inputs[i])
		}
	}
	strategy := optimizer.ChooseJoinStrategy(br)
	if strategy == optimizer.JoinWCOJ {
		db.notePlan(name, br, br.Tables, cards, strategy)
		return db.runBranchWCOJ(br, inputs, owned, name, part)
	}
	// The order is re-chosen on this run's cardinalities; the chain, keys and
	// remapped expressions for that order are compiled once per branch.
	order := optimizer.OrderJoins(br, cards)
	ord := br.Compile(order)
	db.notePlan(name, br, ord.OrderNames, cards, strategy)
	projs, groupBy, aggs := ord.Projs, ord.GroupBy, ord.Aggs
	totalWidth := br.Shape().Width

	cur := inputs[order[0]]
	curOwned := owned[order[0]]
	width := br.Arities[order[0]]
	// The select list fuses into the last join when nothing follows it,
	// avoiding one full materialization of the combined rows.
	fuseFinal := len(ord.Steps) > 0 && len(br.AntiJoins) == 0 && len(br.Aggs) == 0
	// A grouped aggregate fed by a join runs inside the last join: the join
	// projects the group columns and the aggregate arguments, folds every
	// match into its worker's aggregate tables and returns the groups, so the
	// join's output is never materialized.
	joinAgg := len(ord.Steps) > 0 && len(br.AntiJoins) == 0 &&
		len(br.Aggs) > 0 && len(br.GroupBy) > 0
	earlyExit := false
	for step := 0; step < len(ord.Steps); step++ {
		js := ord.Steps[step]
		right := inputs[js.Right]
		// Early termination: an empty running intermediate cannot produce
		// rows, so the remaining hash builds are pure waste. Substitute an
		// empty combined-width relation and fall through to the (cheap)
		// final stages, which preserve output arity and aggregate
		// semantics over the empty input.
		if cur.NumTuples() == 0 {
			if curOwned {
				cur.Release()
			}
			for s2 := step; s2 < len(ord.Steps); s2++ {
				if t := ord.Steps[s2].Right; owned[t] {
					inputs[t].Release()
				}
			}
			e := storage.NewRelation(name+"_empty", storage.NumberedColumns(totalWidth))
			e.SetLifecycle(db.mem, storage.CatIntermediate)
			cur, curOwned, width = e, true, totalWidth
			earlyExit = true
			break
		}
		last := step == len(ord.Steps)-1
		var stepProjs []expr.Expr
		var stepAgg *exec.GroupAgg
		switch {
		case fuseFinal && last:
			stepProjs = projs
		case joinAgg && last:
			// The aggregate's split count is fixed here, before any match
			// exists, from the larger input's cardinality (an equality join's
			// output is probe-sized in the delta-rule shapes that matter).
			parts := db.partitionsFor(max(cur.NumTuples(), right.NumTuples()))
			stepProjs, stepAgg = joinAggSpec(groupBy, aggs, parts)
		default:
			stepProjs = identityProjs(width + br.Arities[js.Right])
		}
		// Only step 0's left side can be a base relation (later steps join an
		// accumulated intermediate), and a pre-filtered input is a transient
		// of this query: neither can hold a table across iterations.
		leftBase := step == 0 && !owned[order[0]]
		buildLeft, buildTuples, cacheBuild := db.chooseBuildSide(cur, br, order[0], step, right, js, leftBase, !owned[js.Right])
		spec := exec.JoinSpec{
			LeftKeys:   js.LeftKeys,
			RightKeys:  js.RightKeys,
			BuildLeft:  buildLeft,
			Partitions: db.partitionsFor(buildTuples),
			CacheBuild: cacheBuild,
			Residual:   js.Residual,
			Projs:      stepProjs,
			OutName:    names.Steps[step],
			Agg:        stepAgg,
		}
		// Join-key-carried fast path: when the build side already carries a
		// partitioning on exactly the join keys (∆R exiting the fused delta
		// step keyed for this very build), adopt its fan-out so the build
		// indexes the carried partition blocks in place — no re-scatter.
		if buildLeft {
			spec.Partitions = db.carriedBuildParts(cur, js.LeftKeys, spec.Partitions)
		} else {
			spec.Partitions = db.carriedBuildParts(right, js.RightKeys, spec.Partitions)
		}
		if fuseFinal && last {
			// Fused scatter: the probe emits the branch output directly into
			// the partitions the delta step consumes — and, told the consumer
			// dedups, need not emit what it has just emitted.
			spec.OutPartitioning = part
			spec.OutSet = hint.Set
		}
		next := exec.HashJoin(db.pool, cur, right, spec)
		if !(fuseFinal && last) {
			db.notePeak(next.NumTuples())
		}
		if curOwned {
			cur.Release()
		}
		if owned[js.Right] {
			right.Release()
		}
		cur, curOwned = next, true
		width += br.Arities[js.Right]
	}
	if fuseFinal && !earlyExit {
		return cur, nil
	}

	for a, aj := range br.AntiJoins {
		if cur.NumTuples() == 0 {
			// Anti-joins only remove rows; nothing to remove from nothing.
			break
		}
		inner, ok := db.cat.Get(aj.Table)
		if !ok {
			return nil, fmt.Errorf("quickstep: unknown table %q in NOT EXISTS", aj.Table)
		}
		innerOwned := false
		if len(aj.InnerPreFilter) > 0 {
			inner = exec.SelectProject(db.pool, inner, aj.InnerPreFilter, identityProjs(inner.Arity()), aj.Table+FilteredSuffix, inner.ColNames())
			innerOwned = true
		}
		outerKeys := ord.AntiOuter[a]
		innerParts := db.carriedBuildParts(inner, aj.InnerKeys, db.partitionsFor(inner.NumTuples()))
		next := exec.AntiJoin(db.pool, cur, inner, outerKeys, aj.InnerKeys, nil, identityProjs(width), innerParts, name+"_anti", nil)
		if curOwned {
			cur.Release()
		}
		if innerOwned {
			inner.Release()
		}
		cur, curOwned = next, true
	}

	if len(br.Aggs) > 0 {
		agg := cur
		if !joinAgg || earlyExit {
			agg = exec.HashAggregatePartitioned(db.pool, cur, groupBy, aggs, db.partitionsFor(cur.NumTuples()), name+"_agg", nil)
			if curOwned {
				cur.Release()
			}
		}
		// Reorder to the select-list order.
		sel := make([]expr.Expr, len(br.SelectOrder))
		for i, so := range br.SelectOrder {
			if so.IsAgg {
				sel[i] = expr.Col{Index: len(br.GroupBy) + so.Index}
			} else {
				sel[i] = expr.Col{Index: so.Index}
			}
		}
		out := exec.SelectProjectPartitioned(db.pool, agg, nil, sel, part, name, nil)
		agg.Release()
		return out, nil
	}
	out := exec.SelectProjectPartitioned(db.pool, cur, nil, projs, part, name, nil)
	if curOwned {
		cur.Release()
	}
	return out, nil
}

// joinAggSpec lays out a join-fed aggregate over the combined row: the join
// projects the group columns, then the aggregate arguments, and aggregates
// that row — grouped on its leading columns, each aggregate reading its own
// argument column — in parts splits.
func joinAggSpec(groupBy []int, aggs []exec.AggSpec, parts int) ([]expr.Expr, *exec.GroupAgg) {
	projs := make([]expr.Expr, 0, len(groupBy)+len(aggs))
	agg := &exec.GroupAgg{GroupBy: make([]int, len(groupBy)), Aggs: make([]exec.AggSpec, len(aggs)), Parts: parts}
	for i, g := range groupBy {
		projs = append(projs, expr.Col{Index: g})
		agg.GroupBy[i] = i
	}
	for j, a := range aggs {
		projs = append(projs, a.Arg)
		agg.Aggs[j] = exec.AggSpec{Func: a.Func, Arg: expr.Col{Index: len(groupBy) + j}}
	}
	return projs, agg
}

// runBranchWCOJ evaluates a cyclic branch with the leapfrog worst-case-
// optimal join: variables are the branch's equi-join classes, atoms
// intersect simultaneously, and no pairwise intermediate exists. Only
// reached for branches without aggregates or anti-joins (ChooseJoinStrategy
// gates on that), so the set-semantics output feeds the dedup'd delta step
// or final projection directly. The combined row is filled in declaration-
// order coordinates, so projections and residuals bind without remapping.
func (db *Database) runBranchWCOJ(br *plan.Branch, inputs []*storage.Relation, owned []bool, name string, part *storage.Partitioning) (*storage.Relation, error) {
	classes := br.VarClasses()
	varOf := map[int]int{}
	var fill [][]int
	atoms := make([]exec.LFAtom, len(br.Tables))
	for t := range br.Tables {
		vars := make([]int, br.Arities[t])
		for c := range vars {
			abs := br.Offsets[t] + c
			k := classes[abs]
			v, ok := varOf[k]
			if !ok {
				v = len(fill)
				varOf[k] = v
				fill = append(fill, nil)
			}
			fill[v] = append(fill[v], abs)
			vars[c] = v
		}
		atoms[t] = exec.LFAtom{Rel: inputs[t], Vars: vars}
	}
	// Enumerate the most-shared variables first (they intersect the most
	// atoms, shrinking candidate windows earliest); ties keep first-
	// occurrence order, which variable ids already encode.
	cnt := make([]int, len(fill))
	for _, a := range atoms {
		seen := map[int]bool{}
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				cnt[v]++
			}
		}
	}
	varOrder := make([]int, len(fill))
	for i := range varOrder {
		varOrder[i] = i
	}
	sort.SliceStable(varOrder, func(i, j int) bool { return cnt[varOrder[i]] > cnt[varOrder[j]] })
	residual := make([]expr.Cmp, len(br.Body.Residuals))
	for i, res := range br.Body.Residuals {
		residual[i] = res.Cmp
	}
	totalWidth := 0
	for _, a := range br.Arities {
		totalWidth += a
	}
	out := exec.LeapfrogJoin(db.pool, exec.LeapfrogSpec{
		Atoms:           atoms,
		VarOrder:        varOrder,
		FillCols:        fill,
		Width:           totalWidth,
		Residual:        residual,
		Projs:           br.Projs,
		OutName:         name,
		OutPartitioning: part,
	})
	for i, r := range inputs {
		if owned[i] {
			r.Release()
		}
	}
	return out, nil
}

// chooseBuildSide applies the optimizer's build-side rule. A fixpoint runs
// the same join every iteration, so a side SetInvariant named (leftBase and
// rightBase say the side is that cataloged relation, not a transient of this
// query) builds from its first use whatever the sizes, and its table is kept
// on the relation: every later iteration probes it with the other side, ∆ in
// a delta rule, and the join costs what ∆ costs. A side already holding its
// table builds first; with both sides invariant the smaller one builds.
// Under a memory budget a new table is only kept while the pool has room for
// it (exec.BuildTableBytes: the budget does not count the Go heap it takes).
// Otherwise it is the per-query rule OOF keeps fresh: catalog statistics for
// base tables (or stale ones, under OOF-NA) and actual counts for
// just-created intermediates decide, the smaller side builds, and when the
// sizes are close the side already carrying a partitioning on exactly its
// join keys builds — in-place table construction over slightly more tuples
// beats a scatter pass over slightly fewer. It returns the decision, the
// chosen side's cardinality estimate (which also drives the radix partition
// count), and whether the build table is cached on the build relation.
func (db *Database) chooseBuildSide(cur *storage.Relation, br *plan.Branch, seed, step int, right *storage.Relation, js plan.JoinStep, leftBase, rightBase bool) (buildLeft bool, buildTuples int, cacheBuild bool) {
	var leftTuples int
	if step == 0 {
		leftTuples = db.statTuples(br.Tables[seed], cur)
	} else {
		leftTuples = cur.NumTuples() // freshly materialized intermediate
	}
	rightTuples := db.statTuples(br.Tables[js.Right], right)
	sides := [2]struct {
		rel       *storage.Relation
		keys      []int
		tuples    int
		invariant bool
	}{
		{right, js.RightKeys, rightTuples, rightBase && db.isInvariant(br.Tables[js.Right])},
		{cur, js.LeftKeys, leftTuples, leftBase && db.isInvariant(br.Tables[seed])},
	}
	for i, s := range sides {
		if s.invariant {
			if _, ok := s.rel.Attachment(exec.BuildCacheKey(s.keys)); ok {
				return i == 1, s.tuples, true
			}
		}
	}
	build := -1
	switch {
	case sides[0].invariant && sides[1].invariant:
		build = 0
		if optimizer.ChooseBuildLeft(leftTuples, rightTuples) {
			build = 1
		}
	case sides[0].invariant:
		build = 0
	case sides[1].invariant:
		build = 1
	}
	if build >= 0 {
		s := sides[build]
		if db.hasHeadroom(exec.BuildTableBytes(s.rel.NumTuples(), s.rel.Arity(), len(s.keys))) {
			return build == 1, s.tuples, true
		}
	}
	// Only step 0's left keys index a base relation's own row; later steps'
	// left side is an accumulated intermediate that never carries a view.
	leftCarried := step == 0 && db.carriedMatch(cur, js.LeftKeys)
	rightCarried := db.carriedMatch(right, js.RightKeys)
	if optimizer.PreferCarriedBuild(leftTuples, rightTuples, leftCarried, rightCarried) {
		return true, leftTuples, false
	}
	return false, rightTuples, false
}

// hasHeadroom reports whether a structure of the given size may be kept
// resident: always without a budget, otherwise only in the room left under
// it — under pressure it would be the first thing evicted again.
func (db *Database) hasHeadroom(bytes int64) bool {
	return db.opts.MemBudgetBytes <= 0 || db.mem.Headroom() >= bytes
}

// carriedMatch reports whether the relation carries a multi-partition view
// routed on exactly the given join keys.
func (db *Database) carriedMatch(r *storage.Relation, keys []int) bool {
	if len(keys) == 0 {
		return false
	}
	p, ok := r.Partitioning()
	return ok && p.Parts > 1 && storage.KeyColsEqual(p.KeyCols, keys)
}

// carriedBuildParts overrides a hash build's chosen fan-out with the one the
// build relation already carries on exactly the join keys, so the build is
// served from carried partition blocks without a scatter pass. Returns the
// fallback fan-out when the carried keyset does not match the join keys.
func (db *Database) carriedBuildParts(build *storage.Relation, keys []int, fallback int) int {
	if len(keys) == 0 {
		return fallback
	}
	if p, ok := build.Partitioning(); ok && p.Parts > 1 && storage.KeyColsEqual(p.KeyCols, keys) {
		return p.Parts
	}
	return fallback
}

// partitionsFor resolves the radix partition count for a hash build of the
// given estimated cardinality under the configured policy.
func (db *Database) partitionsFor(buildTuples int) int {
	if db.opts.Partitions > 0 {
		return db.opts.Partitions
	}
	return optimizer.ChoosePartitionsBudget(buildTuples, db.pool.Workers(), db.mem.Headroom())
}

// statTuples returns the cataloged tuple count for a base table, falling
// back to the live count when the table was never analyzed.
func (db *Database) statTuples(table string, r *storage.Relation) int {
	if t, ok := db.stats.Get(table); ok {
		return t.NumTuples
	}
	return r.NumTuples()
}

func identityProjs(width int) []expr.Expr {
	projs := make([]expr.Expr, width)
	for i := range projs {
		projs[i] = expr.Col{Index: i}
	}
	return projs
}

// Analyze refreshes statistics for a table — Algorithm 1's analyze() call.
func (db *Database) Analyze(table string, mode stats.Mode) (stats.Table, error) {
	r, ok := db.cat.Get(table)
	if !ok {
		return stats.Table{}, fmt.Errorf("quickstep: ANALYZE of unknown table %q", table)
	}
	return db.stats.Analyze(r, mode), nil
}

// AnalyzeRelation refreshes statistics for an unregistered relation (deltas
// and temporaries the engine holds by handle).
func (db *Database) AnalyzeRelation(r *storage.Relation, mode stats.Mode) stats.Table {
	return db.stats.Analyze(r, mode)
}

// Stats returns the recorded (possibly stale) statistics for a table.
func (db *Database) Stats(table string) (stats.Table, bool) {
	return db.stats.Get(table)
}

// Dedup deduplicates a relation using the configured strategy — Algorithm
// 1's dedup() call. estDistinct pre-sizes the hash table; when the caller
// has no estimate (statistics never collected — the OOF-NA regime) the
// table starts at its minimum size and pays long chains, which is exactly
// the cost the paper's per-iteration ANALYZE avoids.
func (db *Database) Dedup(in *storage.Relation, estDistinct int, outName string) *storage.Relation {
	return exec.Dedup(db.pool, in, db.opts.Dedup, estDistinct, outName)
}

// Diff computes ∆R = Rδ − R with the given algorithm. The radix fan-out
// follows the build side, exactly like joins: OPSD builds over R, TPSD over
// the smaller input. Near fixpoint (tiny Rδ, huge R, TPSD) this keeps the
// diff unpartitioned instead of re-scattering all of R every iteration for
// a build that was cheap anyway.
func (db *Database) Diff(rdelta, r *storage.Relation, algo exec.DiffAlgorithm, outName string) *storage.Relation {
	build := r.NumTuples()
	if n := rdelta.NumTuples(); algo == exec.TPSD && n < build {
		build = n
	}
	return exec.SetDifferencePartitioned(db.pool, rdelta, r, algo, db.partitionsFor(build), outName)
}

// residentIndexKey names the set-difference index among a full relation's
// attachments.
const residentIndexKey = "setdiff"

// DeltaStep fuses Algorithm 1's dedup(Rt) + (Rδ − R) sequence and the merge
// R ← R ⊎ ∆R into one call over part's radix partitions — the
// partition-native replacement for the staged Dedup + Diff + AppendTo
// sequence. part must match the output partitioning registered for Rt's
// producing query so the carried partitions are consumed without a
// re-scatter; its key columns may be a join-key subset of the tuple (any
// keyset co-locates equal tuples), in which case the returned ∆R exits
// already scattered on the columns the next iteration's hash builds key on.
// ∆R carries the same partitioning, so the merge keeps R partition-native
// for the next iteration. estDistinct is the OOF estimate of |Rδ| (dedup
// pre-sizing, exactly as in Dedup).
//
// The pass and the merge are one call because the set-difference table may
// outlive them: with keepIndex (the engine passes it under DSDDynamic; the
// forced DSD modes reproduce the paper's per-iteration tables) the GSCHT set
// over R is kept on R as a resident index once set difference has re-read R
// optimizer.ResidentAmortise times over, and a pass that finds it is a single
// insert-if-absent of Rt — no scan of R, no re-seed — after which the merge
// re-attaches it as covering R ⊎ ∆R. Any other mutation of R, or a shift of
// part, drops it and the next pass re-seeds at the OPSD pass's cost. Under a
// memory budget with no headroom for the index the pass releases it and runs
// transient. Whenever no index serves the pass, algo picks the transient
// flavour. The returned algorithm is the one that ran (OPSD for a resident
// pass: it is the one-phase algorithm whose build was paid earlier).
func (db *Database) DeltaStep(tmp *storage.Relation, pred string, algo exec.DiffAlgorithm, part storage.Partitioning, estDistinct int, outName string, keepIndex bool) (*storage.Relation, exec.DiffAlgorithm, error) {
	full, ok := db.cat.Get(pred)
	if !ok {
		return nil, algo, fmt.Errorf("quickstep: delta step over unknown table %q", pred)
	}
	var idx *exec.ResidentIndex
	if att, ok := full.TakeAttachment(residentIndexKey); ok {
		idx = att.(*exec.ResidentIndex)
	}
	if keepIndex && exec.ResidentCapable(full.Arity()) && db.indexWorthKeeping(pred, full, idx, part, estDistinct) {
		delta, kept, v := exec.DeltaStepResident(db.pool, tmp, full, idx, part, estDistinct, outName)
		if err := db.Err(); err != nil {
			// An aborted pass leaves the index holding rows R never received.
			kept.Release()
			delta.Release()
			return nil, exec.OPSD, err
		}
		if !full.AppendRelationAttaching(delta, residentIndexKey, kept, v) {
			kept.Release()
		}
		db.pool.Copy.Adopted.Add(int64(delta.NumTuples()))
		return delta, exec.OPSD, db.afterMutation(pred)
	}
	if idx != nil {
		idx.Release()
	}
	before := db.pool.Copy.SetDiffRowsScanned.Load()
	delta := exec.DeltaStep(db.pool, tmp, full, algo, part, estDistinct, outName)
	db.hintMu.Lock()
	db.rescanDebtLocked(pred).rows += db.pool.Copy.SetDiffRowsScanned.Load() - before
	db.hintMu.Unlock()
	if err := db.Err(); err != nil {
		delta.Release()
		return nil, algo, err
	}
	return delta, algo, db.AppendTo(pred, delta)
}

// indexWorthKeeping decides whether this pass runs against a resident index:
// one that serves the pass is kept while the budget has room for what the
// pass adds to it; a missing or unserving one is (re-)seeded only once the
// predicate's rescans have repaid an index — a decision that sticks, so a
// drop by deletion or fan-out shift re-seeds at the very next pass — and
// the budget has room for all of it.
func (db *Database) indexWorthKeeping(pred string, full *storage.Relation, idx *exec.ResidentIndex, part storage.Partitioning, estDistinct int) bool {
	arity := full.Arity()
	if idx != nil && idx.Serves(arity, part) {
		return db.hasHeadroom(exec.ResidentIndexBytes(estDistinct, arity))
	}
	rows := full.NumTuples()
	db.hintMu.Lock()
	d := db.rescanDebtLocked(pred)
	d.repaid = d.repaid || optimizer.RepaysResident(d.rows, rows)
	repaid := d.repaid
	db.hintMu.Unlock()
	return repaid && db.hasHeadroom(exec.ResidentIndexBytes(rows+estDistinct, arity))
}

// PlanJoinKeys reports, for one bound query (without executing it), per
// input table, the distinct join-key column sets under which the table
// enters a hash build or probe *directly* — as the first FROM item of a
// branch, the right side of any join step, or the inner side of an
// anti-join. The engine runs it once per stratum over the recursive queries
// to learn which key columns the fixpoint's joins will want each recursive
// relation partitioned on, before choosing the partitioning that is carried
// through the delta pipeline. Key positions where the table only enters as
// part of an accumulated join prefix are not attributable to the table alone
// and are ignored (a carried partitioning could not serve those builds
// anyway).
func PlanJoinKeys(query *plan.Query) map[string][][]int {
	usage := make(map[string][][]int)
	add := func(table string, keys []int) {
		if len(keys) == 0 {
			return
		}
		for _, k := range usage[table] {
			if storage.KeyColsEqual(k, keys) {
				return
			}
		}
		usage[table] = append(usage[table], append([]int(nil), keys...))
	}
	for _, br := range query.Branches {
		// The join order is chosen at run time (per iteration), so the
		// keysets a table may build under are derived from the order-free
		// variable classes: for each partner u sharing a class with t, t can
		// enter a build keyed on its columns in classes shared with u (t
		// placed right after a prefix containing u), and keyed on all its
		// shared columns at once (t placed last). Both candidate forms are
		// reported; RankJoinKeysets and the carried-view chooser pick among
		// them exactly as they picked among the textual-order keysets.
		n := len(br.Tables)
		classes := br.VarClasses()
		classCols := make([]map[int][]int, n)
		for t := 0; t < n; t++ {
			classCols[t] = map[int][]int{}
			for c := 0; c < br.Arities[t]; c++ {
				k := classes[br.Offsets[t]+c]
				classCols[t][k] = append(classCols[t][k], c)
			}
		}
		for t := 0; t < n; t++ {
			var combined []int
			for u := 0; u < n; u++ {
				if u == t {
					continue
				}
				var pair []int
				for c := 0; c < br.Arities[t]; c++ {
					k := classes[br.Offsets[t]+c]
					if len(classCols[u][k]) > 0 {
						pair = append(pair, c)
					}
				}
				add(br.Tables[t], pair)
				for _, c := range pair {
					already := false
					for _, x := range combined {
						if x == c {
							already = true
							break
						}
					}
					if !already {
						combined = append(combined, c)
					}
				}
			}
			sort.Ints(combined)
			add(br.Tables[t], combined)
		}
		for _, aj := range br.AntiJoins {
			add(aj.Table, aj.InnerKeys)
			if len(br.Tables) == 1 {
				add(br.Tables[0], aj.OuterKeys)
			}
		}
	}
	return usage
}

// Install registers a relation in the catalog (replacing any same-named
// table) and marks it dirty. Any replaced relation is left untouched (the
// caller may still hold it).
func (db *Database) Install(r *storage.Relation) error {
	db.cat.Adopt(r)
	return db.afterMutation(r.Name())
}

// InstallReplacing is Install plus epoch reclamation of the replaced
// relation: its blocks are released back to the pool. The engine uses it at
// the points of Algorithm 1 where the replaced table is provably dead — the
// previous iteration’s ∆R (whose blocks live on inside R through their
// adoption references) and superseded aggregate materializations.
func (db *Database) InstallReplacing(r *storage.Relation) error {
	old, _ := db.cat.Get(r.Name())
	db.cat.Adopt(r)
	if old != nil && old != r {
		old.Release()
	}
	return db.afterMutation(r.Name())
}

// AppendTo implements R ← R ⊎ ∆R: block-sharing append plus commit
// bookkeeping. When src carries a partitioning compatible with dst's, the
// per-partition block lists merge and dst stays partition-native.
func (db *Database) AppendTo(dst string, src *storage.Relation) error {
	d, ok := db.cat.Get(dst)
	if !ok {
		return fmt.Errorf("quickstep: append to unknown table %q", dst)
	}
	d.AppendRelation(src)
	db.pool.Copy.Adopted.Add(int64(src.NumTuples()))
	return db.afterMutation(dst)
}

// DropTable removes a table from the catalog directly, releasing its blocks
// — the teardown path for incremental-update side tables. Unlike a DROP
// TABLE statement it bypasses the planner and pool entirely, so it works
// even while the pool carries a recorded failure (a failed update must still
// tear its temporaries down). Dropping an unknown table is a no-op.
func (db *Database) DropTable(name string) {
	r, ok := db.cat.Get(name)
	if !ok {
		return
	}
	db.cat.Drop(name)
	db.stats.Drop(name)
	if db.txn != nil {
		db.txn.Forget(name)
	}
	r.Release()
	r.ReclaimRetired()
}

// AppendRowsTo appends raw tuples to a cataloged relation — the plus side of
// an EDB update. Rows land through the normal append path (cached partition
// views invalidate; base EDBs carry none, so nothing rescatters).
func (db *Database) AppendRowsTo(table string, rows [][]int32) error {
	r, ok := db.cat.Get(table)
	if !ok {
		return fmt.Errorf("quickstep: append rows to unknown table %q", table)
	}
	for _, row := range rows {
		r.Append(row)
	}
	return db.afterMutation(table)
}

// DeleteFrom removes the given tuples from a cataloged relation in place —
// ApplyDelta's deletion of base rows. Tuples not present are ignored; the count of
// rows actually removed is returned. The relation's carried partitioned
// view survives (only affected partitions compact); a sticky fault error on
// the relation aborts the call without mutating anything.
func (db *Database) DeleteFrom(table string, rows [][]int32) (int, error) {
	r, ok := db.cat.Get(table)
	if !ok {
		return 0, fmt.Errorf("quickstep: delete from unknown table %q", table)
	}
	n, err := r.DeleteRows(rows)
	if err != nil {
		return n, err
	}
	return n, db.afterMutation(table)
}

// BuildMembership hashes a cataloged relation into a reusable tuple-
// membership index (see exec.Membership). The caller releases it; the
// relation must stay unmutated while the handle is live. ApplyDelta builds
// one over the updated base relation to classify the requested rows.
func (db *Database) BuildMembership(table string) (*exec.Membership, error) {
	r, ok := db.cat.Get(table)
	if !ok {
		return nil, fmt.Errorf("quickstep: membership over unknown table %q", table)
	}
	return exec.BuildMembership(db.pool, r), nil
}

// FinalCommit persists all dirty tables (fixpoint reached).
func (db *Database) FinalCommit() error {
	if db.txn == nil {
		return nil
	}
	return db.txn.FinalCommit(db.cat)
}
