package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"recstep/internal/datalog/analysis"
	"recstep/internal/datalog/ast"
	"recstep/internal/datalog/querygen"
	"recstep/internal/obs"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/memory"
	"recstep/internal/quickstep/storage"
)

// Incremental fixpoint maintenance. RunIncremental evaluates a program once
// and keeps the database resident; ApplyDelta then maintains the fixpoint
// under EDB insertions and deletions without restarting from ⊥:
//
//   - a stratum whose inputs only gained tuples seeds the existing semi-naive
//     machinery with a pre-scattered ∆ — iteration 1 evaluates each rule once
//     per occurrence of a changed predicate with the injected tuples
//     substituted there, and the ordinary Rec iterations take over;
//   - a stratum that reads a predicate which lost tuples, aggregates, or
//     reads a changed predicate under negation is recomputed: its relations
//     are reset, its fixpoint re-runs over the already-updated inputs below,
//     and the result is diffed against the snapshot taken before;
//   - strata that never read a changed predicate are skipped wholesale.
//
// Each stratum's net insertions propagate to the strata above it through the
// same plus table the EDB insertions entered through; a net deletion is a
// flag that sends every stratum reading the predicate down the recompute
// path. One ApplyDelta walks the dependency order once.

// UpdateStats describes one ApplyDelta call.
type UpdateStats struct {
	// Inserted and Deleted are the net EDB rows applied (requested rows
	// already present / absent do not count).
	Inserted int
	Deleted  int
	// OverDeleted and Rescued are always 0: deletions recompute the strata
	// they reach instead of over-deleting and rescuing. They stay because the
	// repository benchmark still reads them.
	OverDeleted int
	Rescued     int
	// FallbackStrata counts strata maintained by recompute-and-diff.
	FallbackStrata int
	Duration       time.Duration
}

// Database is a resident evaluation: the substrate database stays open
// between updates with every relation (and its carried partitionings, spill
// state and statistics) intact. Not safe for concurrent updates; methods
// serialize on an internal lock.
type Database struct {
	mu      sync.Mutex
	run     *runState
	baseCtx context.Context
	im      *incrMetrics
	stats   Stats
	// dirty marks a failed update: derived relations may hold a partially
	// applied state, so further updates are refused until Rederive.
	dirty  bool
	closed bool
}

// RunIncremental evaluates the program from scratch and returns the resident
// database. The caller must Close it; relations remain inside the database
// (spillable under a memory budget) rather than being restored out.
func (e *Engine) RunIncremental(ctx context.Context, prog *ast.Program, edbs map[string]*storage.Relation) (*Database, error) {
	run, err := e.prepare(ctx, prog)
	if err != nil {
		return nil, err
	}
	if evalErr := run.evaluate(edbs); evalErr != nil {
		run.abort(evalErr)
		run.db.Close()
		return nil, evalErr
	}
	run.collectStats()
	run.stats.Mem = run.db.MemSnapshot()
	run.incremental = true
	d := &Database{run: run, baseCtx: ctx, stats: run.stats}
	if run.ob != nil && run.ob.Reg != nil {
		d.im = &incrMetrics{}
		d.im.register(run.ob.Reg)
	}
	return d, nil
}

// Stats returns the initial from-scratch evaluation's statistics.
func (d *Database) Stats() Stats { return d.stats }

// Dirty reports whether a failed update left derived state inconsistent.
func (d *Database) Dirty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirty
}

// Relation returns the live relation for a predicate (EDB or IDB). The
// handle reads the current state; it must not be mutated by the caller.
func (d *Database) Relation(name string) (*storage.Relation, bool) {
	return d.run.db.Catalog().Get(name)
}

// IDBNames returns the program's derived predicates in a stable order (the
// auxiliary predicates of rule splitting are not among them).
func (d *Database) IDBNames() []string { return d.run.res.IDBNames() }

// MemSnapshot reads the resident database's memory accounting.
func (d *Database) MemSnapshot() memory.Snapshot { return d.run.db.MemSnapshot() }

// Close releases every relation and closes the substrate database. The
// returned snapshot is taken after release — LiveTotal reads zero unless
// blocks leaked.
func (d *Database) Close() (memory.Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return memory.Snapshot{}, errors.New("core: database already closed")
	}
	d.closed = true
	d.run.db.ReleaseAll()
	snap := d.run.db.MemSnapshot()
	err := d.run.db.Close()
	return snap, err
}

// ApplyDelta applies insertions and deletions to one EDB relation and
// maintains every derived relation incrementally. Rows already present
// (insertions) or absent (deletions) are ignored; a row in both lists ends
// up present. On error the database is marked dirty — resident relations
// stay readable, but further updates are refused until Rederive.
func (d *Database) ApplyDelta(rel string, ins, del [][]int32) (UpdateStats, error) {
	return d.ApplyDeltaContext(d.baseCtx, rel, ins, del)
}

// ApplyDeltaContext is ApplyDelta under a caller-supplied context: the
// update aborts at the next task boundary on cancellation.
func (d *Database) ApplyDeltaContext(ctx context.Context, rel string, ins, del [][]int32) (UpdateStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var us UpdateStats
	if d.closed {
		return us, errors.New("core: database closed")
	}
	if d.dirty {
		return us, errors.New("core: database dirty after failed update; Rederive first")
	}
	r := d.run
	pi, ok := r.res.Preds[rel]
	if !ok {
		return us, fmt.Errorf("core: unknown relation %q", rel)
	}
	if pi.IsIDB {
		return us, fmt.Errorf("core: ApplyDelta targets base relations; %q is derived", rel)
	}
	for _, rows := range [][][]int32{ins, del} {
		for _, row := range rows {
			if len(row) != pi.Arity {
				return us, fmt.Errorf("core: %q update row has arity %d, relation expects %d", rel, len(row), pi.Arity)
			}
		}
	}

	start := time.Now()
	r.db.SetContext(ctx)
	defer r.db.SetContext(d.baseCtx)
	endSpan := r.tracer().Span("update", 0, obs.Step{Pred: rel}, -1)
	u := &updateRun{r: r, us: &us, changed: map[string]querygen.Changed{}, tables: map[string]struct{}{}}
	err := func() (err error) {
		// Same containment as evaluate: a panic on the engine goroutine
		// becomes an error, the update fails dirty, the process survives.
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("core: update panic: %v\n%s", v, debug.Stack())
			}
		}()
		return u.apply(rel, ins, del)
	}()
	if err == nil {
		err = r.db.Err()
	}
	u.cleanup()
	endSpan()
	us.Duration = time.Since(start)
	if err != nil {
		d.dirty = true
		if d.im != nil {
			d.im.failed.Add(1)
		}
		return us, err
	}
	if d.im != nil {
		d.im.updates.Add(1)
		d.im.inserted.Add(int64(us.Inserted))
		d.im.deleted.Add(int64(us.Deleted))
		d.im.fallback.Add(int64(us.FallbackStrata))
		d.im.latencyUS.Observe(us.Duration.Microseconds())
	}
	return us, nil
}

// Rederive discards every derived relation and re-runs the fixpoint from
// scratch over the current base relations — the recovery path after a failed
// update. The substrate's recorded run failure is cleared first; base
// relations are left as the failed update last wrote them.
func (d *Database) Rederive() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("core: database closed")
	}
	r := d.run
	r.db.SetContext(d.baseCtx)
	r.db.ResetErr()
	// Drop any update temporaries a failed ApplyDelta left behind.
	for _, name := range r.db.Catalog().Names() {
		for _, suf := range querygen.UpdateSuffixes {
			if len(name) > len(suf) && name[len(name)-len(suf):] == suf {
				r.db.DropTable(name)
				break
			}
		}
	}
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("core: rederive panic: %v\n%s", v, debug.Stack())
			}
		}()
		// Fresh derived relations: replacing the objects wholesale clears any
		// relation-level sticky fault state a failed update poisoned them
		// with, and releases whatever partial contents they held.
		for _, name := range r.res.AllIDBNames() {
			pi := r.res.Preds[name]
			full := storage.NewRelation(name, storage.NumberedColumns(pi.Arity))
			full.SetLifecycle(r.db.Alloc(), storage.CatIDB)
			if err := r.db.InstallReplacing(full); err != nil {
				return err
			}
			r.db.MarkSpillable(name)
			delta := storage.NewRelation(querygen.DeltaTable(name), storage.NumberedColumns(pi.Arity))
			delta.SetLifecycle(r.db.Alloc(), storage.CatDelta)
			if err := r.db.InstallReplacing(delta); err != nil {
				return err
			}
		}
		for _, s := range r.res.Strata {
			if err := r.evalStratum(s); err != nil {
				return err
			}
		}
		return r.db.FinalCommit()
	}()
	if err == nil {
		err = r.db.Err()
	}
	if err != nil {
		d.dirty = true
		return err
	}
	d.dirty = false
	return nil
}

// incrMetrics are the registry instruments ApplyDelta exports.
type incrMetrics struct {
	updates   obs.Counter
	failed    obs.Counter
	inserted  obs.Counter
	deleted   obs.Counter
	fallback  obs.Counter
	latencyUS obs.Histogram
}

func (m *incrMetrics) register(reg *obs.Registry) {
	reg.RegisterCounter("recstep_incremental_updates_total",
		"ApplyDelta calls completed successfully.", &m.updates)
	reg.RegisterCounter("recstep_incremental_update_failures_total",
		"ApplyDelta calls that failed, leaving the database dirty.", &m.failed)
	reg.RegisterCounter("recstep_incremental_inserted_tuples_total",
		"Net base-relation rows inserted by updates.", &m.inserted)
	reg.RegisterCounter("recstep_incremental_deleted_tuples_total",
		"Net base-relation rows deleted by updates.", &m.deleted)
	reg.RegisterCounter("recstep_incremental_fallback_strata_total",
		"Strata maintained by recompute-and-diff instead of seeded semi-naive.", &m.fallback)
	reg.RegisterHistogram("recstep_incremental_update_latency_us",
		"End-to-end ApplyDelta latency in microseconds.", &m.latencyUS)
}

// updateRun is the per-ApplyDelta evaluation state.
type updateRun struct {
	r  *runState
	us *UpdateStats
	// changed records, per predicate, how it changed so far; strata consult
	// it to decide skip / seeded semi-naive / recompute.
	changed map[string]querygen.Changed
	// tables are the update side tables to drop at the end (success or not).
	tables map[string]struct{}
}

func (u *updateRun) track(name string) { u.tables[name] = struct{}{} }

func (u *updateRun) cleanup() {
	for name := range u.tables {
		u.r.db.DropTable(name)
	}
}

// apply is the update driver: exact EDB delta, physical base mutation, then
// one pass over the strata in dependency order.
func (u *updateRun) apply(rel string, ins, del [][]int32) error {
	r := u.r
	// Exact net EDB delta. Final contents are (cur − del) ∪ ins, so
	// minus = (cur ∩ del) − ins and plus = ins − cur; rows listed in both
	// del and ins cancel. Membership over cur makes this O(|update|) probes
	// after one parallel O(|cur|) hash build.
	m, err := r.db.BuildMembership(rel)
	if err != nil {
		return err
	}
	insSet := make(map[string]struct{}, len(ins))
	for _, row := range ins {
		insSet[packRow(row)] = struct{}{}
	}
	seen := make(map[string]struct{}, len(ins)+len(del))
	var minusRows, plusRows [][]int32
	for _, row := range del {
		k := packRow(row)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if _, kept := insSet[k]; !kept && m.Contains(row) {
			minusRows = append(minusRows, row)
		}
	}
	for _, row := range ins {
		k := packRow(row)
		if _, dup := seen[k+"+"]; dup {
			continue
		}
		seen[k+"+"] = struct{}{}
		if !m.Contains(row) {
			plusRows = append(plusRows, row)
		}
	}
	m.Release()
	if err := r.db.Err(); err != nil {
		return err
	}
	if len(minusRows) == 0 && len(plusRows) == 0 {
		return nil
	}

	// Physical base mutation first: every stratum below reads the new EDB.
	if n, err := r.db.DeleteFrom(rel, minusRows); err != nil {
		return err
	} else {
		u.us.Deleted = n
	}
	if err := r.db.AppendRowsTo(rel, plusRows); err != nil {
		return err
	}
	u.us.Inserted = len(plusRows)
	u.changed[rel] = querygen.Changed{Minus: len(minusRows) > 0, Plus: len(plusRows) > 0}
	if len(plusRows) > 0 {
		if err := u.installRows(querygen.PlusTable(rel), len(plusRows[0]), plusRows); err != nil {
			return err
		}
	}

	for _, s := range r.res.Strata {
		if !querygen.StratumReadsChanged(r.res, s, u.changed) {
			continue
		}
		if querygen.StratumNeedsFallback(r.res, s, u.changed) {
			u.us.FallbackStrata++
			if err := u.fallbackStratum(s); err != nil {
				return err
			}
			continue
		}
		if err := u.insertPhase(s); err != nil {
			return err
		}
	}
	return r.db.FinalCommit()
}

// installRows catalogs a fresh side table holding the given rows.
func (u *updateRun) installRows(name string, arity int, rows [][]int32) error {
	rel := storage.NewRelation(name, storage.NumberedColumns(arity))
	rel.SetLifecycle(u.r.db.Alloc(), storage.CatIntermediate)
	for _, row := range rows {
		rel.Append(row)
	}
	u.track(name)
	return u.r.db.Install(rel)
}

// shareInto copies a relation's contents under a new name by block sharing.
func shareInto(r *runState, name string, src *storage.Relation) *storage.Relation {
	out := storage.NewRelation(name, storage.NumberedColumns(src.Arity()))
	out.SetLifecycle(r.db.Alloc(), storage.CatIntermediate)
	out.AppendRelation(src)
	return out
}

// fallbackStratum maintains one stratum by recompute-and-diff: snapshot the
// current (pre-update-propagation) values, reset the stratum's relations,
// re-run its fixpoint against the already-updated inputs below, and diff.
// Only the net insertions are materialized, as the plus table: a derived
// relation is a set, so it lost tuples exactly when |prev| + |plus| > |cur|.
func (u *updateRun) fallbackStratum(s analysis.Stratum) error {
	r := u.r
	for _, name := range s.IDBs {
		cur := r.db.Catalog().MustGet(name)
		prev := shareInto(r, querygen.PrevTable(name), cur)
		u.track(prev.Name())
		if err := r.db.Install(prev); err != nil {
			return err
		}
		pi := r.res.Preds[name]
		empty := storage.NewRelation(name, storage.NumberedColumns(pi.Arity))
		empty.SetLifecycle(r.db.Alloc(), storage.CatIDB)
		if err := r.db.InstallReplacing(empty); err != nil {
			return err
		}
		r.db.MarkSpillable(name)
	}
	if err := r.evalStratum(s); err != nil {
		return err
	}
	for _, name := range s.IDBs {
		cur := r.db.Catalog().MustGet(name)
		prev := r.db.Catalog().MustGet(querygen.PrevTable(name))
		plus := r.db.Diff(cur, prev, exec.OPSD, querygen.PlusTable(name))
		u.track(plus.Name())
		if err := r.db.Install(plus); err != nil {
			return err
		}
		lost := prev.NumTuples()+plus.NumTuples() > cur.NumTuples()
		r.db.DropTable(prev.Name())
		u.record(name, lost, plus)
	}
	return r.db.Err()
}

// insertPhase maintains one stratum whose inputs only gained tuples by the
// seeded semi-naive fixpoint: iteration 1 evaluates the injection arms (the
// plus tables substituted into each rule occurrence of a changed predicate),
// later iterations are the ordinary Rec arms. Every installed ∆ accumulates
// into the predicate's plus table, which the strata above read.
func (u *updateRun) insertPhase(s analysis.Stratum) error {
	r := u.r
	seed := make(map[string]querygen.UnitQueries, len(s.IDBs))
	for _, pred := range s.IDBs {
		if err := u.installRows(querygen.PlusTable(pred), r.res.Preds[pred].Arity, nil); err != nil {
			return err
		}
		unit, err := r.gen.InjectQueries(s, pred, u.changed)
		if err != nil {
			return err
		}
		seed[pred] = unit
	}
	if err := r.evalStratumWith(s, seed, func(pred string, delta *storage.Relation) error {
		return r.db.AppendTo(querygen.PlusTable(pred), delta)
	}); err != nil {
		return err
	}
	for _, pred := range s.IDBs {
		u.record(pred, false, r.db.Catalog().MustGet(querygen.PlusTable(pred)))
	}
	return r.db.Err()
}

// record notes how one IDB changed once its stratum completes.
func (u *updateRun) record(pred string, lost bool, plus *storage.Relation) {
	ch := querygen.Changed{Minus: lost, Plus: plus.NumTuples() > 0}
	if ch.Minus || ch.Plus {
		u.changed[pred] = ch
	}
}

// packRow encodes a tuple as a map key (4 bytes per column).
func packRow(row []int32) string {
	buf := make([]byte, 4*len(row))
	for i, v := range row {
		w := uint32(v)
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	return string(buf)
}
