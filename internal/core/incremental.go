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
	"recstep/internal/quickstep"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/memory"
	"recstep/internal/quickstep/storage"
)

// Incremental fixpoint maintenance. RunIncremental evaluates a program once
// and keeps the database resident; ApplyDelta then maintains the fixpoint
// under EDB insertions and deletions without restarting from ⊥:
//
//   - insertions seed the existing semi-naive machinery with a pre-scattered
//     ∆ — iteration 1 evaluates each rule once per occurrence of a changed
//     predicate with the injected tuples substituted there, and the ordinary
//     Rec iterations take over;
//   - deletions run DRed per stratum: an over-delete fixpoint computes the
//     downward closure of the deleted facts (candidates are intersected with
//     R, so the dead set is exact-or-under the derivable-from-deleted set),
//     the dead tuples are removed physically, and a rescue fixpoint
//     re-derives every dead tuple that still has a derivation — the rescue
//     arms join the full rule bodies against the (tiny) dead table on the
//     head columns, so the greedy join order seeds from it and each round
//     costs O(|dead| · fanout), not O(|R|);
//   - strata with aggregation, or with a changed predicate under negation,
//     fall back to recompute-and-diff (the only sound option there); strata
//     that never read a changed predicate are skipped wholesale.
//
// Each stratum's net change (minus = dead − re-added, plus = added − dead)
// propagates to the strata above it through the same side tables the EDB
// delta entered through, so one ApplyDelta walks the dependency order once.

// UpdateStats describes one ApplyDelta call.
type UpdateStats struct {
	// Inserted and Deleted are the net EDB rows applied (requested rows
	// already present / absent do not count).
	Inserted int
	Deleted  int
	// OverDeleted counts tuples removed by DRed's downward closure across
	// all strata; Rescued counts how many of those were re-derived.
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

// IDBNames returns the program's derived predicates in a stable order.
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
		d.im.overDeleted.Add(int64(us.OverDeleted))
		d.im.rescued.Add(int64(us.Rescued))
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
		for _, name := range r.res.IDBNames() {
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
	updates     obs.Counter
	failed      obs.Counter
	inserted    obs.Counter
	deleted     obs.Counter
	overDeleted obs.Counter
	rescued     obs.Counter
	fallback    obs.Counter
	latencyUS   obs.Histogram
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
	reg.RegisterCounter("recstep_incremental_overdeleted_tuples_total",
		"Derived tuples removed by DRed's downward closure.", &m.overDeleted)
	reg.RegisterCounter("recstep_incremental_rescued_tuples_total",
		"Over-deleted tuples re-derived by the rescue fixpoint.", &m.rescued)
	reg.RegisterCounter("recstep_incremental_fallback_strata_total",
		"Strata maintained by recompute-and-diff instead of the DRed fast path.", &m.fallback)
	reg.RegisterHistogram("recstep_incremental_update_latency_us",
		"End-to-end ApplyDelta latency in microseconds.", &m.latencyUS)
}

// updateRun is the per-ApplyDelta evaluation state.
type updateRun struct {
	r  *runState
	us *UpdateStats
	// changed records, per predicate, which net-change side tables exist so
	// far; strata consult it to decide skip / fast path / fallback.
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
	if err := u.installDeltaTables(rel, minusRows, plusRows); err != nil {
		return err
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
		if err := u.incStratum(s); err != nil {
			return err
		}
	}
	return r.db.FinalCommit()
}

// installDeltaTables materializes a predicate's minus/plus side tables (only
// the non-empty ones) and, when tuples were deleted, the old-value
// over-approximation current ∪ minus the downstream over-delete rounds read.
func (u *updateRun) installDeltaTables(pred string, minusRows, plusRows [][]int32) error {
	r := u.r
	if len(minusRows) > 0 {
		minus, err := u.installRows(querygen.MinusTable(pred), len(minusRows[0]), minusRows)
		if err != nil {
			return err
		}
		cur := r.db.Catalog().MustGet(pred)
		old := storage.NewRelation(querygen.OldTable(pred), storage.NumberedColumns(cur.Arity()))
		old.SetLifecycle(r.db.Alloc(), storage.CatIntermediate)
		old.AppendRelation(cur)
		old.AppendRelation(minus)
		u.track(old.Name())
		if err := r.db.Install(old); err != nil {
			return err
		}
	}
	if len(plusRows) > 0 {
		if _, err := u.installRows(querygen.PlusTable(pred), len(plusRows[0]), plusRows); err != nil {
			return err
		}
	}
	return nil
}

// installRows catalogs a fresh side table holding the given rows.
func (u *updateRun) installRows(name string, arity int, rows [][]int32) (*storage.Relation, error) {
	rel := storage.NewRelation(name, storage.NumberedColumns(arity))
	rel.SetLifecycle(u.r.db.Alloc(), storage.CatIntermediate)
	for _, row := range rows {
		rel.Append(row)
	}
	u.track(name)
	return rel, u.r.db.Install(rel)
}

// installSideTables materializes one IDB's net-change tables after its
// stratum completes: minus = dead − added, plus = added − dead (a tuple both
// over-deleted and re-added by the insertion phase nets out), plus the old
// table when anything was deleted. Updates the changed map.
func (u *updateRun) installSideTables(pred string, dead, added *storage.Relation) error {
	r := u.r
	deadN, addN := 0, 0
	if dead != nil {
		deadN = dead.NumTuples()
	}
	if added != nil {
		addN = added.NumTuples()
	}
	var minus, plus *storage.Relation
	switch {
	case deadN > 0 && addN > 0:
		minus = r.db.Diff(dead, added, exec.OPSD, querygen.MinusTable(pred))
		plus = r.db.Diff(added, dead, exec.OPSD, querygen.PlusTable(pred))
	case deadN > 0:
		minus = shareInto(r, querygen.MinusTable(pred), dead)
	case addN > 0:
		plus = shareInto(r, querygen.PlusTable(pred), added)
	}
	ch := querygen.Changed{}
	if minus != nil && minus.NumTuples() > 0 {
		ch.Minus = true
		u.track(minus.Name())
		if err := r.db.Install(minus); err != nil {
			return err
		}
		cur := r.db.Catalog().MustGet(pred)
		old := storage.NewRelation(querygen.OldTable(pred), storage.NumberedColumns(cur.Arity()))
		old.SetLifecycle(r.db.Alloc(), storage.CatIntermediate)
		old.AppendRelation(cur)
		old.AppendRelation(minus)
		u.track(old.Name())
		if err := r.db.Install(old); err != nil {
			return err
		}
	} else if minus != nil {
		minus.Release()
	}
	if plus != nil && plus.NumTuples() > 0 {
		ch.Plus = true
		u.track(plus.Name())
		if err := r.db.Install(plus); err != nil {
			return err
		}
	} else if plus != nil {
		plus.Release()
	}
	if ch.Minus || ch.Plus {
		u.changed[pred] = ch
	}
	return r.db.Err()
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
		minus := r.db.Diff(prev, cur, exec.OPSD, querygen.MinusTable(name))
		added := r.db.Diff(cur, prev, exec.OPSD, querygen.PlusTable(name))
		err := u.installSideTables(name, minus, added)
		minus.Release()
		added.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// incStratum maintains one stratum on the fast path: DRed for deletions,
// seeded semi-naive for insertions, then the net side tables.
func (u *updateRun) incStratum(s analysis.Stratum) error {
	r := u.r
	anyMinus, anyPlus := false, false
	for _, ri := range s.RuleIdx {
		for _, a := range r.res.Program.Rules[ri].Body {
			if a.Negated {
				continue
			}
			c := u.changed[a.Pred]
			anyMinus = anyMinus || c.Minus
			anyPlus = anyPlus || c.Plus
		}
	}

	dead := make(map[string]*storage.Relation, len(s.IDBs))
	if anyMinus {
		if err := u.deletePhase(s, dead); err != nil {
			return err
		}
	}

	added := make(map[string]*storage.Relation, len(s.IDBs))
	if anyPlus {
		if err := u.insertPhase(s, added); err != nil {
			return err
		}
	}

	for _, pred := range s.IDBs {
		if err := u.installSideTables(pred, dead[pred], added[pred]); err != nil {
			return err
		}
	}
	return nil
}

// deletePhase runs DRed for one stratum: the over-delete downward closure
// (physical deletion deferred, so same-stratum reads see pre-update values),
// the physical deletion, then the rescue fixpoint. On return dead[pred]
// holds each predicate's net-deleted set (cataloged as its dead table).
func (u *updateRun) deletePhase(s analysis.Stratum, dead map[string]*storage.Relation) error {
	r := u.r
	for _, pred := range s.IDBs {
		pi := r.res.Preds[pred]
		for _, name := range []string{querygen.DeadTable(pred), querygen.OverTable(pred)} {
			rel := storage.NewRelation(name, storage.NumberedColumns(pi.Arity))
			rel.SetLifecycle(r.db.Alloc(), storage.CatIntermediate)
			u.track(name)
			if err := r.db.Install(rel); err != nil {
				return err
			}
		}
		dead[pred] = r.db.Catalog().MustGet(querygen.DeadTable(pred))
	}

	// Each predicate's over-delete arms, bound once for the whole closure:
	// round 1 runs the seed arms plus the propagation arms (over tables
	// install in predicate order within a round, so a predicate evaluated
	// after a producer must consume the producer's round-1 over table in
	// round 1 itself — by round 2 it has been replaced; arms over still-empty
	// over tables are dropped by the runner's empty-∆ filter), later rounds
	// the propagation arms alone.
	firstRound := make(map[string]boundUnit, len(s.IDBs))
	propagate := make(map[string]boundUnit, len(s.IDBs))
	for _, pred := range s.IDBs {
		var units [2]boundUnit
		for i, seed := range []bool{true, false} {
			unit, err := r.gen.OverDeleteQueries(s, pred, u.changed, seed)
			if err != nil {
				return err
			}
			if units[i], err = r.bindUnit(unit); err != nil {
				return err
			}
		}
		firstRound[pred], propagate[pred] = units[0].then(units[1]), units[1]
	}

	// Membership indexes over each predicate's pre-deletion contents, built
	// lazily on the first non-empty candidate set and probed every round —
	// candidates ∩ R keeps phantom candidates (never-derived tuples the
	// over-approximated old tables can produce) out of the dead set.
	members := make(map[string]*exec.Membership, len(s.IDBs))
	defer func() {
		for _, m := range members {
			m.Release()
		}
	}()

	for round := 1; ; round++ {
		if round > r.opts().MaxIterations {
			return fmt.Errorf("core: stratum %d over-delete exceeded %d rounds", s.Index, r.opts().MaxIterations)
		}
		anyNew := false
		for _, pred := range s.IDBs {
			r.db.SetStep(s.Index, round, pred)
			unit := propagate[pred]
			if round == 1 {
				unit = firstRound[pred]
			}
			newDead, err := u.roundDead(pred, unit, members, dead[pred])
			if err != nil {
				return err
			}
			n := 0
			if newDead != nil {
				n = newDead.NumTuples()
			} else {
				newDead = storage.NewRelation(querygen.OverTable(pred), storage.NumberedColumns(r.res.Preds[pred].Arity))
				newDead.SetLifecycle(r.db.Alloc(), storage.CatIntermediate)
			}
			if n > 0 {
				anyNew = true
				u.us.OverDeleted += n
				if err := r.db.AppendTo(querygen.DeadTable(pred), newDead); err != nil {
					return err
				}
			}
			// Install this round's over table (replacing last round's): the
			// next round's propagation arms read it as their ∆.
			if err := r.db.InstallReplacing(newDead); err != nil {
				return err
			}
		}
		r.db.EndIteration()
		if err := r.db.Err(); err != nil {
			return err
		}
		if !anyNew {
			break
		}
	}

	// Physical deletion. The membership indexes are stale from here on.
	for _, pred := range s.IDBs {
		if dead[pred].NumTuples() == 0 {
			continue
		}
		if _, err := r.db.DeleteFrom(pred, rowsOf(dead[pred])); err != nil {
			return err
		}
	}

	// Rescue fixpoint: re-derive dead tuples that still have a derivation
	// from the post-deletion state, append them back, shrink the dead sets.
	// A predicate's rescue arms are bound on its first rescue round.
	rescue := make(map[string]boundUnit, len(s.IDBs))
	for round := 1; ; round++ {
		if round > r.opts().MaxIterations {
			return fmt.Errorf("core: stratum %d rescue exceeded %d rounds", s.Index, r.opts().MaxIterations)
		}
		anyRescued := false
		for _, pred := range s.IDBs {
			if dead[pred].NumTuples() == 0 {
				continue
			}
			r.db.SetStep(s.Index, round, pred)
			unit, ok := rescue[pred]
			if !ok {
				text, err := r.gen.RescueQueries(s, pred)
				if err != nil {
					return err
				}
				if unit, err = r.bindUnit(text); err != nil {
					return err
				}
				rescue[pred] = unit
			}
			tmp, err := u.runUnit(pred, unit)
			if err != nil {
				return err
			}
			if tmp == nil {
				continue
			}
			resc := r.db.Dedup(tmp, tmp.NumTuples(), pred+"_uresc")
			r.dropTmp(querygen.TmpTable(pred))
			if resc.NumTuples() == 0 {
				resc.Release()
				continue
			}
			anyRescued = true
			u.us.Rescued += resc.NumTuples()
			if err := r.db.AppendTo(pred, resc); err != nil {
				resc.Release()
				return err
			}
			remaining := r.db.Diff(dead[pred], resc, exec.OPSD, querygen.DeadTable(pred))
			resc.Release()
			if err := r.db.InstallReplacing(remaining); err != nil {
				return err
			}
			dead[pred] = remaining
		}
		r.db.EndIteration()
		if err := r.db.Err(); err != nil {
			return err
		}
		if !anyRescued {
			break
		}
	}
	return nil
}

// roundDead evaluates one over-delete round for one predicate: candidates →
// dedup → ∩ R → − already-dead. Returns nil when nothing fired.
func (u *updateRun) roundDead(pred string, unit boundUnit, members map[string]*exec.Membership, deadSoFar *storage.Relation) (*storage.Relation, error) {
	r := u.r
	tmp, err := u.runUnit(pred, unit)
	if err != nil || tmp == nil {
		return nil, err
	}
	cand := r.db.Dedup(tmp, tmp.NumTuples(), pred+"_ucand")
	r.dropTmp(querygen.TmpTable(pred))
	if cand.NumTuples() == 0 {
		cand.Release()
		return nil, nil
	}
	m, ok := members[pred]
	if !ok {
		m, err = r.db.BuildMembership(pred)
		if err != nil {
			cand.Release()
			return nil, err
		}
		members[pred] = m
	}
	present := r.db.SemiProbe(cand, m, pred+"_upresent")
	cand.Release()
	newDead := r.db.Diff(present, deadSoFar, exec.OPSD, querygen.OverTable(pred))
	present.Release()
	return newDead, r.db.Err()
}

// insertPhase runs the seeded semi-naive fixpoint for one stratum: iteration
// 1 evaluates the injection arms (the plus tables substituted into each rule
// occurrence of a changed predicate), later iterations are the ordinary Rec
// arms; every installed ∆ accumulates into the predicate's add table.
func (u *updateRun) insertPhase(s analysis.Stratum, added map[string]*storage.Relation) error {
	r := u.r
	seed := make(map[string]querygen.UnitQueries, len(s.IDBs))
	for _, pred := range s.IDBs {
		pi := r.res.Preds[pred]
		add := storage.NewRelation(querygen.AddTable(pred), storage.NumberedColumns(pi.Arity))
		add.SetLifecycle(r.db.Alloc(), storage.CatIntermediate)
		u.track(add.Name())
		if err := r.db.Install(add); err != nil {
			return err
		}
		added[pred] = add
		unit, err := r.gen.InjectQueries(s, pred, u.changed)
		if err != nil {
			return err
		}
		seed[pred] = unit
	}
	return r.evalStratumWith(s, seed, func(pred string, delta *storage.Relation) error {
		return r.db.AppendTo(querygen.AddTable(pred), delta)
	})
}

// runUnit materializes the live arms of one update unit into pred's tmp
// table. Arms whose ∆ table is empty are filtered first; nil (no error)
// means nothing fired.
func (u *updateRun) runUnit(pred string, unit boundUnit) (*storage.Relation, error) {
	r := u.r
	query, _ := r.liveArms(unit)
	if query == nil {
		return nil, nil
	}
	tmp := querygen.TmpTable(pred)
	// Every caller hands the result straight to db.Dedup, so the joins may
	// treat it as a set — unless that dedup is a FAST-DEDUP baseline, which is
	// there to be measured on the full bag (the rule evalIDB follows).
	if r.opts().Dedup == exec.DedupGSCHT {
		r.db.SetOutputHint(tmp, quickstep.OutputHint{Set: true})
		defer r.db.ClearOutputHint(tmp)
	}
	return r.uieval(tmp, storage.NumberedColumns(r.res.Preds[pred].Arity), query, true)
}

// rowsOf copies a relation's tuples out — deletion sets are update-sized.
func rowsOf(rel *storage.Relation) [][]int32 {
	out := make([][]int32, 0, rel.NumTuples())
	rel.ForEach(func(tuple []int32) {
		row := make([]int32, len(tuple))
		copy(row, tuple)
		out = append(out, row)
	})
	return out
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
