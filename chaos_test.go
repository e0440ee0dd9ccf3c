package recstep

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"recstep/internal/core"
	"recstep/internal/experiments"
	"recstep/internal/faultinject"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// chaosOpts is the shared configuration of the chaos suite: a real worker
// pool, radix partitioning, and a budget tiny enough that every program
// generates spill and fault traffic for the injector to bite on.
func chaosOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Workers = 4
	opts.Partitions = 16
	opts.MemBudgetBytes = 1 << 14
	return opts
}

// chaosRun evaluates prog under opts and enforces the suite's global
// invariants: the process never crashes (a panic escaping RunContext fails
// the test), an aborted run still returns partial Stats, and teardown always
// ends with zero live pooled bytes — no leaked blocks under any fault.
func chaosRun(t *testing.T, opts core.Options, name string, edbs map[string]*storage.Relation) (*core.Result, error) {
	t.Helper()
	prog, err := programs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := core.New(opts).RunContext(context.Background(), prog, edbs)
	if rerr != nil {
		if res == nil {
			t.Fatalf("aborted run returned a nil Result alongside %v", rerr)
		}
		if res.Stats.Mem.LiveTotal != 0 {
			t.Fatalf("aborted run leaked %d live pooled bytes (err: %v)", res.Stats.Mem.LiveTotal, rerr)
		}
	}
	return res, rerr
}

// sortedOutputs flattens a result into comparable per-relation sorted rows.
func sortedOutputs(res *core.Result) map[string][]int32 {
	out := make(map[string][]int32, len(res.Relations))
	for rel, r := range res.Relations {
		out[rel] = r.SortedRows()
	}
	return out
}

// The chaos suite: every benchmark program is run under each fault scenario
// with a spill-forcing budget. A scenario either completes with exactly the
// clean run's tuples or returns an error — never a crash, never silent
// corruption, never a leaked block.
func TestChaosAcrossPrograms(t *testing.T) {
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)

	type scenario struct {
		name string
		inj  func() *faultinject.Injector
		// mustFail marks scenarios whose fault, once fired, is fatal by
		// design; they may still complete cleanly when the trigger is
		// never reached (no spill traffic, short runs).
		fatalSite faultinject.Site
		// workers, when set, overrides chaosOpts' worker count.
		workers int
	}
	scenarios := []scenario{
		{
			// Two transient write failures: absorbed by the retry loop, so
			// the run MUST complete with correct results.
			name: "spill-write-transient",
			inj: func() *faultinject.Injector {
				return faultinject.New(7).FailEvery(faultinject.SpillWrite, 2).Limit(faultinject.SpillWrite, 2)
			},
		},
		{
			// Every spill write fails: spilling parks and the engine
			// degrades to in-memory operation — still correct results.
			name: "spill-write-persistent",
			inj: func() *faultinject.Injector {
				return faultinject.New(7).FailEvery(faultinject.SpillWrite, 1)
			},
		},
		{
			name: "fault-read",
			inj: func() *faultinject.Injector {
				return faultinject.New(7).FailEvery(faultinject.FaultRead, 1)
			},
			fatalSite: faultinject.FaultRead,
		},
		{
			name: "alloc",
			inj: func() *faultinject.Injector {
				return faultinject.New(7).FailNth(faultinject.Alloc, 100)
			},
			fatalSite: faultinject.Alloc,
		},
		{
			name: "worker-panic",
			inj: func() *faultinject.Injector {
				return faultinject.New(7).FailNth(faultinject.WorkerPanic, 20)
			},
			fatalSite: faultinject.WorkerPanic,
		},
		{
			// The same panic at one worker: pool tasks then run on the
			// goroutine that submits them, so in a one-arm query it is raised
			// on the engine's own goroutine, inside the query's arm 0.
			name: "worker-panic-w1",
			inj: func() *faultinject.Injector {
				return faultinject.New(7).FailNth(faultinject.WorkerPanic, 20)
			},
			fatalSite: faultinject.WorkerPanic,
			workers:   1,
		},
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			edbs := experiments.PeakMemEDBs(name, 40)

			clean := chaosOpts()
			ref, err := chaosRun(t, clean, name, edbs)
			if err != nil {
				t.Fatalf("clean budgeted run failed: %v", err)
			}
			want := sortedOutputs(ref)

			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) {
					inj := sc.inj()
					opts := chaosOpts()
					opts.FaultInject = inj
					if sc.workers > 0 {
						opts.Workers = sc.workers
					}
					res, rerr := chaosRun(t, opts, name, edbs)
					if sc.fatalSite == faultinject.WorkerPanic && (name == "csda" || name == "tc") {
						// Every recursive iteration of these runs one-arm
						// queries, whose arm runs on the engine's goroutine: the
						// panic must abort the run, and at one worker it is
						// raised inside that arm.
						if rerr == nil {
							t.Fatalf("the injected worker panic never aborted the run (%d fires)", inj.Fires(sc.fatalSite))
						}
						// The stack the pool's guard captured shows where: in
						// a query arm, on the goroutine evaluating the IDB.
						onEngine := strings.Contains(rerr.Error(), "quickstep.(*Database).runArm(") &&
							strings.Contains(rerr.Error(), "core.(*runState).evalIDB(")
						if sc.workers == 1 && !onEngine {
							t.Fatalf("the injected worker panic was not raised inside a query arm on the engine's goroutine: %v", rerr)
						}
					}
					if rerr == nil {
						// Completed: results must be exactly the clean run's.
						got := sortedOutputs(res)
						for rel, rows := range want {
							if !reflect.DeepEqual(got[rel], rows) {
								t.Fatalf("%s completed under faults with wrong tuples in %s (%d vs %d rows)",
									sc.name, rel, len(got[rel])/2, len(rows)/2)
							}
						}
						// A fatal-site scenario may only complete cleanly if
						// its trigger never fired.
						if sc.fatalSite != "" && inj.Fires(sc.fatalSite) > 0 {
							t.Fatalf("%s fired %d times yet the run reported success",
								sc.fatalSite, inj.Fires(sc.fatalSite))
						}
						return
					}
					// Aborted: the error must carry the injected cause.
					if sc.fatalSite == "" {
						t.Fatalf("recoverable scenario aborted the run: %v", rerr)
					}
					if !errors.Is(rerr, faultinject.ErrInjected) {
						t.Fatalf("abort error %v does not wrap the injected fault", rerr)
					}
					if sc.fatalSite == faultinject.WorkerPanic && !strings.Contains(rerr.Error(), "panic") {
						t.Fatalf("worker-panic abort error does not mention the panic: %v", rerr)
					}
				})
			}
		})
	}
}

// Cancelling a running TC fixpoint from an iteration hook must abort within
// one iteration boundary, return the context error plus partial Stats, and
// tear down to zero live pooled bytes.
func TestCancelMidFixpointReleasesEverything(t *testing.T) {
	arc := cycleGraph(300)
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": arc}

	const cancelAt = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := chaosOpts()
	opts.IterHook = func(ii core.IterInfo) {
		if ii.Iteration == cancelAt {
			cancel()
		}
	}
	res, err := core.New(opts).RunContext(ctx, prog, edbs)
	if err == nil {
		t.Fatal("cancelled fixpoint completed without error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v is not context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial Result")
	}
	// A 300-node cycle needs ~300 TC iterations; cancellation at iteration
	// 5 must stop the fixpoint at the next iteration boundary.
	if res.Stats.Iterations < cancelAt || res.Stats.Iterations > cancelAt+1 {
		t.Fatalf("cancelled at iteration %d but run recorded %d iterations", cancelAt, res.Stats.Iterations)
	}
	if res.Stats.Mem.LiveTotal != 0 {
		t.Fatalf("cancelled run left %d live pooled bytes", res.Stats.Mem.LiveTotal)
	}
	if res.Stats.Queries == 0 {
		t.Fatal("partial Stats lost the pre-cancellation query count")
	}
}

// disarmInjector neutralizes every armed site without removing the rules
// (removing them would reset call accounting): the trigger thresholds are
// pushed beyond any reachable call count.
func disarmInjector(in *faultinject.Injector, sites ...faultinject.Site) {
	for _, s := range sites {
		in.FailNth(s, 1<<40)
		in.FailEvery(s, 1<<40)
	}
}

// unpackRows splits a flat sorted-rows slice back into tuples.
func unpackRows(flat []int32, arity int) [][]int32 {
	rows := make([][]int32, 0, len(flat)/arity)
	for i := 0; i+arity <= len(flat); i += arity {
		rows = append(rows, flat[i:i+arity])
	}
	return rows
}

// Fault scenarios during incremental updates: a resident database is built
// cleanly, the injector is armed, and one mixed insert+delete ApplyDelta runs
// under the fault. The update either completes with exactly the from-scratch
// tuples or fails carrying the injected cause — and a failed update must
// leave the database dirty but readable, and fully recoverable via Rederive.
// Teardown always ends with zero live pooled bytes.
func TestChaosApplyDelta(t *testing.T) {
	prog := programs.MustParse(programs.TC)
	baseRel := experiments.PeakMemEDBs("tc", 40)["arc"]
	arity := map[string]int{"arc": 2}
	base := map[string][][]int32{}
	baseRel.ForEach(func(tuple []int32) {
		base["arc"] = append(base["arc"], append([]int32(nil), tuple...))
	})

	// One mixed update: drop three existing edges, add four new ones.
	step := deltaStep{
		rel: "arc",
		ins: [][]int32{{41, 0}, {17, 41}, {41, 41}, {3, 17}},
		del: [][]int32{base["arc"][0], base["arc"][3], base["arc"][7]},
	}

	type scenario struct {
		name      string
		arm       func(in *faultinject.Injector)
		sites     []faultinject.Site
		fatalSite faultinject.Site
	}
	scenarios := []scenario{
		{
			// Every spill write fails: spilling parks, the update degrades
			// to in-memory operation and MUST still complete correctly.
			name:  "spill-write-persistent",
			arm:   func(in *faultinject.Injector) { in.FailEvery(faultinject.SpillWrite, 1) },
			sites: []faultinject.Site{faultinject.SpillWrite},
		},
		{
			name:      "fault-read",
			arm:       func(in *faultinject.Injector) { in.FailEvery(faultinject.FaultRead, 1) },
			sites:     []faultinject.Site{faultinject.FaultRead},
			fatalSite: faultinject.FaultRead,
		},
		{
			name:      "alloc",
			arm:       func(in *faultinject.Injector) { in.FailNth(faultinject.Alloc, 10) },
			sites:     []faultinject.Site{faultinject.Alloc},
			fatalSite: faultinject.Alloc,
		},
		{
			name:      "worker-panic",
			arm:       func(in *faultinject.Injector) { in.FailNth(faultinject.WorkerPanic, 3) },
			sites:     []faultinject.Site{faultinject.WorkerPanic},
			fatalSite: faultinject.WorkerPanic,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			inj := faultinject.New(11)
			opts := chaosOpts()
			opts.FaultInject = inj
			d, err := core.New(opts).RunIncremental(context.Background(), prog, relsFrom(base, arity))
			if err != nil {
				t.Fatalf("clean resident build failed: %v", err)
			}
			sc.arm(inj)
			_, uerr := d.ApplyDelta(step.rel, step.ins, step.del)
			disarmInjector(inj, sc.sites...)

			if uerr != nil {
				if !errors.Is(uerr, faultinject.ErrInjected) {
					t.Fatalf("update error %v does not wrap the injected fault", uerr)
				}
				if sc.fatalSite == "" {
					t.Fatalf("recoverable scenario aborted the update: %v", uerr)
				}
				if !d.Dirty() {
					t.Fatal("failed update did not mark the database dirty")
				}
				// Still readable: every IDB must be reachable and scannable.
				for _, idb := range d.IDBNames() {
					rel, ok := d.Relation(idb)
					if !ok {
						t.Fatalf("relation %s unreachable after failed update", idb)
					}
					_ = rel.SortedRows()
				}
				if err := d.Rederive(); err != nil {
					t.Fatalf("rederive after failed update: %v", err)
				}
				if d.Dirty() {
					t.Fatal("database still dirty after successful rederive")
				}
			} else if sc.fatalSite != "" && inj.Fires(sc.fatalSite) > 0 {
				t.Fatalf("%s fired %d times yet the update reported success",
					sc.fatalSite, inj.Fires(sc.fatalSite))
			}

			// Whether the update completed or was re-derived after a partial
			// failure, every IDB must bit-match a from-scratch fixpoint over
			// the EDB state that actually survived.
			arc, ok := d.Relation("arc")
			if !ok {
				t.Fatal("arc unreachable")
			}
			survived := map[string][][]int32{"arc": unpackRows(arc.SortedRows(), 2)}
			ref, err := core.New(chaosOpts()).Run(prog, relsFrom(survived, arity))
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			want := sortedOutputs(ref)
			for _, idb := range d.IDBNames() {
				rel, _ := d.Relation(idb)
				if got := rel.SortedRows(); !reflect.DeepEqual(got, want[idb]) {
					t.Fatalf("%s: %s diverged from scratch after recovery (%d vs %d values)",
						sc.name, idb, len(got), len(want[idb]))
				}
			}
			if uerr == nil {
				// A completed update must also reflect the full requested
				// delta, not some partially-applied EDB state.
				wantState := cloneRows(base)
				applyToMirror(wantState, step)
				wantArc := relsFrom(wantState, arity)["arc"].SortedRows()
				if !reflect.DeepEqual(arc.SortedRows(), wantArc) {
					t.Fatalf("%s: completed update left %d arc rows, want %d",
						sc.name, len(survived["arc"]), len(wantArc)/2)
				}
			}

			snap, err := d.Close()
			if err != nil {
				t.Fatalf("close: %v", err)
			}
			if snap.LiveTotal != 0 {
				t.Fatalf("%s leaked %d live pooled bytes at close", sc.name, snap.LiveTotal)
			}
		})
	}
}

// A worker panic inside an insert-only update's INSERT … SELECT aborts the
// update with the tmp table (and, under individual evaluation, the part
// tables) already created. The failed update must leave none of them in the
// catalog: Rederive re-runs every stratum, which creates them afresh, and
// must then derive exactly what a from-scratch run over the surviving base
// rows derives. The panic is injected at every worker task from the 2nd to
// the 12th, so it lands in each phase of the update in turn. On tc, and on
// sg, whose recursive rule is split through an auxiliary IDB.
func TestRederiveAfterAbortedInsertPhase(t *testing.T) {
	arity := map[string]int{"arc": 2}
	base := map[string][][]int32{}
	experiments.PeakMemEDBs("tc", 40)["arc"].ForEach(func(tuple []int32) {
		base["arc"] = append(base["arc"], append([]int32(nil), tuple...))
	})
	ins := [][]int32{{41, 0}, {17, 41}, {41, 41}, {3, 17}}

	for _, name := range []string{"tc", "sg"} {
		prog := programs.MustParse(programs.ByName[name])
		for _, uie := range []bool{true, false} {
			failed := 0
			for n := 2; n <= 12; n++ {
				inj := faultinject.New(int64(n))
				opts := core.DefaultOptions()
				opts.Workers = 4
				opts.UIE = uie
				opts.FaultInject = inj
				d, err := core.New(opts).RunIncremental(context.Background(), prog, relsFrom(base, arity))
				if err != nil {
					t.Fatalf("%s uie=%v n=%d: clean resident build failed: %v", name, uie, n, err)
				}
				inj.FailNth(faultinject.WorkerPanic, n)
				_, uerr := d.ApplyDelta("arc", ins, nil)
				disarmInjector(inj, faultinject.WorkerPanic)
				if uerr != nil {
					failed++
					if !errors.Is(uerr, faultinject.ErrInjected) {
						t.Fatalf("%s uie=%v n=%d: update error %v does not wrap the injected fault", name, uie, n, uerr)
					}
					if err := d.Rederive(); err != nil {
						t.Fatalf("%s uie=%v n=%d: rederive after the aborted update: %v", name, uie, n, err)
					}
					if d.Dirty() {
						t.Fatalf("%s uie=%v n=%d: database still dirty after rederive", name, uie, n)
					}
				}
				arc, _ := d.Relation("arc")
				survived := map[string][][]int32{"arc": unpackRows(arc.SortedRows(), 2)}
				ref, err := core.New(core.DefaultOptions()).Run(prog, relsFrom(survived, arity))
				if err != nil {
					t.Fatalf("%s uie=%v n=%d: reference run: %v", name, uie, n, err)
				}
				want := sortedOutputs(ref)
				for _, idb := range d.IDBNames() {
					rel, _ := d.Relation(idb)
					if got := rel.SortedRows(); !reflect.DeepEqual(got, want[idb]) {
						t.Fatalf("%s uie=%v n=%d: %s diverges from a from-scratch run (%d vs %d values)",
							name, uie, n, idb, len(got), len(want[idb]))
					}
				}
				if snap, err := d.Close(); err != nil || snap.LiveTotal != 0 {
					t.Fatalf("%s uie=%v n=%d: close: %v, %d live pooled bytes", name, uie, n, err, snap.LiveTotal)
				}
			}
			if failed == 0 {
				t.Fatalf("%s uie=%v: no injected panic aborted an update; the test lost its point", name, uie)
			}
		}
	}
}

// Cancelling mid-update: a resident TC database over a long path graph gets
// the cycle-closing edge inserted, and the update's propagation fixpoint is
// cancelled from the iteration hook. The update must fail with the context
// error, leave the database dirty but intact, and Rederive (which runs on the
// database's base context, not the cancelled one) must restore a consistent
// state.
func TestCancelMidApplyDelta(t *testing.T) {
	const n = 120
	arc := storage.NewRelation("arc", []string{"x", "y"})
	rows := make([][]int32, 0, n-1)
	for i := 0; i < n-1; i++ {
		arc.Append([]int32{int32(i), int32(i + 1)})
		rows = append(rows, []int32{int32(i), int32(i + 1)})
	}
	base := map[string][][]int32{"arc": rows}
	arity := map[string]int{"arc": 2}

	const cancelAt = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed := false
	opts := core.DefaultOptions()
	opts.Workers = 4
	opts.IterHook = func(ii core.IterInfo) {
		if armed && ii.Iteration == cancelAt {
			cancel()
		}
	}
	prog := programs.MustParse(programs.TC)
	d, err := core.New(opts).RunIncremental(context.Background(), prog, map[string]*storage.Relation{"arc": arc})
	if err != nil {
		t.Fatal(err)
	}

	// Closing the cycle makes the seeded propagation run ~n iterations; the
	// hook cancels it at iteration 5.
	armed = true
	_, uerr := d.ApplyDeltaContext(ctx, "arc", [][]int32{{n - 1, 0}}, nil)
	armed = false
	if uerr == nil {
		t.Fatal("cancelled update completed without error")
	}
	if !errors.Is(uerr, context.Canceled) {
		t.Fatalf("update error %v is not context.Canceled", uerr)
	}
	if !d.Dirty() {
		t.Fatal("cancelled update did not mark the database dirty")
	}
	if err := d.Rederive(); err != nil {
		t.Fatalf("rederive after cancelled update: %v", err)
	}

	// The re-derived state must match a from-scratch run over the surviving
	// EDB rows (the new edge was already physically applied when the
	// propagation was cancelled, and rederivation keeps it).
	rel, ok := d.Relation("arc")
	if !ok {
		t.Fatal("arc unreachable after rederive")
	}
	survived := map[string][][]int32{"arc": unpackRows(rel.SortedRows(), 2)}
	ref, err := core.New(core.DefaultOptions()).Run(prog, relsFrom(survived, arity))
	if err != nil {
		t.Fatal(err)
	}
	want := sortedOutputs(ref)
	for _, idb := range d.IDBNames() {
		r, _ := d.Relation(idb)
		if got := r.SortedRows(); !reflect.DeepEqual(got, want[idb]) {
			t.Fatalf("%s diverged after cancel+rederive (%d vs %d values)", idb, len(got), len(want[idb]))
		}
	}
	_ = base

	snap, err := d.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if snap.LiveTotal != 0 {
		t.Fatalf("leaked %d live pooled bytes at close", snap.LiveTotal)
	}
}

// An already-expired deadline aborts before any iteration completes, with
// the same clean-teardown guarantees.
func TestDeadlineExceededAbortsRun(t *testing.T) {
	arc := cycleGraph(300)
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": arc}

	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	res, err := core.New(chaosOpts()).RunContext(ctx, prog, edbs)
	if err == nil {
		t.Fatal("run with an expired deadline completed without error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v is not context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("timed-out run returned no partial Result")
	}
	if res.Stats.Mem.LiveTotal != 0 {
		t.Fatalf("timed-out run left %d live pooled bytes", res.Stats.Mem.LiveTotal)
	}
}
