package recstep

import (
	"reflect"
	"strings"
	"testing"

	"recstep/internal/core"
	"recstep/internal/datalog/querygen"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/storage"
)

// recurringBuildScatters sums, per (relation, keyset) build shape, the
// scatters beyond the first — the first is the unavoidable one-time fill of
// a view cache or carried view; everything after it is a per-iteration cost
// the carried partitionings exist to eliminate. Only *carried-capable*
// relations count: the recursive predicates, their deltas and the EDBs.
// Builds over per-query join-prefix intermediates (tmp-table shapes,
// pre-filtered inputs — quickstep.FilteredSuffix names) are excluded — no
// carried partitioning could ever serve those, so they would drown the
// signal the counter exists to show: whether the carried relations stop
// paying per-iteration scatters.
func recurringBuildScatters(detail map[string]exec.BuildCount) int64 {
	var n int64
	for key, bc := range detail {
		if strings.Contains(key, querygen.TmpSuffix) || strings.Contains(key, quickstep.FilteredSuffix+"[") {
			continue
		}
		if bc.Scatters > 1 {
			n += bc.Scatters - 1
		}
	}
	return n
}

// Secondary carried views are a physical rewrite only. At one worker every
// recursive predicate is carried on its best-ranked join keyset and keeps a
// secondary view for a second one. At four workers (the rows of
// TestFusedMatchesStagedAcrossPrograms) a linear predicate is carried on its
// pass-through columns instead, and a build on its join keys falls back to a
// re-scatter. The one-worker rows, at every radix fan-out under every DSD
// mode, must derive what the staged lock-map run derives.
func TestSecondaryCarryMatchesFallbackAcrossPrograms(t *testing.T) {
	matchAcrossPrograms(t, true, dsdSweep(1))
}

// CSPA is the conflicting-keyset program: valueFlow is joined on column 0
// by some recursive rules and column 1 by others. With secondary carrying
// every carried-capable relation must reach zero per-iteration build
// scatters. Naive evaluation, which carries nothing, keeps paying them every
// iteration.
func TestSecondaryCarryZeroRecurringBuildScattersCSPA(t *testing.T) {
	prog := programs.MustParse(programs.CSPA)
	edbs := pa.CSPASized(pa.CSPAConfig{Vars: 120, AssignPer: 5, DerefRatio: 3, Seed: 13})

	run := func(naive bool) core.Stats {
		opts := core.DefaultOptions()
		opts.Workers = 4
		opts.Partitions = 16
		opts.Naive = naive
		res, err := core.New(opts).Run(prog, edbs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}

	withSec := run(false)
	if got := recurringBuildScatters(withSec.JoinBuildsByKeyset); got != 0 {
		t.Fatalf("secondary carry left %d recurring carried build scatters (detail %v)",
			got, withSec.JoinBuildsByKeyset)
	}
	if withSec.SecondaryScattered == 0 {
		t.Fatal("no tuples were routed into secondary views; the dual route is not running")
	}
	// Both conflicting keysets of valueFlow must be served in place.
	for _, key := range []string{"valueFlow[0]", "valueFlow[1]", "valueFlow" + querygen.DeltaSuffix + "[0]", "valueFlow" + querygen.DeltaSuffix + "[1]"} {
		bc, ok := withSec.JoinBuildsByKeyset[key]
		if !ok {
			continue // the optimizer may not pick this side every run
		}
		if bc.Scatters > 0 {
			t.Fatalf("%s paid %d build scatters under secondary carry", key, bc.Scatters)
		}
	}

	naive := run(true)
	if naive.SecondaryScattered != 0 {
		t.Fatal("naive run routed tuples into secondary views")
	}
	if got := recurringBuildScatters(naive.JoinBuildsByKeyset); got == 0 {
		t.Fatal("naive run reports zero recurring build scatters; the counter is not measuring")
	}
}

// Eviction order under a memory budget: secondary carried views — pure
// redundancy — must be dropped before any primary partition spills to disk,
// and the drop must leave the relation's contents intact.
func TestSecondaryViewsEvictBeforePrimarySpill(t *testing.T) {
	rows := make([]int32, 0, 2*100000)
	for i := int32(0); i < 100000; i++ {
		rows = append(rows, i, i*7)
	}
	build := func(db *quickstep.Database) *storage.Relation {
		r := storage.NewRelation("r", storage.NumberedColumns(2))
		r.SetLifecycle(db.Alloc(), storage.CatIDB)
		r.AppendRows(rows)
		if err := db.Install(r); err != nil {
			t.Fatal(err)
		}
		db.MarkSpillable("r")
		exec.PartitionRelationCarried(db.Pool(), r, []int{1}, 16)
		exec.EnsureSecondaryCarry(db.Pool(), r, []int{0}, 16)
		// Settle: the carry promotion retired the original flat blocks;
		// recycle them so the live gauge reads carried + secondary only.
		r.ReclaimRetired()
		return r
	}

	// Calibrate: measure the live footprint with and without the secondary
	// view, so the budget can be placed between them.
	// One worker keeps the scatter's block layout — and with it the byte
	// gauges — identical between the calibration and test instances; a
	// multi-worker scatter splits rows across worker-private blocks by
	// scheduling, which shifts pool-class padding run to run.
	cal, err := quickstep.Open(quickstep.Options{Workers: 1, DisableIO: true})
	if err != nil {
		t.Fatal(err)
	}
	calRel := build(cal)
	withSec := cal.MemSnapshot().LiveTotal
	calRel.DropSecondaryView()
	calRel.ReclaimRetired()
	withoutSec := cal.MemSnapshot().LiveTotal
	cal.Close()
	if withSec <= withoutSec {
		t.Fatalf("calibration: %d with secondary ≤ %d without", withSec, withoutSec)
	}

	budget := (withSec + withoutSec) / 2
	db, err := quickstep.Open(quickstep.Options{
		Workers: 1, DisableIO: true, MemBudgetBytes: budget, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := build(db)
	want := r.SortedRows()
	if !db.Mem().OverBudget() {
		t.Fatalf("setup not over budget: live %d, budget %d", db.MemSnapshot().LiveTotal, budget)
	}

	// First epoch over budget: the secondary view goes, nothing spills.
	db.EndIteration()
	snap := db.MemSnapshot()
	if snap.SecondaryDrops == 0 {
		t.Fatal("no secondary view was dropped")
	}
	if snap.Spills != 0 {
		t.Fatalf("%d partitions spilled while a secondary view was still droppable", snap.Spills)
	}
	if _, ok := r.SecondaryPartitioning(); ok {
		t.Fatal("secondary view survived the over-budget epoch")
	}
	if snap.LiveTotal > budget {
		t.Fatalf("dropping the secondary did not reach the budget: live %d > %d", snap.LiveTotal, budget)
	}

	// Push over budget again with no secondary left: now the primary's cold
	// partitions must spill.
	extra := storage.NewRelation("extra", storage.NumberedColumns(2))
	extra.SetLifecycle(db.Alloc(), storage.CatIntermediate)
	extra.AppendRows(rows)
	db.EndIteration()
	snap = db.MemSnapshot()
	if snap.Spills == 0 {
		t.Fatal("over budget with no secondary left, but nothing spilled")
	}
	if got := r.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatal("relation contents diverged across eviction")
	}
	extra.Release()
}

// A budgeted CSPA run exercises the whole pressure path — dual-route delta
// steps, secondary drops at epoch boundaries, the ensure-gate refusing
// rebuilds without headroom — and must still converge to the unbudgeted
// result.
func TestSecondaryCarryBudgetedEquivalence(t *testing.T) {
	prog := programs.MustParse(programs.CSPA)
	edbs := pa.CSPASized(pa.CSPAConfig{Vars: 300, AssignPer: 13, DerefRatio: 3, Seed: 13})

	free := core.DefaultOptions()
	free.Workers = 4
	free.Partitions = 16
	ref, err := core.New(free).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}

	tight := free
	tight.MemBudgetBytes = 1 << 20
	tight.SpillDir = t.TempDir()
	got, err := core.New(tight).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}
	for rel, want := range ref.Relations {
		if !reflect.DeepEqual(got.Relations[rel].SortedRows(), want.SortedRows()) {
			t.Fatalf("budgeted run diverges on %s", rel)
		}
	}
	if got.Stats.Mem.SecondaryDrops == 0 {
		t.Fatal("budget never forced a secondary drop; the pressure path is untested at this scale")
	}
	t.Logf("secondaryDrops=%d spills=%d faults=%d", got.Stats.Mem.SecondaryDrops, got.Stats.Mem.Spills, got.Stats.Mem.Faults)
}
