package recstep

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"recstep/internal/core"
	"recstep/internal/experiments"
	"recstep/internal/graphs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// Spilling is a physical rewrite only: with an artificially tiny budget that
// forces cold-partition eviction mid-fixpoint, every program must derive
// exactly the relations an unbudgeted run derives, at every radix fan-out
// (1 keeps the delta pipeline flat until memory pressure itself raises the
// fan-out — see ChooseDeltaPartitionsBudget).
func TestSpillRoundTripAcrossPrograms(t *testing.T) {
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			prog, err := programs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			edbs := experiments.PeakMemEDBs(name, 70)

			run := func(budget int64, parts int) (map[string][]int32, core.Stats) {
				t.Helper()
				opts := core.DefaultOptions()
				opts.Workers = 4
				opts.Partitions = parts
				opts.MemBudgetBytes = budget
				res, err := core.New(opts).Run(prog, edbs)
				if err != nil {
					t.Fatal(err)
				}
				out := make(map[string][]int32, len(res.Relations))
				for rel, r := range res.Relations {
					out[rel] = r.SortedRows()
				}
				return out, res.Stats
			}

			want, _ := run(0, 1)
			for _, parts := range []int{1, 16, 64} {
				got, stats := run(1<<14, parts) // 16 KiB: far below every peak
				for rel, rows := range want {
					if !reflect.DeepEqual(got[rel], rows) {
						t.Fatalf("parts=%d budget=16KiB: %s (%d rows) diverges from unbudgeted (%d rows)",
							parts, rel, len(got[rel])/2, len(rows)/2)
					}
				}
				// The recursive graph programs accumulate enough full-relation
				// state that a 16 KiB budget must force eviction traffic.
				if (name == "tc" || name == "sg" || name == "gtc") && parts >= 16 {
					if stats.Mem.Spills == 0 || stats.Mem.Faults == 0 {
						t.Fatalf("parts=%d: tiny budget produced no spill traffic (spills=%d faults=%d)",
							parts, stats.Mem.Spills, stats.Mem.Faults)
					}
				}
			}
		})
	}
}

// cycleGraph returns a directed n-cycle — the long-diameter shape whose
// transitive closure dwarfs any single iteration's working set, so the
// budget (not the per-iteration intermediates) governs the peak.
func cycleGraph(n int) *storage.Relation {
	arc := storage.NewRelation("arc", storage.NumberedColumns(2))
	rows := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		rows = append(rows, int32(i), int32((i+1)%n))
	}
	arc.AppendRows(rows)
	return arc
}

// The memory-budget acceptance check: with -mem-budget set well below the
// unbudgeted peak, TC on the largest bundled graph completes with identical
// results, the recorded peak of live pool bytes stays within the budget, and
// the spill/fault counters are nonzero.
func TestBudgetedTCPeakWithinBudget(t *testing.T) {
	arc := cycleGraph(300)
	prog := programs.MustParse(programs.TC)
	edbs := map[string]*storage.Relation{"arc": arc}

	base := core.DefaultOptions()
	base.Workers = 4
	base.Partitions = 16
	ref, err := core.New(base).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Mem.PeakLive == 0 {
		t.Fatal("no pool accounting recorded")
	}

	// The budget is placed against what the run needs once everything
	// rebuildable is shed: on a 300-iteration fixpoint the default keeps a
	// resident set-difference index on tc, which under pressure is the first
	// thing to go and alone would absorb a budget set against its peak. The
	// forced two-phase mode never keeps one.
	lean := base
	lean.DSD = core.DSDAlwaysTPSD
	leanRef, err := core.New(lean).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Mem.IndexBytes == 0 || leanRef.Stats.Mem.PeakLive >= ref.Stats.Mem.PeakLive {
		t.Fatalf("premise: default peak %d (index %d bytes) against %d without an index",
			ref.Stats.Mem.PeakLive, ref.Stats.Mem.IndexBytes, leanRef.Stats.Mem.PeakLive)
	}

	opts := base
	opts.MemBudgetBytes = leanRef.Stats.Mem.PeakLive * 6 / 10
	res, err := core.New(opts).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Relations["tc"].SortedRows(), ref.Relations["tc"].SortedRows()) {
		t.Fatal("budgeted run derived different tuples")
	}
	m := res.Stats.Mem
	if m.Spills == 0 || m.Faults == 0 {
		t.Fatalf("budget below peak but no spill traffic: spills=%d faults=%d", m.Spills, m.Faults)
	}
	if m.PeakLive > opts.MemBudgetBytes && !raceEnabled {
		// Under -race the detector's scheduling distortion widens the
		// windows in which the reclaimer cannot evict; the strict bound is
		// asserted only on the normal build.
		t.Fatalf("peak live pool bytes %d exceed budget %d (unbudgeted peak %d); the peak was made of: %s",
			m.PeakLive, opts.MemBudgetBytes, leanRef.Stats.Mem.PeakLive, m.PeakComposition())
	}
	t.Logf("unbudgeted peak %d, budget %d, budgeted peak %d, spills %d, faults %d",
		leanRef.Stats.Mem.PeakLive, opts.MemBudgetBytes, m.PeakLive, m.Spills, m.Faults)
}

// The per-iteration memory snapshot must be visible through IterHook so
// experiments can attribute footprint to fixpoint phases, and headroom
// shrinkage must be reflected in the engine's chosen fan-outs without
// changing results (exercised above); here we pin the observability wiring.
func TestIterHookReportsMemorySnapshot(t *testing.T) {
	arc := cycleGraph(120)
	prog := programs.MustParse(programs.TC)
	opts := core.DefaultOptions()
	opts.Workers = 2
	opts.Partitions = 16
	seen := 0
	var lastLive int64
	opts.IterHook = func(ii core.IterInfo) {
		seen++
		if ii.Mem.LiveTotal > 0 {
			lastLive = ii.Mem.LiveTotal
		}
	}
	res, err := core.New(opts).Run(prog, map[string]*storage.Relation{"arc": arc})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 || lastLive == 0 {
		t.Fatalf("IterHook memory snapshots missing (hooks=%d lastLive=%d)", seen, lastLive)
	}
	if res.Stats.Mem.PeakLive < lastLive {
		t.Fatalf("final peak %d below per-iteration live %d", res.Stats.Mem.PeakLive, lastLive)
	}
	if res.Stats.Mem.PoolHits == 0 {
		t.Fatal("block recycling never hit the pool during a 120-iteration fixpoint")
	}
}

// A relation's tuples take the pool bytes of its blocks and nothing more:
// after a resident tc fixpoint the pool's live IDB bytes are exactly the
// capacity of the IDB relations' blocks, so no second copy of R (a cached
// layout, a leftover view) hides in the idb gauge.
func TestIDBPoolBytesAreTheRelationsBlocks(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Workers = 2
	opts.Partitions = 16
	arc := graphs.GnP(300, 0.02, 5)
	d, err := core.New(opts).RunIncremental(context.Background(), programs.MustParse(programs.TC), map[string]*storage.Relation{"arc": arc})
	if err != nil {
		t.Fatal(err)
	}
	var blocks int64
	for _, name := range d.IDBNames() {
		r, ok := d.Relation(name)
		if !ok {
			t.Fatalf("no relation %s", name)
		}
		for _, b := range r.Blocks() {
			blocks += b.CapBytes()
		}
	}
	live := d.MemSnapshot().LiveBytes[storage.CatIDB]
	if _, err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if blocks == 0 || live != blocks {
		t.Fatalf("pool holds %d live idb bytes, the IDB relations' blocks %d", live, blocks)
	}
}
