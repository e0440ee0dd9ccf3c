package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/obs"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// PeakMemEDBs builds a small input instance for every benchmark program —
// the shared fixture of the memory experiments and the spill round-trip
// tests (programs.ByName mirrors programs/*.datalog).
func PeakMemEDBs(program string, scale int) map[string]*storage.Relation {
	arc := graphs.GnP(scale, 0.05, 17)
	switch program {
	case "tc", "sg", "ntc", "gtc":
		return map[string]*storage.Relation{"arc": arc}
	case "cc":
		return map[string]*storage.Relation{"arc": graphs.Undirected(arc)}
	case "reach":
		return map[string]*storage.Relation{"arc": arc, "id": graphs.SingleSource(0)}
	case "sssp":
		return map[string]*storage.Relation{
			"arc": graphs.Weighted(arc, 100, 7),
			"id":  graphs.SingleSource(0),
		}
	case "aa", "aawide":
		return pa.AndersenSized(scale, 3)
	case "tri", "clique4":
		return map[string]*storage.Relation{"arc": graphs.Undirected(graphs.GnP(scale, 0.08, 19))}
	case "cspa":
		return pa.CSPASized(pa.CSPAConfig{Vars: scale, AssignPer: 5, DerefRatio: 3, Seed: 13})
	case "csda":
		return pa.CSDASized(4, scale, 4, 3)
	}
	panic("experiments: no EDB builder for program " + program)
}

// PeakMem reports, for every benchmark program, the memory manager's view of
// one evaluation — peak live pool bytes, final live bytes by category, pool
// recycle rate, spill/fault counts — next to the Go heap's peak over the run
// (obs.Sampler) and the bytes the run allocated.
// With cfg.ManagedBudgetBytes set, the same budget applies to every run and
// the spill columns show the eviction traffic it induced; the paper's
// observation that memory, not CPU, bounds scaling is exactly what this
// table makes visible.
func PeakMem(cfg Config) Table {
	scale := 140
	if cfg.Quick {
		scale = 70
	}
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)

	tbl := Table{
		Title:  "Peak memory — block pool accounting per program",
		Header: []string{"program", "time", "peak pool", "live end", "idb", "delta", "recycle%", "spills", "faults", "heap peak", "allocated"},
	}
	for _, name := range names {
		prog, err := programs.Get(name)
		if err != nil {
			tbl.Rows = append(tbl.Rows, []string{name, "error", "-", "-", "-", "-", "-", "-", "-", "-", "-"})
			continue
		}
		opts := core.DefaultOptions()
		opts.Workers = cfg.workers()
		opts.Partitions = cfg.Partitions
		opts.MemBudgetBytes = cfg.ManagedBudgetBytes

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var sampler obs.Sampler
		sampler.Start()
		res, err := core.New(opts).Run(prog, PeakMemEDBs(name, scale))
		peak := sampler.Stop().PeakHeap
		runtime.ReadMemStats(&after)
		if err != nil {
			tbl.Rows = append(tbl.Rows, []string{name, "error", "-", "-", "-", "-", "-", "-", "-", "-", "-"})
			continue
		}

		m := res.Stats.Mem
		recycle := 0.0
		if m.PoolHits+m.PoolMisses > 0 {
			recycle = 100 * float64(m.PoolHits) / float64(m.PoolHits+m.PoolMisses)
		}
		tbl.Rows = append(tbl.Rows, []string{
			name,
			fmtDuration(res.Stats.Duration),
			fmtBytes(m.PeakLive),
			fmtBytes(m.LiveTotal),
			fmtBytes(m.LiveBytes[storage.CatIDB]),
			fmtBytes(m.LiveBytes[storage.CatDelta]),
			fmt.Sprintf("%.0f%%", recycle),
			fmt.Sprintf("%d", m.Spills),
			fmt.Sprintf("%d", m.Faults),
			fmtBytes(int64(max(peak, after.HeapAlloc) - before.HeapAlloc)),
			fmtBytes(int64(after.TotalAlloc - before.TotalAlloc)),
		})
	}
	if cfg.ManagedBudgetBytes > 0 {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("mem budget: %s (cold partitions of full relations spill under pressure)", fmtBytes(cfg.ManagedBudgetBytes)))
	} else {
		tbl.Notes = append(tbl.Notes, "no mem budget: recycling and accounting only (pass -mem-budget to force spilling)")
	}
	tbl.Notes = append(tbl.Notes, "heap peak = the most the Go heap grew over its size at the run's start (obs.Sampler every 2 ms, and MemStats at the end); allocated = the bytes the run allocated (MemStats.TotalAlloc: Go heap churn the block pool avoids)")
	return tbl
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
