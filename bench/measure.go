package main

import (
	"runtime"
	"sort"
	"time"

	"recstep/internal/core"
	"recstep/internal/quickstep/storage"
)

// minReps is the least number of timed repetitions of every measurement,
// however short the run.
const minReps = 3

// stat is one reported number: for a timing the median of n samples with
// its quartiles, for a count or a ratio just the value.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// quantile reads the q-quantile of an ascending sample by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantileStat summarises samples as their q-quantile, with the quartiles
// and the sample count beside it.
func quantileStat(samples []float64, q float64, unit string) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stat{Value: quantile(s, q), Unit: unit, N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func medianStat(samples []float64, unit string) stat { return quantileStat(samples, 0.5, unit) }

// medianOf summarises one field of every run.
func medianOf(runs []runSample, field func(runSample) float64, unit string) stat {
	samples := make([]float64, len(runs))
	for i, s := range runs {
		samples[i] = field(s)
	}
	return medianStat(samples, unit)
}

// The fields of a run that are summarised.
func wallS(s runSample) float64     { return s.wallS }
func peakMB(s runSample) float64    { return s.peakMB }
func allocMB(s runSample) float64   { return s.allocMB }
func gcCycles(s runSample) float64  { return s.gcCycles }
func gcPauseMS(s runSample) float64 { return s.gcPauseMS }

// runSample is what one Engine.Run shows from outside, plus the counters the
// engine returns.
type runSample struct {
	wallS     float64
	peakMB    float64
	allocMB   float64
	gcCycles  float64
	gcPauseMS float64
	stats     core.Stats
}

const mb = 1 << 20

// run executes one full Engine.Run (analysis, EDB load, fixpoint, result
// restore) with the given worker count after a forced collection, times it
// from outside, and checks its output against the reference.
func (p *prepared) run(workers int, o *ops) runSample {
	s, _ := p.runWith(p.options(workers), o)
	return s
}

// runWith is run under explicit options; it also hands back the derived
// relations, which the layer probes of the traced run read.
func (p *prepared) runWith(opts core.Options, o *ops) (runSample, map[string]*storage.Relation) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.New(opts).Run(p.prog, p.edbs)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	s := runSample{
		wallS:     wall.Seconds(),
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / mb,
		gcCycles:  float64(after.NumGC - before.NumGC),
		gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	var rels map[string]*storage.Relation
	if err == nil {
		s.stats = res.Stats
		s.peakMB = float64(res.Stats.Mem.PeakLive) / mb
		rels = res.Relations
		err = p.ref.verify(rels)
	}
	o.record(err)
	return s, rels
}

// timeRuns is the closed measuring loop of a batch workload: one driver
// goroutine alternates a run at W workers and a run at one worker, each
// starting when the previous has returned, until seconds have passed.
func (p *prepared) timeRuns(seconds float64, o *ops) (atW, at1 []runSample) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(atW) < minReps || time.Now().Before(deadline) {
		atW = append(atW, p.run(p.workers, o))
		at1 = append(at1, p.run(1, o))
	}
	return atW, at1
}

// stream is the outcome of the resident workload's update stream.
type stream struct {
	insertMS, deleteMS []float64
	overDeleted        int
	rescued            int
	peakMB             float64
}

// applyStream feeds the resident database its single-arc inserts and then
// its single-arc deletes, timing each ApplyDelta from outside, and compares
// the resident closure with a reference computed over the updated arcs after
// each phase.
func (p *prepared) applyStream(o *ops) stream {
	var st stream
	arcs := p.in.tables[0]
	arcs.rows = append([]int32(nil), arcs.rows...)
	phase := func(rows [][]int32, del bool, out *[]float64) {
		for _, row := range rows {
			ins, dels := [][]int32{row}, [][]int32(nil)
			if del {
				ins, dels = dels, ins
			}
			start := time.Now()
			us, err := p.db.ApplyDelta(arcs.name, ins, dels)
			*out = append(*out, float64(time.Since(start).Nanoseconds())/1e6)
			o.record(err)
			st.overDeleted += us.OverDeleted
			st.rescued += us.Rescued
			if del {
				arcs.rows = removeArc(arcs.rows, row)
			} else {
				arcs.rows = append(arcs.rows, row...)
			}
		}
		ref := p.w.ref(relations([]table{arcs}), p.workers)
		got := make(map[string]*storage.Relation, len(ref))
		for name := range ref {
			if rel, ok := p.db.Relation(name); ok {
				got[name] = rel
			}
		}
		o.fail(ref.verify(got))
	}
	phase(p.in.ins, false, &st.insertMS)
	phase(p.in.del, true, &st.deleteMS)
	st.peakMB = float64(p.db.MemSnapshot().PeakLive) / mb
	return st
}

// removeArc drops the first occurrence of arc from flat binary rows.
func removeArc(rows []int32, arc []int32) []int32 {
	for i := 0; i < len(rows); i += 2 {
		if rows[i] == arc[0] && rows[i+1] == arc[1] {
			return append(rows[:i], rows[i+2:]...)
		}
	}
	return rows
}
