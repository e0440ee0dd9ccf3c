package main

import (
	"fmt"
	"strings"
	"time"

	"recstep/internal/core"
	"recstep/internal/datalog/analysis"
	"recstep/internal/datalog/parser"
	"recstep/internal/datalog/querygen"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/gscht"
	"recstep/internal/quickstep/memory"
	"recstep/internal/quickstep/sql"
	"recstep/internal/quickstep/stats"
	"recstep/internal/quickstep/storage"
)

// frontEndCalls is how many times each front-end layer is called inside its
// span: one parse or analysis takes tens of microseconds.
const frontEndCalls = 50

// traceLayers is the traced run of a workload. It records spans around the
// front-end layers (parser, analysis, query generator, SQL parser), then one
// Engine.Run at a single worker, so that busy time is a share of wall time
// and not a sum over workers, cut by Options.IterHook into one core.step span
// per (stratum, iteration, predicate), and finally probes the execution and
// storage layers through their public functions on the workload's own
// relations. It returns per-layer metrics by name and the traced run's wall
// time in seconds.
func (p *prepared) traceLayers(tr *tracer, o *ops) (map[string]float64, float64, error) {
	m := make(map[string]float64)
	now := time.Now()
	root := tr.add("workload", 0, now, now, map[string]any{"workload": p.w.name})

	// Front end: what the engine does with the program text before and
	// during every iteration, called directly.
	m["parser.parse_us"] = tr.timed("parser.Parse", root, frontEndCalls, func() {
		_, _ = parser.Parse(p.w.program)
	})
	var res *analysis.Result
	var err error
	m["analysis.analyze_us"] = tr.timed("analysis.Analyze", root, frontEndCalls, func() {
		res, err = analysis.Analyze(p.prog)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: analysis: %w", p.w.name, err)
	}
	var stmts []string
	genUS := tr.timed("querygen.StratumQueries", root, frontEndCalls, func() {
		stmts = stmts[:0]
		gen := querygen.New(res)
		for _, s := range res.Strata {
			qs, gerr := gen.StratumQueries(s)
			if gerr != nil {
				err = gerr
				return
			}
			stmts = appendStatements(stmts, qs)
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: querygen: %w", p.w.name, err)
	}
	schema := schemaOf(res)
	parseUS := tr.timed("sql.Parse", root, frontEndCalls, func() {
		for _, q := range stmts {
			if _, perr := sql.Parse(q, schema); perr != nil {
				err = fmt.Errorf("%q: %w", q, perr)
			}
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: sql: %w", p.w.name, err)
	}
	n := float64(len(stmts))
	m["querygen.gen_us_per_query"] = genUS / n
	m["sql.parse_us_per_query"] = parseUS / n
	for _, q := range stmts {
		m["querygen.sql_bytes"] += float64(len(q))
	}

	// The engine, as one span cut into steps by the iteration hook.
	type step struct {
		at   time.Time
		info core.IterInfo
	}
	var steps []step
	opts := p.options(1)
	opts.IterHook = func(info core.IterInfo) { steps = append(steps, step{time.Now(), info}) }
	runStart := time.Now()
	sample, rels := p.runWith(opts, o)
	runEnd := time.Now()
	if rels == nil {
		return nil, 0, fmt.Errorf("%s: traced run failed: %w", p.w.name, o.firstErr)
	}
	runSpan := tr.add("core.Engine.Run", root, runStart, runEnd, map[string]any{"workers": 1})
	prev := runStart
	stepUS := make([]float64, 0, len(steps))
	for _, s := range steps {
		tr.add("core.step", runSpan, prev, s.at, map[string]any{
			"stratum": s.info.Stratum, "iteration": s.info.Iteration, "pred": s.info.Pred,
			"tmp_tuples": s.info.TmpTuples, "delta_tuples": s.info.Delta, "algo": s.info.Algo.String(),
			"scattered": s.info.Copy.Scattered, "arms_skipped": s.info.ArmsSkipped,
			"live_bytes": s.info.Mem.LiveTotal, "busy_ns": s.info.Phase.Total().Nanoseconds(),
		})
		stepUS = append(stepUS, float64(s.at.Sub(prev).Nanoseconds())/1e3)
		prev = s.at
	}
	tr.add("core.finish", runSpan, prev, runEnd, nil)

	st := sample.stats
	wall := sample.wallS
	m["core.iterations"] = float64(st.Iterations)
	m["core.queries"] = float64(st.Queries)
	m["core.step_us_p50"] = medianStat(stepUS, "us").Value
	m["core.finish_ms"] = float64(runEnd.Sub(prev).Nanoseconds()) / 1e6
	var busy float64
	for _, d := range st.PhaseDurations {
		busy += d.Seconds()
	}
	for _, phase := range []string{"scatter", "build", "probe", "delta", "aggregate"} {
		m["exec."+phase+"_s"] = st.PhaseDurations[phase].Seconds()
	}
	m["memory.spill_s"] = st.PhaseDurations["spill"].Seconds()
	m["memory.fault_s"] = st.PhaseDurations["fault"].Seconds()
	frontEnd := float64(st.Queries) * (m["querygen.gen_us_per_query"] + m["sql.parse_us_per_query"]) / 1e6
	m["frontend.est_share"] = frontEnd / wall
	m["core.unattributed_share"] = (wall - busy - frontEnd) / wall
	m["exec.tmp_tuples"] = float64(st.TmpTuples)
	m["exec.delta_tuples"] = float64(st.DeltaTuples)
	if st.TmpTuples > 0 {
		m["exec.dedup_yield"] = float64(st.DeltaTuples) / float64(st.TmpTuples)
	}
	m["exec.peak_join_intermediate_rows"] = float64(st.PeakJoinIntermediate)
	m["exec.tuples_scattered"] = float64(st.TuplesScattered)
	m["exec.build_scatters"] = float64(st.JoinBuildScatters)
	m["exec.arms_skipped"] = float64(st.ArmsSkipped)
	m["exec.diff_opsd"] = float64(st.DiffOPSD)
	m["exec.diff_tpsd"] = float64(st.DiffTPSD)
	if allocs := st.Mem.PoolHits + st.Mem.PoolMisses; allocs > 0 {
		m["memory.pool_hit_ratio"] = float64(st.Mem.PoolHits) / float64(allocs)
	}
	m["memory.spills"] = float64(st.Mem.Spills)
	m["memory.faults"] = float64(st.Mem.Faults)

	p.probeLayers(tr, root, p.edbs[p.w.edb], rels[p.w.idb], m)
	tr.spans[root-1].end = time.Now()
	return m, wall, nil
}

// appendStatements lists the SQL the engine issues for one stratum's
// queries: for each evaluation of an IDB, the temporary table's DDL around
// the unified INSERT … SELECT (the DDL text is core's, repeated here).
func appendStatements(stmts []string, qs []querygen.IDBQueries) []string {
	for _, q := range qs {
		cols := strings.Join(storage.NumberedColumns(q.Arity), " INT, ") + " INT"
		for _, unit := range []querygen.UnitQueries{q.Init, q.Rec} {
			if unit.Unified == "" {
				continue
			}
			stmts = append(stmts,
				fmt.Sprintf("CREATE TABLE %s (%s)", q.Tmp, cols),
				unit.Unified,
				"DROP TABLE IF EXISTS "+q.Tmp)
		}
	}
	return stmts
}

// schemaOf resolves every table a generated statement can name: each
// predicate and its delta and temporary tables.
func schemaOf(res *analysis.Result) sql.SchemaFn {
	tables := make(map[string][]string)
	for name, pi := range res.Preds {
		cols := storage.NumberedColumns(pi.Arity)
		tables[name] = cols
		tables[querygen.DeltaTable(name)] = cols
		tables[querygen.TmpTable(name)] = cols
	}
	return func(table string) ([]string, bool) {
		cols, ok := tables[table]
		return cols, ok
	}
}

// probeLayers calls the execution and storage layers' public functions on
// the workload's base relation and final derived relation, one worker, each
// in its own span.
func (p *prepared) probeLayers(tr *tracer, parent int, edb, idb *storage.Relation, m map[string]float64) {
	pool := exec.NewPool(1)
	mem := memory.NewManager(memory.Config{})
	defer mem.Close()
	pool.SetAlloc(mem)
	big := idb
	if edb.NumTuples() > idb.NumTuples() {
		big = edb
	}
	// share wraps a relation's blocks in a fresh relation: operators cache
	// partitioned views on the relation they are given.
	share := func(name string, rels ...*storage.Relation) *storage.Relation {
		out := storage.NewRelation(name, storage.NumberedColumns(rels[0].Arity()))
		for _, r := range rels {
			out.AppendRelation(r)
		}
		return out
	}
	// probe times one call in its own span and returns microseconds; tuples
	// per microsecond are Mtuples/s.
	probe := func(name string, fn func()) float64 { return tr.timed(name, parent, 1, fn) }

	probe("exec.MeasureBuildProbe", func() {
		m["exec.join_build_ns_per_tuple"], m["exec.join_probe_ns_per_tuple"] = exec.MeasureBuildProbe(pool, idb, edb)
	})

	// The delta step mid-fixpoint: the join output holds every tuple twice
	// and R already holds every other one.
	tmp := share("tmp", idb, idb)
	full := storage.NewRelation("r", storage.NumberedColumns(idb.Arity()))
	i := 0
	idb.ForEach(func(t []int32) {
		if i%2 == 0 {
			full.Append(t)
		}
		i++
	})
	us := probe("exec.DeltaStep", func() {
		exec.DeltaStep(pool, tmp, full, exec.OPSD, storage.Partitioning{Parts: 16}, idb.NumTuples(), "delta").Release()
	})
	m["exec.deltastep_mtuples_per_s"] = float64(tmp.NumTuples()) / us
	tmp.Release()
	full.Release()

	us = probe("exec.HashAggregate", func() {
		exec.HashAggregate(pool, big, []int{0}, []exec.AggSpec{{Func: exec.AggMin, Arg: expr.Col{Index: 1}}},
			"agg", storage.NumberedColumns(2)).Release()
	})
	m["exec.aggregate_mtuples_per_s"] = float64(big.NumTuples()) / us

	scatter := share("scatter", big)
	us = probe("exec.PartitionRelation", func() { exec.PartitionRelation(pool, scatter, []int{0}, 64) })
	m["storage.scatter_mtuples_per_s"] = float64(big.NumTuples()) / us
	scatter.Release()

	keys := make([]uint64, 0, idb.NumTuples())
	idb.ForEach(func(t []int32) { keys = append(keys, gscht.PackKey64(t)) })
	us = probe("gscht.Table64.InsertBatch", func() {
		const batch = 1024
		table := gscht.NewTable64(len(keys))
		var arena gscht.Arena64
		bidx := make([]int32, batch)
		sel := make([]int32, 0, batch)
		for off := 0; off < len(keys); off += batch {
			end := min(off+batch, len(keys))
			table.InsertBatch(keys[off:end], bidx, &arena, int32(off), sel[:0])
		}
		table.Release()
	})
	m["gscht.insert_mtuples_per_s"] = float64(len(keys)) / us

	const analyzeCalls = 1000
	catalog := stats.NewCatalog(0)
	m["stats.analyze_us"] = tr.timed("stats.Catalog.Analyze", parent, analyzeCalls, func() {
		catalog.Analyze(idb, stats.ModeSelective)
	})
}
