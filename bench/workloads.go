package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"recstep/internal/core"
	"recstep/internal/datalog/ast"
	"recstep/internal/datalog/parser"
	"recstep/internal/quickstep/storage"
)

// input is what one seed generates for one workload: the base relations and,
// for the resident workload, the update stream over arc.
type input struct {
	tables   []table
	ins, del [][]int32
}

// workload is one named benchmark workload. The engine receives only the
// relations generate produces; ref computes what its output must be.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same sentence).
	why     string
	program string
	// budget is the only engine option besides Workers a workload sets.
	budget int64
	// resident marks the workload that keeps a database open and streams
	// single-arc updates into it.
	resident bool
	// shape draws the input's structure from shapeSeed, and the run's seed
	// renames the identifiers below domain; with both zero the structure is
	// drawn from the run's seed itself and keeps its identifiers.
	shape     func(rng *rand.Rand) []table
	shapeSeed int64
	domain    int
	ref       func(edbs map[string]*storage.Relation, workers int) reference
	// edb and idb name the relations the layer probes run on.
	edb, idb string
}

// Update-stream sizes of the resident workload.
const (
	incrInserts = 300
	incrDeletes = 3
)

func tcDenseShape(rng *rand.Rand) []table { return []table{genGnP(1000, 0.01, rng)} }

var workloads = []workload{
	{
		name:    "tc_dense",
		why:     "per-tuple work dominates: probe, fused delta and GSCHT are nearly all of the wall; front end and planner are ~0",
		program: progTC,
		shape:   tcDenseShape, shapeSeed: 1, domain: 1000,
		ref: refTC, edb: "arc", idb: "tc",
	},
	{
		name:      "csda_chain",
		why:       "per-iteration fixed cost dominates: 2001 iterations of a few rows each, so SQL text, parse, bind, plan and DDL are the wall",
		program:   progCSDA,
		shape:     func(rng *rand.Rand) []table { return genCSDA(4, 2000, 8, rng) },
		shapeSeed: 1, domain: 4 * 2000,
		ref: refCSDA, edb: "arc", idb: "null",
	},
	{
		name:      "cspa_mutual",
		why:       "planner, secondary carry and join intermediates dominate: three mutually recursive IDBs with conflicting join keys",
		program:   progCSPA,
		shape:     func(rng *rand.Rand) []table { return genCSPA(350, 13, 3, rng) },
		shapeSeed: 13, domain: 350,
		ref: refCSPA, edb: "assign", idb: "valueFlow",
	},
	{
		name:    "cc_rmat",
		why:     "recursive MIN aggregation dominates and the fused delta step is bypassed: same exec and storage layers, other operator",
		program: progCC,
		// shapeSeed 0: the structure is drawn from the run's seed, unrenamed.
		shape: func(rng *rand.Rand) []table { return []table{genRMATUndirected(65536, 655360, rng)} },
		ref:   refCC, edb: "arc", idb: "cc2",
	},
	{
		name:    "tc_budget",
		why:     "tc_dense under a 32 MiB memory budget: same program through spill, fault and reclaim; tc_dense is its bypass",
		program: progTC,
		budget:  32 << 20,
		// domain 0: no vertex is renamed, every seed gives the same input.
		shape: tcDenseShape, shapeSeed: 1,
		ref: refTC, edb: "arc", idb: "tc",
	},
	{
		name:      "incr_tc",
		why:       "resident tc with single-arc inserts (seeded semi-naive) then deletes (DRed) on one database, and its from-scratch rerun",
		program:   progTC,
		resident:  true,
		shape:     func(rng *rand.Rand) []table { return []table{genGnP(700, 0.0022, rng)} },
		shapeSeed: 1, domain: 700,
		ref: refTC, edb: "arc", idb: "tc",
	},
}

// generate makes the workload's inputs from a seed. Five workloads draw their
// structure from a pinned shapeSeed, and the run's seed renames the vertices
// and, for the resident workload, draws the updates: drawn from the run's
// seed, the structure itself moves the work by more than any regression
// bound (over seeds 1..10 CSPA's fixpoint time spread ±12%, the dataflow
// chains' allocation ±15%, the sparse resident graph's closure ±25%).
// cc_rmat is the other way round: its R-MAT graph costs the same whatever
// the seed (3%), but MIN-label propagation's work depends on which vertices
// carry the small labels, so renaming them moved its time by 40%; its
// structure is drawn from the run's seed and keeps its labels. tc_budget
// takes tc_dense's structure unrenamed at every seed: which partitions the
// budget evicts depends on the labels, and renaming them threw fixpoint_s
// into two modes 12% apart.
func (w *workload) generate(seed int64) input {
	rng := rand.New(rand.NewSource(seed))
	if w.shapeSeed == 0 {
		return input{tables: w.shape(rng)}
	}
	in := input{tables: w.shape(rand.New(rand.NewSource(w.shapeSeed)))}
	relabel(in.tables, w.domain, rng)
	if w.resident {
		in.ins, in.del = genArcUpdates(in.tables[0], w.domain, incrInserts, incrDeletes, rng)
	}
	return in
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// prepared is a workload after set-up: inputs generated, reference computed,
// engine warmed up and, for the resident workload, the database loaded.
type prepared struct {
	w       *workload
	in      input
	prog    *ast.Program
	edbs    map[string]*storage.Relation
	ref     reference
	workers int
	// spillDir receives the spill files of a budgeted run; it lies inside the
	// checkout.
	spillDir string
	db       *core.Database
	loadS    float64
}

// options are the engine options of every run: the defaults, with only the
// worker count and the workload's memory budget set.
func (p *prepared) options(workers int) core.Options {
	opts := core.DefaultOptions()
	opts.Workers = workers
	if p.w.budget > 0 {
		opts.MemBudgetBytes = p.w.budget
		opts.SpillDir = p.spillDir
	}
	return opts
}

// setup generates the inputs, computes the reference, runs the untimed
// warm-up and, for the resident workload, loads the database. Its wall time
// is one setup_s sample.
func (w *workload) setup(seed int64, workers int, spillDir string, o *ops) (*prepared, float64, error) {
	start := time.Now()
	p := &prepared{w: w, workers: workers, spillDir: spillDir}
	p.in = w.generate(seed)
	p.edbs = relations(p.in.tables)
	p.ref = w.ref(p.edbs, workers)
	prog, err := parser.Parse(w.program)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", w.name, err)
	}
	p.prog = prog
	p.run(workers, o)
	if w.resident {
		// ApplyDelta rewrites the resident base relations in place, so the
		// database gets relations of its own.
		t0 := time.Now()
		db, err := core.New(p.options(workers)).RunIncremental(context.Background(), prog, relations(p.in.tables))
		p.loadS = time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: resident load: %w", w.name, err)
		}
		p.db = db
	}
	return p, time.Since(start).Seconds(), nil
}

// closeResident tears the resident database down and checks that it leaked
// nothing. The check reports through the last counted operation.
func (p *prepared) closeResident(o *ops) {
	if p.db == nil {
		return
	}
	snap, err := p.db.Close()
	if err == nil {
		err = leakErr(snap.LiveTotal)
	}
	o.fail(err)
	p.db = nil
}
