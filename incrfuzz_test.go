package recstep

// Differential delta-fuzz harness for incremental maintenance (ApplyDelta).
//
// For every benchmark program and a spread of partition counts, the harness
// generates a seeded-random sequence of insert / delete / mixed EDB updates,
// applies each step to a resident incremental database, and asserts
// bit-equality of every IDB against a from-scratch fixpoint over the mirrored
// EDB state — the "incremental off" arm of the comparison. At teardown the
// pool must report zero live bytes. On divergence the harness shrinks the
// sequence to a minimal counterexample (dropping whole steps, then individual
// rows, re-replaying each candidate on a fresh database) and prints the
// program, seed, partition count, worker count, failing step, and minimal
// delta sequence. Each case draws its worker count (1, 2 or 4) from its seed,
// so RECSTEP_FUZZ_SEED reproduces that too.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"recstep/internal/core"
	"recstep/internal/experiments"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

const fuzzScale = 18

type deltaStep struct {
	rel string
	ins [][]int32
	del [][]int32
}

type fuzzCase struct {
	program string
	parts   int
	workers int
	seed    int64
	base    map[string][][]int32 // immutable EDB snapshot the sequence starts from
	arity   map[string]int
	domain  map[string]int // value range for generated rows, per predicate
}

func (c *fuzzCase) options() core.Options {
	opts := core.DefaultOptions()
	opts.Workers = c.workers
	opts.Partitions = c.parts
	return opts
}

// fuzzWorkers is the worker count a case runs at, drawn from its seed.
func fuzzWorkers(seed int64) int {
	return []int{1, 2, 4}[rand.New(rand.NewSource(seed)).Intn(3)]
}

func newFuzzCase(program string, parts int, seed int64) *fuzzCase {
	c := &fuzzCase{
		program: program,
		parts:   parts,
		workers: fuzzWorkers(seed),
		seed:    seed,
		base:    map[string][][]int32{},
		arity:   map[string]int{},
		domain:  map[string]int{},
	}
	for name, rel := range experiments.PeakMemEDBs(program, fuzzScale) {
		c.arity[name] = rel.Arity()
		maxVal := int32(0)
		rel.ForEach(func(tuple []int32) {
			row := append([]int32(nil), tuple...)
			c.base[name] = append(c.base[name], row)
			for _, v := range row {
				if v > maxVal {
					maxVal = v
				}
			}
		})
		// Leave headroom above the observed values so inserts can mint
		// previously-unseen nodes, not just rewire existing ones.
		c.domain[name] = int(maxVal) + 4
	}
	return c
}

func cloneRows(m map[string][][]int32) map[string][][]int32 {
	out := make(map[string][][]int32, len(m))
	for k, rows := range m {
		out[k] = append([][]int32(nil), rows...)
	}
	return out
}

func rowKey(row []int32) string { return fmt.Sprint(row) }

// applyToMirror applies one step to the Go-side EDB mirror with the same
// set semantics as ApplyDelta: deletes first, then inserts.
func applyToMirror(state map[string][][]int32, st deltaStep) {
	set := make(map[string][]int32, len(state[st.rel]))
	for _, row := range state[st.rel] {
		set[rowKey(row)] = row
	}
	for _, row := range st.del {
		delete(set, rowKey(row))
	}
	for _, row := range st.ins {
		set[rowKey(row)] = row
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([][]int32, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, set[k])
	}
	state[st.rel] = rows
}

func relsFrom(state map[string][][]int32, arity map[string]int) map[string]*storage.Relation {
	out := make(map[string]*storage.Relation, len(state))
	for name, rows := range state {
		rel := storage.NewRelation(name, storage.NumberedColumns(arity[name]))
		for _, row := range rows {
			rel.Append(row)
		}
		out[name] = rel
	}
	return out
}

// genSteps derives a deterministic update sequence from the case seed. Each
// step is insert-only, delete-only, or mixed; deletes mostly sample rows that
// are actually present (with the occasional phantom), inserts draw from a
// domain slightly wider than the base instance.
func (c *fuzzCase) genSteps(n int) []deltaStep {
	rng := rand.New(rand.NewSource(c.seed))
	state := cloneRows(c.base)
	preds := make([]string, 0, len(c.base))
	for p := range c.base {
		preds = append(preds, p)
	}
	sort.Strings(preds)

	randRow := func(rel string) []int32 {
		row := make([]int32, c.arity[rel])
		for j := range row {
			row[j] = int32(rng.Intn(c.domain[rel]))
		}
		return row
	}

	steps := make([]deltaStep, 0, n)
	for len(steps) < n {
		rel := preds[rng.Intn(len(preds))]
		st := deltaStep{rel: rel}
		mode := rng.Intn(3) // 0 insert-only, 1 delete-only, 2 mixed
		if mode != 1 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				st.ins = append(st.ins, randRow(rel))
			}
		}
		if mode != 0 {
			rows := state[rel]
			for k := 1 + rng.Intn(2); k > 0; k-- {
				if len(rows) > 0 && rng.Intn(8) > 0 {
					st.del = append(st.del, append([]int32(nil), rows[rng.Intn(len(rows))]...))
				} else {
					st.del = append(st.del, randRow(rel))
				}
			}
		}
		steps = append(steps, st)
		applyToMirror(state, st)
	}
	return steps
}

// scratch evaluates the program from scratch over the mirrored EDB state.
func (c *fuzzCase) scratch(state map[string][][]int32) (map[string][]int32, error) {
	prog := programs.MustParse(programs.ByName[c.program])
	res, err := core.New(c.options()).Run(prog, relsFrom(state, c.arity))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int32, len(res.Relations))
	for name, rel := range res.Relations {
		out[name] = rel.SortedRows()
		rel.Release()
	}
	return out, nil
}

// replay runs the sequence on a fresh resident database, checking bit-equality
// with a from-scratch fixpoint after every step. It returns -1 on success, the
// index of the first divergent step, or len(steps) for a teardown-time failure
// (close error or leaked pooled bytes).
func (c *fuzzCase) replay(steps []deltaStep) (int, string) {
	prog := programs.MustParse(programs.ByName[c.program])
	d, err := core.New(c.options()).RunIncremental(context.Background(), prog, relsFrom(c.base, c.arity))
	if err != nil {
		return 0, "initial fixpoint: " + err.Error()
	}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()

	state := cloneRows(c.base)
	for i, st := range steps {
		applyToMirror(state, st)
		if _, err := d.ApplyDelta(st.rel, st.ins, st.del); err != nil {
			return i, "ApplyDelta: " + err.Error()
		}
		want, err := c.scratch(state)
		if err != nil {
			return i, "scratch fixpoint: " + err.Error()
		}
		for _, idb := range d.IDBNames() {
			rel, ok := d.Relation(idb)
			if !ok {
				return i, "relation " + idb + " not resident"
			}
			got := rel.SortedRows()
			if !reflect.DeepEqual(got, want[idb]) {
				return i, fmt.Sprintf("%s diverged: %d values incremental vs %d from scratch", idb, len(got), len(want[idb]))
			}
		}
	}

	closed = true
	snap, err := d.Close()
	if err != nil {
		return len(steps), "close: " + err.Error()
	}
	if snap.LiveTotal != 0 {
		return len(steps), fmt.Sprintf("leaked %d pooled bytes at teardown", snap.LiveTotal)
	}
	return -1, ""
}

// shrink greedily minimizes a failing sequence: first dropping whole steps,
// then dropping individual rows, re-replaying each candidate from scratch.
func (c *fuzzCase) shrink(steps []deltaStep, failAt int) []deltaStep {
	min := steps
	if failAt < len(min) {
		min = min[:failAt+1]
	}
	for i := 0; i < len(min); {
		cand := append(append([]deltaStep(nil), min[:i]...), min[i+1:]...)
		if fa, _ := c.replay(cand); fa >= 0 {
			if fa < len(cand) {
				cand = cand[:fa+1]
			}
			min = cand
		} else {
			i++
		}
	}
	for i := range min {
		min[i].ins = c.shrinkRows(min, i, true)
		min[i].del = c.shrinkRows(min, i, false)
	}
	return min
}

func (c *fuzzCase) shrinkRows(steps []deltaStep, i int, ins bool) [][]int32 {
	get := func() [][]int32 {
		if ins {
			return steps[i].ins
		}
		return steps[i].del
	}
	set := func(rows [][]int32) {
		if ins {
			steps[i].ins = rows
		} else {
			steps[i].del = rows
		}
	}
	rows := get()
	for j := 0; j < len(rows); {
		cand := append(append([][]int32(nil), rows[:j]...), rows[j+1:]...)
		set(cand)
		if fa, _ := c.replay(steps); fa >= 0 {
			rows = cand
		} else {
			j++
		}
		set(rows)
	}
	return rows
}

func formatSteps(steps []deltaStep) string {
	var b strings.Builder
	for i, st := range steps {
		fmt.Fprintf(&b, "  step %d: %s ins=%v del=%v\n", i, st.rel, st.ins, st.del)
	}
	return b.String()
}

// fuzzSeed returns the deterministic per-case seed, overridable with
// RECSTEP_FUZZ_SEED for reproducing a reported counterexample.
func fuzzSeed(nameIdx, parts int) int64 {
	if env := os.Getenv("RECSTEP_FUZZ_SEED"); env != "" {
		if s, err := strconv.ParseInt(env, 10, 64); err == nil {
			return s
		}
	}
	return 0x5EED0 + int64(nameIdx)*131 + int64(parts)*7
}

func TestIncrementalDeltaFuzz(t *testing.T) {
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)

	partsList := []int{1, 16, 64}
	if testing.Short() {
		partsList = []int{16}
	}

	for ni, name := range names {
		for _, parts := range partsList {
			name, parts, seed := name, parts, fuzzSeed(ni, parts)
			t.Run(fmt.Sprintf("%s/parts%d", name, parts), func(t *testing.T) {
				c := newFuzzCase(name, parts, seed)
				steps := c.genSteps(6)
				failAt, detail := c.replay(steps)
				if failAt < 0 {
					return
				}
				min := c.shrink(steps, failAt)
				minAt, minDetail := c.replay(min)
				if minDetail == "" {
					minAt, minDetail = failAt, detail
				}
				t.Fatalf("delta-fuzz counterexample: program=%s parts=%d workers=%d seed=%d failing step=%d: %s\nminimal sequence:\n%s",
					name, parts, c.workers, seed, minAt, minDetail, formatSteps(min))
			})
		}
	}
}
