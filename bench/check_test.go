package main

import (
	"math/rand"
	"testing"

	"recstep/internal/datalog/parser"
	"recstep/internal/quickstep/storage"
)

func TestDigestIgnoresOrderAndSeesContent(t *testing.T) {
	a := table{"r", 2, []int32{1, 2, 3, 4, 5, 6}}.relation()
	b := table{"r", 2, []int32{5, 6, 1, 2, 3, 4}}.relation()
	if digestOf(a) != digestOf(b) {
		t.Error("the same tuples in another order have another digest")
	}
	c := table{"r", 2, []int32{1, 2, 3, 4, 6, 5}}.relation()
	if digestOf(a) == digestOf(c) {
		t.Error("a swapped tuple left the digest unchanged")
	}
}

// TestCorruptedOutputCountsAsFailed runs a small closure, then feeds the
// engine an input with one arc more than the reference was computed from:
// the run succeeds, its output differs, and it must be counted in failed.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	arcs := genGnP(40, 0.08, rand.New(rand.NewSource(1)))
	prog, err := parser.Parse(progTC)
	if err != nil {
		t.Fatal(err)
	}
	p := &prepared{w: findWorkload("tc_dense"), prog: prog, workers: 1}
	p.edbs = relations([]table{arcs})
	p.ref = refTC(p.edbs, 1)
	var o ops
	p.run(1, &o)
	if o.attempted != 1 || o.failed != 0 {
		t.Fatalf("clean run: attempted %d failed %d (%v), want 1 and 0", o.attempted, o.failed, o.firstErr)
	}
	arcs.rows = append(arcs.rows, 0, 1000)
	p.edbs = relations([]table{arcs})
	p.run(1, &o)
	if o.attempted != 2 || o.failed != 1 || o.firstErr == nil {
		t.Fatalf("corrupted run: attempted %d failed %d (%v), want 2 and 1 with an error", o.attempted, o.failed, o.firstErr)
	}
	// a missing relation and a leak are failures too
	if err := (reference{"tc": {}}).verify(map[string]*storage.Relation{}); err == nil {
		t.Error("a result without the referenced relation verified")
	}
	o.fail(leakErr(64))
	if o.failed != 2 {
		t.Errorf("leaked bytes at teardown: failed %d, want 2", o.failed)
	}
}
