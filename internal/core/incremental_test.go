package core

import (
	"context"
	"reflect"
	"testing"

	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// --- helpers -------------------------------------------------------------

func openIncr(t *testing.T, opts Options, src string, edbs map[string]*storage.Relation) *Database {
	t.Helper()
	d, err := New(opts).RunIncremental(context.Background(), programs.MustParse(src), edbs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func residentRows(t *testing.T, d *Database, name string) []int32 {
	t.Helper()
	rel, ok := d.Relation(name)
	if !ok {
		t.Fatalf("relation %q not resident", name)
	}
	return rel.SortedRows()
}

// scratchRows evaluates the program from scratch and returns each IDB's
// sorted rows — the ground truth every incremental state must bit-match.
func scratchRows(t *testing.T, opts Options, src string, edbs map[string]*storage.Relation) map[string][]int32 {
	t.Helper()
	res, err := New(opts).Run(programs.MustParse(src), edbs)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]int32, len(res.Relations))
	for name, rel := range res.Relations {
		out[name] = rel.SortedRows()
		rel.Release()
	}
	return out
}

func requireMatch(t *testing.T, d *Database, opts Options, src string, edges []pair, ctxLabel string) {
	t.Helper()
	want := scratchRows(t, opts, src, map[string]*storage.Relation{"arc": arcRel(edges)})
	for name, rows := range want {
		got := residentRows(t, d, name)
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("%s: %s diverged: got %d rows, want %d", ctxLabel, name, len(got)/2, len(rows)/2)
		}
	}
}

func closeLeakFree(t *testing.T, d *Database) {
	t.Helper()
	snap, err := d.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if snap.LiveTotal != 0 {
		t.Fatalf("leaked %d pooled bytes at close", snap.LiveTotal)
	}
}

func applyEdges(t *testing.T, d *Database, ins, del []pair) UpdateStats {
	t.Helper()
	toRows := func(ps []pair) [][]int32 {
		out := make([][]int32, len(ps))
		for i, p := range ps {
			out[i] = []int32{p.x, p.y}
		}
		return out
	}
	us, err := d.ApplyDelta("arc", toRows(ins), toRows(del))
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	return us
}

// editEdges applies ins/del to a reference edge list with set semantics.
func editEdges(edges, ins, del []pair) []pair {
	set := map[pair]bool{}
	for _, e := range edges {
		set[e] = true
	}
	for _, e := range del {
		delete(set, e)
	}
	for _, e := range ins {
		set[e] = true
	}
	out := make([]pair, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	return out
}

// --- insertion seeding ---------------------------------------------------

func TestApplyDeltaTCInsert(t *testing.T) {
	edges := []pair{{1, 2}, {2, 3}, {5, 6}}
	opts := DefaultOptions()
	d := openIncr(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	// Bridge the two components: the closure must grow across it.
	edges = editEdges(edges, []pair{{3, 5}}, nil)
	us := applyEdges(t, d, []pair{{3, 5}}, nil)
	if us.Inserted != 1 || us.Deleted != 0 {
		t.Fatalf("unexpected stats %+v", us)
	}
	requireMatch(t, d, opts, programs.TC, edges, "after insert")

	// Inserting an already-derivable edge is still an EDB change.
	edges = editEdges(edges, []pair{{1, 3}}, nil)
	applyEdges(t, d, []pair{{1, 3}}, nil)
	requireMatch(t, d, opts, programs.TC, edges, "after redundant insert")

	// A pure no-op: row already present.
	us = applyEdges(t, d, []pair{{1, 2}}, nil)
	if us.Inserted != 0 || us.Deleted != 0 {
		t.Fatalf("no-op update reported %+v", us)
	}
}

// --- deletions recompute ------------------------------------------------

func TestApplyDeltaTCDelete(t *testing.T) {
	// 1→2→3→4 plus a shortcut 1→3: deleting 2→3 removes (2,3),(2,4) while
	// (1,3) and (1,4) survive through the shortcut.
	edges := []pair{{1, 2}, {2, 3}, {3, 4}, {1, 3}}
	opts := DefaultOptions()
	d := openIncr(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	edges = editEdges(edges, nil, []pair{{2, 3}})
	us := applyEdges(t, d, nil, []pair{{2, 3}})
	if us.Deleted != 1 || us.FallbackStrata != 1 {
		t.Fatalf("expected one deleted row and the one tc stratum recomputed, got %+v", us)
	}
	requireMatch(t, d, opts, programs.TC, edges, "after delete")

	// Deleting an absent row is a no-op.
	us = applyEdges(t, d, nil, []pair{{9, 9}})
	if us.Deleted != 0 || us.FallbackStrata != 0 {
		t.Fatalf("phantom delete reported %+v", us)
	}
}

func TestApplyDeltaSGHandBuilt(t *testing.T) {
	// Same-generation on a small tree with a cross edge; SG exercises the
	// two-sided recursive rule (sg(x,y) :- arc(px,x), sg(px,py), arc(py,y)),
	// whose seeded insertion arms must handle a new arc at either position.
	edges := []pair{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {1, 5}, {2, 3}}
	opts := DefaultOptions()
	d := openIncr(t, opts, programs.SG, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	steps := []struct {
		ins, del []pair
	}{
		{del: []pair{{0, 2}}},                      // removes one parent edge: generations shrink
		{ins: []pair{{0, 2}}},                      // restore it
		{ins: []pair{{4, 6}}, del: []pair{{1, 3}}}, // mixed step
		{del: []pair{{0, 1}}},                      // detach the other branch
	}
	for i, step := range steps {
		edges = editEdges(edges, step.ins, step.del)
		applyEdges(t, d, step.ins, step.del)
		requireMatch(t, d, opts, programs.SG, edges, "sg step")
		_ = i
	}
}

func TestApplyDeltaMixedSameRow(t *testing.T) {
	// A row in both lists ends up present: delete-then-insert semantics.
	edges := []pair{{1, 2}, {2, 3}}
	opts := DefaultOptions()
	d := openIncr(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	us := applyEdges(t, d, []pair{{2, 3}}, []pair{{2, 3}})
	if us.Inserted != 0 || us.Deleted != 0 {
		t.Fatalf("cancelling update reported %+v", us)
	}
	requireMatch(t, d, opts, programs.TC, edges, "after cancelling update")
}

// --- fallback strata ------------------------------------------------------

func TestApplyDeltaNegationFallsBack(t *testing.T) {
	// NTC has a negated IDB atom; the stratum reading the changed closure
	// must be maintained by recompute-and-diff.
	edges := []pair{{1, 2}, {2, 3}, {3, 1}, {4, 4}}
	opts := DefaultOptions()
	d := openIncr(t, opts, programs.NTC, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	edges = editEdges(edges, []pair{{3, 4}}, []pair{{2, 3}})
	us := applyEdges(t, d, []pair{{3, 4}}, []pair{{2, 3}})
	if us.FallbackStrata == 0 {
		t.Fatalf("expected a fallback stratum for negation, got %+v", us)
	}
	requireMatch(t, d, opts, programs.NTC, edges, "ntc after mixed update")
}

func TestApplyDeltaAggregateFallsBack(t *testing.T) {
	// CC's recursive MIN aggregation has no sound delta rewriting.
	edges := []pair{{1, 2}, {2, 3}, {4, 5}}
	opts := DefaultOptions()
	d := openIncr(t, opts, programs.CC, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	edges = editEdges(edges, []pair{{3, 4}}, nil)
	us := applyEdges(t, d, []pair{{3, 4}}, nil)
	if us.FallbackStrata == 0 {
		t.Fatalf("expected fallback for recursive aggregation, got %+v", us)
	}
	requireMatch(t, d, opts, programs.CC, edges, "cc after merge")

	edges = editEdges(edges, nil, []pair{{2, 3}})
	applyEdges(t, d, nil, []pair{{2, 3}})
	requireMatch(t, d, opts, programs.CC, edges, "cc after split")
}

// --- API errors -----------------------------------------------------------

func TestApplyDeltaRejectsBadTargets(t *testing.T) {
	opts := DefaultOptions()
	d := openIncr(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel([]pair{{1, 2}})})
	defer closeLeakFree(t, d)

	if _, err := d.ApplyDelta("tc", [][]int32{{1, 2}}, nil); err == nil {
		t.Fatal("expected error targeting an IDB")
	}
	if _, err := d.ApplyDelta("nosuch", [][]int32{{1, 2}}, nil); err == nil {
		t.Fatal("expected error for unknown relation")
	}
	if _, err := d.ApplyDelta("arc", [][]int32{{1, 2, 3}}, nil); err == nil {
		t.Fatal("expected arity error")
	}
	// The failed calls must not have dirtied the database.
	if d.Dirty() {
		t.Fatal("validation errors must not mark the database dirty")
	}
	applyEdges(t, d, []pair{{2, 3}}, nil)
}

func TestApplyDeltaSequenceMatchesScratch(t *testing.T) {
	// A longer random-ish sequence over TC at partitioned scale.
	edges := randomEdges(30, 90, 11)
	opts := DefaultOptions()
	opts.Workers = 4
	d := openIncr(t, opts, programs.TC, map[string]*storage.Relation{"arc": arcRel(edges)})
	defer closeLeakFree(t, d)

	extra := randomEdges(30, 120, 12)
	for i := 0; i < 12; i++ {
		var ins, del []pair
		switch i % 3 {
		case 0:
			ins = extra[i*3 : i*3+3]
		case 1:
			del = edges[:2]
		default:
			ins = extra[i*3 : i*3+2]
			del = []pair{edges[i%len(edges)]}
		}
		edges = editEdges(edges, ins, del)
		applyEdges(t, d, ins, del)
		requireMatch(t, d, opts, programs.TC, edges, "sequence step")
	}
}
