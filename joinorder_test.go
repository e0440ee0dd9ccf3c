package recstep

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"recstep/internal/core"
	"recstep/internal/datalog/ast"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// reverseBodies returns a copy of p with every rule body's atoms in reverse
// textual order.
func reverseBodies(p *ast.Program) *ast.Program {
	q := &ast.Program{Rules: make([]ast.Rule, len(p.Rules)), Facts: p.Facts}
	for i, r := range p.Rules {
		body := make([]ast.Atom, len(r.Body))
		for j, a := range r.Body {
			body[len(body)-1-j] = a
		}
		r.Body = body
		q.Rules[i] = r
	}
	return q
}

// The join-ordering pass and the leapfrog join are physical rewrites only,
// and the textual order of a rule body is not an input to either: with every
// body reversed, every program must derive, at every radix fan-out, what the
// staged lock-map run of the program as written derives.
func TestJoinOrderAndWCOJMatchTextualAcrossPrograms(t *testing.T) {
	matchAcrossPrograms(t, false, func(base core.Options, _ bool) []equivArm {
		var arms []equivArm
		for _, parts := range testFanouts {
			opts := base
			opts.Partitions = parts
			arms = append(arms, equivArm{what: fmt.Sprintf("parts=%d reversed bodies", parts), opts: opts, rewrite: reverseBodies})
		}
		return arms
	})
}

// Arms seeded from an empty ∆ must be skipped before planning, the skips
// must surface both per iteration (IterHook) and in the run totals, and the
// chosen orders must be visible per rule arm.
func TestArmSkippingAndPlanStats(t *testing.T) {
	prog := programs.MustParse(programs.CSPA)
	edbs := fuseTestEDBs("cspa")
	opts := core.DefaultOptions()
	opts.Workers = 4
	var hookSkips int64
	opts.IterHook = func(ii core.IterInfo) { hookSkips += int64(ii.ArmsSkipped) }
	res, err := core.New(opts).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ArmsSkipped == 0 {
		t.Fatal("CSPA fixpoint skipped no arms; the empty-∆ filter is not firing")
	}
	if hookSkips != res.Stats.ArmsSkipped {
		t.Fatalf("IterHook saw %d skips, Stats %d", hookSkips, res.Stats.ArmsSkipped)
	}
	if len(res.Stats.JoinOrdersByRule) == 0 {
		t.Fatal("no plan choices recorded")
	}
	var greedy int
	for name, pc := range res.Stats.JoinOrdersByRule {
		if len(pc.Order) != len(pc.Tables) || pc.Count <= 0 {
			t.Fatalf("%s: malformed plan choice %+v", name, pc)
		}
		if pc.Strategy == "greedy" {
			greedy++
		}
	}
	if greedy == 0 {
		t.Fatal("no rule arm recorded the greedy strategy")
	}
	// CSPA's bodies are acyclic chains of three atoms, so they run pairwise
	// and materialize the intermediate the leapfrog join would not.
	if res.Stats.PeakJoinIntermediate == 0 {
		t.Fatal("CSPA's pairwise chains report zero peak intermediate; the gauge is not measuring")
	}
}

// The triangle program must route through the leapfrog join — with zero
// materialized pairwise intermediates — and derive exactly the triangles a
// brute-force scan of the input finds.
func TestWCOJSelectedForTriangleProgram(t *testing.T) {
	prog := programs.MustParse(programs.Tri)
	edbs := fuseTestEDBs("tri")
	opts := core.DefaultOptions()
	opts.Workers = 4
	res, err := core.New(opts).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Stats.WCOJRules) == 0 {
		t.Fatal("triangle rule did not route to the leapfrog join")
	}
	for _, name := range res.Stats.WCOJRules {
		if !strings.HasPrefix(name, "tri") {
			t.Fatalf("unexpected wcoj rule %q", name)
		}
	}
	if res.Stats.PeakJoinIntermediate != 0 {
		t.Fatalf("wcoj run materialized a %d-row pairwise intermediate, want none",
			res.Stats.PeakJoinIntermediate)
	}

	arcs := map[[2]int32]bool{}
	edbs["arc"].ForEach(func(tu []int32) { arcs[[2]int32{tu[0], tu[1]}] = true })
	var want []int32
	for xy := range arcs {
		for yz := range arcs {
			x, y, z := xy[0], xy[1], yz[1]
			if yz[0] == y && x < y && y < z && arcs[[2]int32{x, z}] {
				want = append(want, x, y, z)
			}
		}
	}
	tri := storage.NewRelation("want", storage.NumberedColumns(3))
	tri.AppendRows(want)
	if got := res.Relations["tri"].SortedRows(); !reflect.DeepEqual(got, tri.SortedRows()) {
		t.Fatalf("leapfrog derived %d triangles, a brute-force scan %d", len(got)/3, len(want)/3)
	}
	if len(want) == 0 {
		t.Fatal("no triangles derived; fixture graph too sparse to test anything")
	}
}

// Early termination: an arm whose intermediate comes back empty must not
// change results. The sg program's init rule (arc ⋈ arc with x != y) over a
// graph with no shared parents exercises the empty-intermediate path.
func TestEarlyExitEmptyIntermediate(t *testing.T) {
	// A chain graph: every parent has exactly one child, so sg's seed join
	// arc(p,x) ⋈ arc(p,y), x != y produces rows then filters them all; the
	// recursive arm's intermediates start and stay empty.
	prog := programs.MustParse(programs.SG)
	edbs := fuseTestEDBs("tc") // plain GnP arcs
	opts := core.DefaultOptions()
	opts.Workers = 4
	res, err := core.New(opts).Run(prog, edbs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relations["sg"] == nil {
		t.Fatal("sg missing")
	}
}
