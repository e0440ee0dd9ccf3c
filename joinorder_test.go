package recstep

import (
	"fmt"
	"reflect"
	"slices"
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

// reverseIDBOrder returns a copy of p with every IDB predicate renamed
// "r<k>_<name>", k counting down in name order, so the engine evaluates the
// predicates of a stratum in the reverse of the order it evaluates p's in.
func reverseIDBOrder(p *ast.Program) *ast.Program {
	var idbs []string
	for _, r := range p.Rules {
		if !slices.Contains(idbs, r.HeadPred) {
			idbs = append(idbs, r.HeadPred)
		}
	}
	slices.Sort(idbs)
	rename := make(map[string]string, len(idbs))
	for i, name := range idbs {
		rename[name] = fmt.Sprintf("r%02d_%s", len(idbs)-1-i, name)
	}
	q := &ast.Program{Rules: make([]ast.Rule, len(p.Rules)), Facts: p.Facts}
	for i, r := range p.Rules {
		r.HeadPred = rename[r.HeadPred]
		body := make([]ast.Atom, len(r.Body))
		for j, a := range r.Body {
			if name, ok := rename[a.Pred]; ok {
				a.Pred = name
			}
			body[j] = a
		}
		r.Body = body
		q.Rules[i] = r
	}
	return q
}

// unreverse maps a relation reverseIDBOrder renamed back to its name.
func unreverse(rel string) string { return rel[strings.IndexByte(rel, '_')+1:] }

// Within an iteration the ∆s install in predicate order, so the order the
// engine evaluates a stratum's predicates in must not change what it
// derives: with every IDB renamed so that the order reverses, every program
// derives, at every radix fan-out, what the staged lock-map run of the
// program as written and baselines/native derive.
func TestReversedPredicateOrderMatchesNativeAcrossPrograms(t *testing.T) {
	matchAcrossPrograms(t, false, func(base core.Options, _ bool) []equivArm {
		var arms []equivArm
		for _, parts := range testFanouts {
			opts := base
			opts.Partitions = parts
			arms = append(arms, equivArm{what: fmt.Sprintf("parts=%d reversed predicate order", parts), opts: opts,
				rewrite: reverseIDBOrder, renamed: unreverse, native: true})
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
	// CSPA's three-atom bodies are split into two-atom joins through
	// auxiliary IDBs, so the gauge is checked on an acyclic three-atom chain
	// that keeps every variable in its head: the analyzer leaves it whole, and
	// it runs pairwise and materializes the intermediate the leapfrog join
	// would not.
	chain := programs.MustParse(`path3(a, b, c, d) :- arc(a, b), arc(b, c), arc(c, d).`)
	if res, err = core.New(opts).Run(chain, fuseTestEDBs("tc")); err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Splits) != 0 {
		t.Fatalf("a chain with no dead variable was split: %v", res.Stats.Splits)
	}
	if res.Stats.PeakJoinIntermediate == 0 {
		t.Fatal("a pairwise three-atom chain reports zero peak intermediate; the gauge is not measuring")
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
