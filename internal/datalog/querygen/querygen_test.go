package querygen

import (
	"strings"
	"testing"

	"recstep/internal/datalog/analysis"
	"recstep/internal/programs"
)

func gen(t *testing.T, src string) (*Generator, *analysis.Result) {
	t.Helper()
	res, err := analysis.Analyze(programs.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return New(res), res
}

func queriesFor(t *testing.T, src, pred string) IDBQueries {
	t.Helper()
	g, res := gen(t, src)
	s := res.Strata[res.Preds[pred].Stratum]
	qs, err := g.StratumQueries(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Pred == pred {
			return q
		}
	}
	t.Fatalf("no queries for %q", pred)
	return IDBQueries{}
}

func TestTCQueries(t *testing.T) {
	q := queriesFor(t, programs.TC, "tc")
	if q.Init.Subqueries != 1 || q.Rec.Subqueries != 1 {
		t.Fatalf("subqueries init=%d rec=%d, want 1/1", q.Init.Subqueries, q.Rec.Subqueries)
	}
	if !strings.Contains(q.Init.Unified, "INSERT INTO tc_mtmp") {
		t.Fatalf("init = %q", q.Init.Unified)
	}
	if !strings.Contains(q.Init.Unified, "FROM arc AS t0") {
		t.Fatalf("init = %q", q.Init.Unified)
	}
	if !strings.Contains(q.Rec.Unified, "tc_mdelta AS t0") {
		t.Fatalf("rec should read the delta table: %q", q.Rec.Unified)
	}
	if !strings.Contains(q.Rec.Unified, "t1.c0 = t0.c1") {
		t.Fatalf("rec join condition missing: %q", q.Rec.Unified)
	}
}

func TestAndersenUIEUnionArms(t *testing.T) {
	q := queriesFor(t, programs.Andersen, "pointsTo")
	// Rules: 1 base + (1 + 2 + 2) recursive occurrences = 5 delta subqueries.
	if q.Init.Subqueries != 1 {
		t.Fatalf("init subqueries = %d, want 1", q.Init.Subqueries)
	}
	if q.Rec.Subqueries != 5 {
		t.Fatalf("rec subqueries = %d, want 5", q.Rec.Subqueries)
	}
	if got := strings.Count(q.Rec.Unified, "UNION ALL"); got != 4 {
		t.Fatalf("UNION ALL count = %d, want 4", got)
	}
	// Individual form matches Figure 4: one INSERT per subquery plus merge.
	if len(q.Rec.Parts) != 5 || len(q.Rec.PartTables) != 5 {
		t.Fatalf("parts = %d", len(q.Rec.Parts))
	}
	if !strings.Contains(q.Rec.Merge, "SELECT * FROM pointsTo_mtmp_0") {
		t.Fatalf("merge = %q", q.Rec.Merge)
	}
}

func TestSGResidualAndDelta(t *testing.T) {
	q := queriesFor(t, programs.SG, "sg")
	if !strings.Contains(q.Init.Unified, "<>") {
		t.Fatalf("x != y should render as <>: %q", q.Init.Unified)
	}
	// The recursive rule is split through sg_1_maux(x, b) :- arc(a, x),
	// sg(a, b): sg's recursive arm reads the auxiliary predicate's ∆, and the
	// auxiliary predicate's arm reads sg's.
	if !strings.Contains(q.Rec.Unified, "sg_1_maux_mdelta") {
		t.Fatalf("rec = %q", q.Rec.Unified)
	}
	if aux := queriesFor(t, programs.SG, "sg_1_maux"); !strings.Contains(aux.Rec.Unified, "sg_mdelta") {
		t.Fatalf("aux rec = %q", aux.Rec.Unified)
	}
}

func TestCCAggregateGroupBy(t *testing.T) {
	q := queriesFor(t, programs.CC, "cc3")
	if !q.RecursiveAgg || q.Agg == nil {
		t.Fatal("cc3 should be a recursive aggregate")
	}
	if !strings.Contains(q.Init.Unified, "MIN(t0.c0) AS c1") {
		t.Fatalf("init = %q", q.Init.Unified)
	}
	if !strings.Contains(q.Init.Unified, "GROUP BY t0.c0") {
		t.Fatalf("init should pre-aggregate: %q", q.Init.Unified)
	}
	if !strings.Contains(q.Rec.Unified, "cc3_mdelta") {
		t.Fatalf("rec = %q", q.Rec.Unified)
	}
}

func TestSSSPArithmeticAggregate(t *testing.T) {
	q := queriesFor(t, programs.SSSP, "sssp2")
	if !strings.Contains(q.Rec.Unified, "MIN((t0.c1 + t1.c2)) AS c1") {
		t.Fatalf("rec = %q", q.Rec.Unified)
	}
	if !strings.Contains(q.Init.Unified, "MIN(0) AS c1") {
		t.Fatalf("init = %q", q.Init.Unified)
	}
}

func TestNTCNotExists(t *testing.T) {
	q := queriesFor(t, programs.NTC, "ntc")
	u := q.Init.Unified
	if !strings.Contains(u, "NOT EXISTS (SELECT * FROM tc AS n0 WHERE n0.c0 = t0.c0 AND n0.c1 = t1.c0)") {
		t.Fatalf("negation SQL = %q", u)
	}
	if q.Rec.Subqueries != 0 {
		t.Fatal("ntc is non-recursive")
	}
}

func TestConstantsInAtoms(t *testing.T) {
	q := queriesFor(t, "p(x) :- e(x, 5).", "p")
	if !strings.Contains(q.Init.Unified, "t0.c1 = 5") {
		t.Fatalf("constant constraint missing: %q", q.Init.Unified)
	}
}

func TestWildcardsNotConstrained(t *testing.T) {
	q := queriesFor(t, "p(x) :- e(x, _).", "p")
	if strings.Contains(q.Init.Unified, "WHERE") {
		t.Fatalf("wildcard should impose no condition: %q", q.Init.Unified)
	}
}

func TestCSPAMutualRecursionDeltas(t *testing.T) {
	g, res := gen(t, programs.CSPA)
	s := res.Strata[res.Preds["valueFlow"].Stratum]
	qs, err := g.StratumQueries(s)
	if err != nil {
		t.Fatal(err)
	}
	byPred := map[string]IDBQueries{}
	for _, q := range qs {
		byPred[q.Pred] = q
	}
	// valueFlow's recursive arms must reference memoryAlias_mdelta (from the
	// assign ⋈ memoryAlias rule) and valueFlow_mdelta.
	vf := byPred["valueFlow"]
	if !strings.Contains(vf.Rec.Unified, "memoryAlias_mdelta") || !strings.Contains(vf.Rec.Unified, "valueFlow_mdelta") {
		t.Fatalf("valueFlow rec = %q", vf.Rec.Unified)
	}
	// valueFlow(x,y) :- valueFlow(x,z), valueFlow(z,y) yields two delta arms.
	if got := strings.Count(vf.Rec.Unified, "valueFlow_mdelta"); got < 2 {
		t.Fatalf("nonlinear rule should contribute ≥2 delta arms, got %d", got)
	}
	va := byPred["valueAlias"]
	if va.Init.Subqueries != 0 {
		t.Fatalf("valueAlias has no base rules, init = %d", va.Init.Subqueries)
	}
}

func TestTableNameHelpers(t *testing.T) {
	if DeltaTable("tc") != "tc_mdelta" || TmpTable("tc") != "tc_mtmp" {
		t.Fatal("table name helpers changed")
	}
}

func TestGroupTermMustBeVariable(t *testing.T) {
	// An arithmetic grouping term cannot be rendered as a GROUP BY column.
	g, res := gen(t, "p(x + 1, MIN(y)) :- e(x, y).")
	s := res.Strata[res.Preds["p"].Stratum]
	if _, err := g.StratumQueries(s); err == nil {
		t.Fatal("expected error for arithmetic grouping term")
	}
}

func TestNoPositiveAtomsRejected(t *testing.T) {
	// A rule whose only body literal is negated cannot be compiled.
	res, err := analysis.Analyze(programs.MustParse("p(1) :- !e(1).\nq(x) :- e(x)."))
	if err != nil {
		t.Fatal(err)
	}
	g := New(res)
	s := res.Strata[res.Preds["p"].Stratum]
	if _, err := g.StratumQueries(s); err == nil {
		t.Fatal("expected error for rule without positive atoms")
	}
}
