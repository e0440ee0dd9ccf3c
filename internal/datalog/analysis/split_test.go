package analysis

import (
	"strings"
	"testing"

	"recstep/internal/datalog/parser"
	"recstep/internal/programs"
)

// lines renders a program one rule per line, as a slice.
func lines(res *Result) []string {
	return strings.Split(strings.TrimSpace(res.Program.String()), "\n")
}

// The benchmark programs with a dead join variable in a three-atom body come
// out split exactly as the pair rule says: a pair holding an atom outside the
// head's SCC first (aawide's load and store, sg's and memoryAlias's outer
// atoms), else the first pair in body order (CSPA's valueAlias, whose atoms
// are all in its SCC), the live variables in first-occurrence order, the
// rewritten rule where it was and its auxiliary rule right after it.
func TestSplitBenchmarkPrograms(t *testing.T) {
	cases := map[string]struct {
		src   string
		rules []string
		aux   []string
	}{
		"cspa": {programs.CSPA, []string{
			"valueFlow(y, x) :- assign(y, x).",
			"valueFlow(x, y) :- assign(x, z), memoryAlias(z, y).",
			"valueFlow(x, y) :- valueFlow(x, z), valueFlow(z, y).",
			"memoryAlias(x, w) :- memoryAlias_1_maux(x, z), dereference(z, w).",
			"memoryAlias_1_maux(x, z) :- dereference(y, x), valueAlias(y, z).",
			"valueAlias(x, y) :- valueFlow(z, x), valueFlow(z, y).",
			"valueAlias(x, y) :- valueAlias_1_maux(x, w), valueFlow(w, y).",
			"valueAlias_1_maux(x, w) :- valueFlow(z, x), memoryAlias(z, w).",
			"valueFlow(x, x) :- assign(x, y).",
			"valueFlow(x, x) :- assign(y, x).",
			"memoryAlias(x, x) :- assign(y, x).",
			"memoryAlias(x, x) :- assign(x, y).",
		}, []string{"memoryAlias_1_maux(x, z)", "valueAlias_1_maux(x, w)"}},
		"aawide": {programs.AAWide, []string{
			"pointsTo(y, x) :- addressOf(y, x).",
			"pointsTo(y, x) :- pointsTo(z, x), assign(y, z).",
			"pointsTo(y, w) :- pointsTo_1_maux(z, y), pointsTo(z, w).",
			"pointsTo_1_maux(z, y) :- pointsTo(x, z), load(y, x).",
			"pointsTo(z, w) :- pointsTo_2_maux(z, x), pointsTo(x, w).",
			"pointsTo_2_maux(z, x) :- pointsTo(y, z), store(y, x).",
		}, []string{"pointsTo_1_maux(z, y)", "pointsTo_2_maux(z, x)"}},
		"aa": {programs.Andersen, []string{
			"pointsTo(y, x) :- addressOf(y, x).",
			"pointsTo(y, x) :- assign(y, z), pointsTo(z, x).",
			"pointsTo(y, w) :- pointsTo_1_maux(y, z), pointsTo(z, w).",
			"pointsTo_1_maux(y, z) :- load(y, x), pointsTo(x, z).",
			"pointsTo(z, w) :- pointsTo_2_maux(x, z), pointsTo(x, w).",
			"pointsTo_2_maux(x, z) :- store(y, x), pointsTo(y, z).",
		}, []string{"pointsTo_1_maux(y, z)", "pointsTo_2_maux(x, z)"}},
		"sg": {programs.SG, []string{
			"sg(x, y) :- arc(p, x), arc(p, y), x != y.",
			"sg(x, y) :- sg_1_maux(x, b), arc(b, y).",
			"sg_1_maux(x, b) :- arc(a, x), sg(a, b).",
		}, []string{"sg_1_maux(x, b)"}},
	}
	for name, c := range cases {
		res := analyze(t, c.src)
		if got := lines(res); strings.Join(got, "\n") != strings.Join(c.rules, "\n") {
			t.Errorf("%s split into\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(c.rules, "\n"))
		}
		if len(res.Splits) != len(c.aux) {
			t.Fatalf("%s: %d splits %v, want %d", name, len(res.Splits), res.Splits, len(c.aux))
		}
		for i, s := range res.Splits {
			if s.Head != c.aux[i] || !strings.HasPrefix(s.Head, s.Aux+"(") {
				t.Errorf("%s split %d: aux %s head %s, want head %s", name, i, s.Aux, s.Head, c.aux[i])
			}
			if pi := res.Preds[s.Aux]; !pi.IsIDB || !pi.Aux {
				t.Errorf("%s: %s is not an auxiliary IDB: %+v", name, s.Aux, pi)
			}
		}
		for _, idb := range res.IDBNames() {
			if strings.HasSuffix(idb, AuxSuffix) {
				t.Errorf("%s: IDBNames lists the auxiliary %s", name, idb)
			}
		}
	}
	// CSPA's auxiliary predicates read and feed its recursive component, so
	// they join its one stratum.
	res := analyze(t, programs.CSPA)
	if len(res.Strata) != 1 || len(res.Strata[0].IDBs) != 5 || len(res.AllIDBNames()) != 5 || len(res.IDBNames()) != 3 {
		t.Fatalf("cspa strata %+v, IDBs %v", res.Strata, res.AllIDBNames())
	}
}

// Programs with no three-atom body, bodies whose every shared variable is
// read elsewhere, aggregate heads, and pairs whose dead-looking variable a
// comparison or a negated atom reads come out as written.
func TestSplitLeavesOtherRulesAlone(t *testing.T) {
	srcs := map[string]string{
		"tri":        programs.Tri,
		"clique4":    programs.Clique4,
		"tc":         programs.TC,
		"cc":         programs.CC,
		"aggregate":  "cnt(x, COUNT(w)) :- a(x, z), b(z, y), c(y, w).",
		"comparison": "h(x, w) :- a(x, z), b(z, y), c(y, w), z < y.",
		"negation":   "h(x, w) :- a(x, z), b(z, y), c(y, w), !d(z, y).",
		"no live":    "h(x) :- a(x), b(z), c(z).",
	}
	for name, src := range srcs {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want := p.String()
		res, err := Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Program != p || len(res.Splits) != 0 || res.Program.String() != want {
			t.Errorf("%s: split %v into\n%s", name, res.Splits, res.Program)
		}
	}
}

// A four-atom chain over base relations splits twice: the first pair in body
// order, then the auxiliary atom with the next one, each auxiliary predicate
// in a stratum below its reader.
func TestSplitFourAtomBodyTwice(t *testing.T) {
	res := analyze(t, "h(x, v) :- a(x, z), b(z, y), c(y, w), d(w, v).")
	want := []string{
		"h(x, v) :- h_2_maux(x, w), d(w, v).",
		"h_1_maux(x, y) :- a(x, z), b(z, y).",
		"h_2_maux(x, w) :- h_1_maux(x, y), c(y, w).",
	}
	if got := lines(res); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("split into\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(res.Splits) != 2 || res.Splits[1].Rule != "h(x, v) :- h_1_maux(x, y), c(y, w), d(w, v)." {
		t.Fatalf("splits %v", res.Splits)
	}
	s1, s2, h := res.Preds["h_1_maux"].Stratum, res.Preds["h_2_maux"].Stratum, res.Preds["h"].Stratum
	if !(s1 < s2 && s2 < h) {
		t.Fatalf("strata h_1_maux=%d h_2_maux=%d h=%d, want increasing", s1, s2, h)
	}
	if got := res.IDBNames(); len(got) != 1 || got[0] != "h" {
		t.Fatalf("IDBNames = %v", got)
	}
}

// An auxiliary name never reuses a predicate the program already has.
func TestSplitAuxNameAvoidsTakenNames(t *testing.T) {
	res := analyze(t, "h(x, w) :- a(x, z), b(z, y), c(y, w).\nh_1_maux(x) :- a(x, x).")
	if len(res.Splits) != 1 || res.Splits[0].Aux != "h_2_maux" || res.Preds["h_1_maux"].Aux {
		t.Fatalf("splits %v", res.Splits)
	}
}
