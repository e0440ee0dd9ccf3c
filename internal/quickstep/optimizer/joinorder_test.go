package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"recstep/internal/quickstep/plan"
	"recstep/internal/quickstep/sql"
)

var joinOrderSchema = func(table string) ([]string, bool) {
	switch table {
	case "pointsTo", "pointsTo_delta", "load", "assign", "arc":
		return []string{"c0", "c1"}, true
	}
	return nil, false
}

// joinOrderAtom is one FROM item: a table and the variable names its two
// columns bind (shared names become equi-join edges).
type joinOrderAtom struct {
	table string
	vars  [2]string
}

// atomSQL renders a SELECT joining the atoms in the given textual order,
// with one equality per consecutive occurrence of each variable.
func atomSQL(atoms []joinOrderAtom) string {
	var from, where []string
	occ := map[string][]string{} // var -> "tN.cM" references in order
	for i, a := range atoms {
		from = append(from, fmt.Sprintf("%s AS t%d", a.table, i))
		for c, v := range a.vars {
			occ[v] = append(occ[v], fmt.Sprintf("t%d.c%d", i, c))
		}
	}
	for _, refs := range occ {
		for i := 1; i < len(refs); i++ {
			where = append(where, refs[i-1]+" = "+refs[i])
		}
	}
	return "SELECT t0.c0, t0.c1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

func bindBranch(t *testing.T, q string) *plan.Branch {
	t.Helper()
	st, err := sql.Parse(q, joinOrderSchema)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return st.(plan.SelectStmt).Query.Branches[0]
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}

// OrderJoins must be a function of the join structure and cardinalities
// only: every textual permutation of the same body must come back in the
// same table order.
func TestOrderJoinsInvariantToTextualOrder(t *testing.T) {
	// The aawide shape: ∆pointsTo(x,z) ⋈ pointsTo(z,w) ⋈ load(y,x).
	atoms := []joinOrderAtom{
		{"pointsTo_delta", [2]string{"x", "z"}},
		{"pointsTo", [2]string{"z", "w"}},
		{"load", [2]string{"y", "x"}},
	}
	cardOf := map[string]int{"pointsTo_delta": 5, "pointsTo": 1000, "load": 40}

	var want []string
	for _, perm := range permutations(len(atoms)) {
		permuted := make([]joinOrderAtom, len(atoms))
		for i, j := range perm {
			permuted[i] = atoms[j]
		}
		br := bindBranch(t, atomSQL(permuted))
		cards := make([]int, len(br.Tables))
		for i, tab := range br.Tables {
			cards[i] = cardOf[tab]
		}
		order := OrderJoins(br, cards)
		names := make([]string, len(order))
		for i, idx := range order {
			names[i] = br.Tables[idx]
		}
		if want == nil {
			want = names
			continue
		}
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Fatalf("permutation %v ordered %v, want %v", perm, names, want)
		}
	}
	if want[0] != "pointsTo_delta" {
		t.Fatalf("seed = %s, want the smallest relation pointsTo_delta (order %v)", want[0], want)
	}
	// load connects to the seed through x and is far smaller than pointsTo:
	// connectivity + cardinality must place it second.
	if want[1] != "load" {
		t.Fatalf("second atom = %s, want load (order %v)", want[1], want)
	}
}

// The strategy chooser must route cyclic ≥3-atom bodies to the leapfrog
// join and leave chains on the (ordered) pairwise pipeline.
func TestChooseJoinStrategy(t *testing.T) {
	triangle := bindBranch(t, atomSQL([]joinOrderAtom{
		{"arc", [2]string{"x", "y"}},
		{"arc", [2]string{"y", "z"}},
		{"arc", [2]string{"x", "z"}},
	}))
	chain := bindBranch(t, atomSQL([]joinOrderAtom{
		{"pointsTo_delta", [2]string{"x", "z"}},
		{"pointsTo", [2]string{"z", "w"}},
		{"load", [2]string{"y", "x"}},
	}))
	if got := ChooseJoinStrategy(triangle); got != JoinWCOJ {
		t.Fatalf("triangle: %v, want wcoj", got)
	}
	if got := ChooseJoinStrategy(chain); got != JoinGreedy {
		t.Fatalf("chain: %v, want greedy", got)
	}
}
