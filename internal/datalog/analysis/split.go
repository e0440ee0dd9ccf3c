package analysis

import (
	"fmt"
	"slices"

	"recstep/internal/datalog/ast"
)

// AuxSuffix ends the name of every auxiliary predicate rule splitting adds;
// the engine rejects it in a program's own predicate names.
const AuxSuffix = "_maux"

// Split records one rule split: Rule is the rule before it, Aux the
// auxiliary predicate that took over two of its atoms and Head that
// predicate's head atom, e.g. "valueAlias_1_maux(x, w)".
type Split struct {
	Rule string
	Aux  string
	Head string
}

// String renders the split the way recstep -v prints it.
func (s Split) String() string { return s.Rule + " through " + s.Head }

// splitRules projects dead join variables away once. In a rule with three or
// more positive atoms and no aggregate head, two positive atoms that share a
// variable occurring nowhere else in the rule (no other atom, the head, a
// comparison or a negated atom) are a candidate pair: joined by themselves,
// their result only needs the pair's live variables. The rule becomes
// head :- aux(L), rest and aux(L) :- a, b, with L the pair's live variables
// in first-occurrence order, so every arm that joins the pair's result with
// the rest carries one column less, and semi-naive evaluation maintains aux
// incrementally like any IDB. A pair holding an atom outside the head's SCC
// (an EDB or a lower stratum) is preferred, else the first pair in body
// order; a pair with no live variable is skipped. Splitting repeats until no
// candidate remains. It returns nil when no rule splits.
func splitRules(res *Result) (*ast.Program, []Split) {
	taken := make(map[string]bool, len(res.Preds))
	for name := range res.Preds {
		taken[name] = true
	}
	// outside[pred] records, for each auxiliary predicate, whether it lies
	// outside its head's SCC: exactly when both atoms of its pair do.
	outside := make(map[string]bool)
	isOutside := func(pred, head string) bool {
		if o, ok := outside[pred]; ok {
			return o
		}
		pi := res.Preds[pred]
		return !pi.IsIDB || pi.Stratum != res.Preds[head].Stratum
	}
	count := make(map[string]int)
	var splits []Split
	var rules []ast.Rule
	for _, rule := range res.Program.Rules {
		var auxRules []ast.Rule
		for !rule.HasAggregate() {
			i, j, live, ok := pickPair(rule, func(pred string) bool { return isOutside(pred, rule.HeadPred) })
			if !ok {
				break
			}
			var aux string
			for aux == "" || taken[aux] {
				count[rule.HeadPred]++
				aux = fmt.Sprintf("%s_%d%s", rule.HeadPred, count[rule.HeadPred], AuxSuffix)
			}
			taken[aux] = true
			outside[aux] = isOutside(rule.Body[i].Pred, rule.HeadPred) && isOutside(rule.Body[j].Pred, rule.HeadPred)
			atom := ast.Atom{Pred: aux, Args: make([]ast.Term, len(live))}
			heads := make([]ast.HeadTerm, len(live))
			for k, v := range live {
				atom.Args[k] = ast.Term{Var: v}
				heads[k] = ast.HeadTerm{Expr: ast.Var{Name: v}}
			}
			auxRules = append(auxRules, ast.Rule{HeadPred: aux, HeadTerms: heads, Body: []ast.Atom{rule.Body[i], rule.Body[j]}})
			splits = append(splits, Split{Rule: rule.String(), Aux: aux, Head: atom.String()})
			body := []ast.Atom{atom}
			for k, a := range rule.Body {
				if k != i && k != j {
					body = append(body, a)
				}
			}
			rule.Body = body
		}
		rules = append(rules, rule)
		rules = append(rules, auxRules...)
	}
	if len(splits) == 0 {
		return nil, nil
	}
	return &ast.Program{Rules: rules, Facts: res.Program.Facts}, splits
}

// pickPair returns the body positions i < j of the pair rule splitting takes
// from rule and the pair's live variables, or ok = false when the rule has no
// candidate pair. outside reports whether a predicate lies outside the head's
// SCC.
func pickPair(rule ast.Rule, outside func(pred string) bool) (i, j int, live []string, ok bool) {
	var first [2]int
	var positive []int
	for k, a := range rule.Body {
		if !a.Negated {
			positive = append(positive, k)
		}
	}
	if len(positive) < 3 {
		return 0, 0, nil, false
	}
	// Where each variable occurs: the positive atoms holding it, and whether
	// anything else (head, comparison, negated atom) reads it.
	atoms := make(map[string][]int)
	elsewhere := make(map[string]bool)
	for _, k := range positive {
		for _, t := range rule.Body[k].Args {
			if t.IsConst || t.IsWild || slices.Contains(atoms[t.Var], k) {
				continue
			}
			atoms[t.Var] = append(atoms[t.Var], k)
		}
	}
	mark := func(vars []string) {
		for _, v := range vars {
			elsewhere[v] = true
		}
	}
	for _, h := range rule.HeadTerms {
		mark(h.Expr.Vars(nil))
	}
	for _, c := range rule.Cmps {
		mark(c.R.Vars(c.L.Vars(nil)))
	}
	for _, a := range rule.Body {
		if a.Negated {
			for _, t := range a.Args {
				if !t.IsConst && !t.IsWild {
					elsewhere[t.Var] = true
				}
			}
		}
	}
	// dead reports whether atoms i < j share a variable nothing else reads.
	dead := func(i, j int) bool {
		for v, at := range atoms {
			if len(at) == 2 && at[0] == i && at[1] == j && !elsewhere[v] {
				return true
			}
		}
		return false
	}
	liveOf := func(i, j int) []string {
		var live []string
		for _, k := range []int{i, j} {
			for _, t := range rule.Body[k].Args {
				v := t.Var
				if t.IsConst || t.IsWild || slices.Contains(live, v) {
					continue
				}
				if elsewhere[v] || slices.ContainsFunc(atoms[v], func(a int) bool { return a != i && a != j }) {
					live = append(live, v)
				}
			}
		}
		return live
	}
	// Candidate pairs in body order: the first holding an atom outside the
	// head's SCC, else the first.
	for a, i := range positive {
		for _, j := range positive[a+1:] {
			if !dead(i, j) {
				continue
			}
			l := liveOf(i, j)
			if len(l) == 0 {
				continue
			}
			if !ok {
				first, live, ok = [2]int{i, j}, l, true
			}
			if outside(rule.Body[i].Pred) || outside(rule.Body[j].Pred) {
				return i, j, l, true
			}
		}
	}
	return first[0], first[1], live, ok
}
