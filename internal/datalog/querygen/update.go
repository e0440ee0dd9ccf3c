package querygen

import (
	"recstep/internal/datalog/analysis"
)

// Incremental-update query generation. ApplyDelta materializes one side
// table per changed predicate — its net insertions (plus) — and seeds a
// stratum whose inputs only gained tuples with injection arms: each rule
// occurrence of a plus-changed predicate evaluates once with the plus table
// substituted (subsequent rounds are the ordinary semi-naive Rec arms). A
// stratum that reads a predicate which lost tuples is recomputed from its
// inputs and diffed against a snapshot of its previous contents (prev).
const (
	PlusSuffix = "_uplus"
	PrevSuffix = "_uprev"
)

// UpdateSuffixes lists every incremental-update table suffix, for the
// engine's predicate-name collision check.
var UpdateSuffixes = []string{PlusSuffix, PrevSuffix}

// PlusTable names the net-insertions side table of one update.
func PlusTable(pred string) string { return pred + PlusSuffix }

// PrevTable names the pre-update snapshot a recomputed stratum diffs against.
func PrevTable(pred string) string { return pred + PrevSuffix }

// Changed records how a predicate changed in one update: Plus means its plus
// table holds net insertions, Minus that it lost tuples (a flag only — every
// stratum reading it is recomputed, so no table holds them).
type Changed struct {
	Minus bool
	Plus  bool
}

// InjectQueries builds the insertion phase's seed arms for one IDB: for
// every rule occurrence of a plus-changed predicate, one arm reading the
// plus table there and current (post-update) relations everywhere else.
// DeltaTables carries the plus-table names so empty-∆ arm skipping works.
func (g *Generator) InjectQueries(s analysis.Stratum, pred string, changed map[string]Changed) (UnitQueries, error) {
	var subs []armSub
	for _, ri := range s.RuleIdx {
		rule := g.res.Program.Rules[ri]
		if rule.HeadPred != pred {
			continue
		}
		for i, a := range rule.Body {
			if a.Negated || !changed[a.Pred].Plus {
				continue
			}
			sql, err := g.subqueryWith(rule, map[int]string{i: PlusTable(a.Pred)})
			if err != nil {
				return UnitQueries{}, err
			}
			subs = append(subs, armSub{sql: sql, delta: PlusTable(a.Pred)})
		}
	}
	return assemble(TmpTable(pred), subs), nil
}

// StratumNeedsFallback reports whether a stratum must be maintained by
// recompute-and-diff instead of the seeded semi-naive insertion path, given
// the predicates changed so far: any (recursive or stratified) aggregation
// in the stratum, any occurrence of a predicate that lost tuples, or a
// negated occurrence of a changed predicate — seeded semi-naive only ever
// adds tuples, and it has no sound delta rewriting for aggregation.
func StratumNeedsFallback(res *analysis.Result, s analysis.Stratum, changed map[string]Changed) bool {
	for _, name := range s.IDBs {
		pi := res.Preds[name]
		if pi.Agg != nil || pi.RecursiveAgg {
			return true
		}
	}
	for _, ri := range s.RuleIdx {
		for _, a := range res.Program.Rules[ri].Body {
			if c := changed[a.Pred]; c.Minus || (a.Negated && c.Plus) {
				return true
			}
		}
	}
	return false
}

// StratumReadsChanged reports whether any rule of the stratum references a
// changed predicate (positively or under negation); unaffected strata are
// skipped wholesale by ApplyDelta.
func StratumReadsChanged(res *analysis.Result, s analysis.Stratum, changed map[string]Changed) bool {
	for _, ri := range s.RuleIdx {
		for _, a := range res.Program.Rules[ri].Body {
			if c, ok := changed[a.Pred]; ok && (c.Minus || c.Plus) {
				return true
			}
		}
	}
	return false
}
