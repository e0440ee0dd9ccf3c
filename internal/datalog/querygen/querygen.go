// Package querygen translates analyzed Datalog rules into the SQL the
// RecStep interpreter issues each iteration (Figure 1's query generator).
// It implements semi-naive delta rewriting — each occurrence of a
// same-stratum IDB atom yields one subquery evaluating that occurrence
// against the delta table — and the Unified IDB Evaluation (UIE)
// optimization: all subqueries targeting one IDB are emitted as a single
// INSERT … SELECT … UNION ALL … statement (Figure 4), with the individual
// per-subquery form kept for the ablation.
package querygen

import (
	"fmt"
	"sort"
	"strings"

	"recstep/internal/datalog/analysis"
	"recstep/internal/datalog/ast"
)

// Table-name suffixes, mirroring the paper's pointsTo_mDelta convention.
const (
	DeltaSuffix = "_mdelta"
	TmpSuffix   = "_mtmp"
)

// DeltaTable returns the delta-table name for a predicate.
func DeltaTable(pred string) string { return pred + DeltaSuffix }

// TmpTable returns the per-iteration temporary table name for a predicate.
func TmpTable(pred string) string { return pred + TmpSuffix }

// UnitQueries holds the SQL evaluating one IDB in one phase (init or
// recursive), in both UIE and individual form.
type UnitQueries struct {
	// Unified is the single UIE statement: INSERT INTO tmp SELECT … UNION
	// ALL SELECT …. Empty when the phase has no subqueries.
	Unified string
	// Parts are the individual statements (one INSERT per subquery) into
	// PartTables; Merge combines them into the tmp table. This is the
	// non-UIE evaluation of Figure 4.
	Parts      []string
	PartTables []string
	Merge      string
	// Subqueries counts the UNION ALL arms.
	Subqueries int
	// Subs are the raw SELECT arms, aligned with DeltaTables: arm i seeds
	// from delta table DeltaTables[i] ("" for init/full arms with no
	// seeding ∆). The interpreter uses them to skip arms whose ∆ relation
	// is empty before planning anything (see KeptArms).
	Subs        []string
	DeltaTables []string
}

// KeptArms returns, in order, the indices of the arms whose seeding delta
// table keep accepts (deltaTables is a unit's DeltaTables; arms with no
// seeding ∆ are always kept). The interpreter binds every arm of a unit once
// and runs only the kept ones, so an arm seeded by an empty ∆ relation is
// skipped without being planned.
func KeptArms(deltaTables []string, keep func(delta string) bool) []int {
	kept := make([]int, 0, len(deltaTables))
	for i, d := range deltaTables {
		if d == "" || keep(d) {
			kept = append(kept, i)
		}
	}
	return kept
}

// IDBQueries bundles everything the interpreter needs per IDB per stratum.
type IDBQueries struct {
	Pred  string
	Arity int
	Tmp   string
	Delta string
	// Init evaluates the non-recursive rules (fired once, iteration 1).
	Init UnitQueries
	// Rec evaluates the semi-naive delta subqueries (iterations ≥ 2).
	Rec UnitQueries
	// Full evaluates every rule against full relations — the naive
	// evaluation strategy (Section 3.2), kept as a baseline.
	Full UnitQueries
	// Agg is non-nil when the predicate aggregates.
	Agg *analysis.AggSpec
	// RecursiveAgg marks aggregation inside recursion.
	RecursiveAgg bool
}

// Generator compiles rules of one analyzed program.
type Generator struct {
	res *analysis.Result
}

// New creates a generator.
func New(res *analysis.Result) *Generator { return &Generator{res: res} }

// StratumQueries produces the queries for every IDB of a stratum, sorted by
// predicate name.
func (g *Generator) StratumQueries(s analysis.Stratum) ([]IDBQueries, error) {
	byPred := make(map[string]*IDBQueries)
	for _, name := range s.IDBs {
		pi := g.res.Preds[name]
		byPred[name] = &IDBQueries{
			Pred:         name,
			Arity:        pi.Arity,
			Tmp:          TmpTable(name),
			Delta:        DeltaTable(name),
			Agg:          pi.Agg,
			RecursiveAgg: pi.RecursiveAgg,
		}
	}
	type sub struct {
		sql   string
		init  bool
		delta string
	}
	subsOf := make(map[string][]sub)
	fullOf := make(map[string][]armSub)
	for _, ri := range s.RuleIdx {
		rule := g.res.Program.Rules[ri]
		full, err := g.subquery(rule, -1)
		if err != nil {
			return nil, err
		}
		fullOf[rule.HeadPred] = append(fullOf[rule.HeadPred], armSub{sql: full})
		recPositions := g.sameStratumPositions(rule, s.Index)
		if len(recPositions) == 0 {
			subsOf[rule.HeadPred] = append(subsOf[rule.HeadPred], sub{sql: full, init: true})
			continue
		}
		for _, pos := range recPositions {
			q, err := g.subquery(rule, pos)
			if err != nil {
				return nil, err
			}
			subsOf[rule.HeadPred] = append(subsOf[rule.HeadPred], sub{sql: q, delta: DeltaTable(rule.Body[pos].Pred)})
		}
	}
	var out []IDBQueries
	for _, name := range s.IDBs {
		iq := byPred[name]
		var initSubs, recSubs []armSub
		for _, sb := range subsOf[name] {
			if sb.init {
				initSubs = append(initSubs, armSub{sql: sb.sql})
			} else {
				recSubs = append(recSubs, armSub{sql: sb.sql, delta: sb.delta})
			}
		}
		iq.Init = assemble(iq.Tmp, initSubs)
		iq.Rec = assemble(iq.Tmp, recSubs)
		iq.Full = assemble(iq.Tmp, fullOf[name])
		out = append(out, *iq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pred < out[j].Pred })
	return out, nil
}

// armSub is one UNION ALL arm: its SELECT plus the delta table it seeds from
// ("" for arms evaluating full relations only).
type armSub struct {
	sql   string
	delta string
}

// assemble builds the UIE and individual forms from a list of subqueries.
func assemble(tmp string, subs []armSub) UnitQueries {
	if len(subs) == 0 {
		return UnitQueries{}
	}
	u := UnitQueries{Subqueries: len(subs)}
	var arms []string
	for _, s := range subs {
		arms = append(arms, s.sql)
		u.Subs = append(u.Subs, s.sql)
		u.DeltaTables = append(u.DeltaTables, s.delta)
	}
	u.Unified = fmt.Sprintf("INSERT INTO %s %s", tmp, strings.Join(arms, " UNION ALL "))
	var mergeArms []string
	for i, s := range subs {
		part := fmt.Sprintf("%s_%d", tmp, i)
		u.PartTables = append(u.PartTables, part)
		u.Parts = append(u.Parts, fmt.Sprintf("INSERT INTO %s %s", part, s.sql))
		mergeArms = append(mergeArms, "SELECT * FROM "+part)
	}
	u.Merge = fmt.Sprintf("INSERT INTO %s %s", tmp, strings.Join(mergeArms, " UNION ALL "))
	return u
}

// sameStratumPositions returns the indices of positive body atoms whose
// predicate belongs to the rule's stratum.
func (g *Generator) sameStratumPositions(rule ast.Rule, stratum int) []int {
	var out []int
	for i, a := range rule.Body {
		if a.Negated {
			continue
		}
		if pi, ok := g.res.Preds[a.Pred]; ok && pi.IsIDB && pi.Stratum == stratum {
			out = append(out, i)
		}
	}
	return out
}

// subquery renders one SELECT for a rule. deltaPos ≥ 0 substitutes the delta
// table for that body-atom occurrence (semi-naive rewriting); -1 uses full
// relations throughout.
func (g *Generator) subquery(rule ast.Rule, deltaPos int) (string, error) {
	var overrides map[int]string
	if deltaPos >= 0 {
		overrides = map[int]string{deltaPos: DeltaTable(rule.Body[deltaPos].Pred)}
	}
	return g.subqueryWith(rule, overrides)
}

// subqueryWith is the general arm renderer behind both the semi-naive
// rewriting and the incremental-update queries: overrides substitutes a side
// table for any body-atom occurrence (position → table name).
func (g *Generator) subqueryWith(rule ast.Rule, overrides map[int]string) (string, error) {
	binding := make(map[string]string) // variable → alias.column
	var from, where []string
	aliasNum := 0
	for i, a := range rule.Body {
		if a.Negated {
			continue
		}
		alias := fmt.Sprintf("t%d", aliasNum)
		aliasNum++
		table := a.Pred
		if t, ok := overrides[i]; ok {
			table = t
		}
		from = append(from, fmt.Sprintf("%s AS %s", table, alias))
		for j, term := range a.Args {
			col := fmt.Sprintf("%s.c%d", alias, j)
			switch {
			case term.IsWild:
			case term.IsConst:
				where = append(where, fmt.Sprintf("%s = %d", col, term.Const))
			default:
				if prev, ok := binding[term.Var]; ok {
					where = append(where, fmt.Sprintf("%s = %s", col, prev))
				} else {
					binding[term.Var] = col
				}
			}
		}
	}
	if len(from) == 0 {
		return "", fmt.Errorf("querygen: rule for %q has no positive body atoms", rule.HeadPred)
	}
	for _, c := range rule.Cmps {
		l, err := renderExpr(c.L, binding)
		if err != nil {
			return "", err
		}
		r, err := renderExpr(c.R, binding)
		if err != nil {
			return "", err
		}
		where = append(where, fmt.Sprintf("%s %s %s", l, sqlOp(c.Op), r))
	}
	negIdx := 0
	for _, a := range rule.Body {
		if !a.Negated {
			continue
		}
		ne, err := renderNotExists(a, binding, negIdx)
		if err != nil {
			return "", err
		}
		where = append(where, ne)
		negIdx++
	}

	var selects []string
	var groupBy []string
	hasAgg := rule.HasAggregate()
	for pos, h := range rule.HeadTerms {
		e, err := renderExpr(h.Expr, binding)
		if err != nil {
			return "", err
		}
		if h.Agg != "" {
			selects = append(selects, fmt.Sprintf("%s(%s) AS c%d", h.Agg, e, pos))
			continue
		}
		if hasAgg {
			// Group terms must be plain variables so GROUP BY references a
			// column, as QuickStep requires.
			if _, ok := h.Expr.(ast.Var); !ok {
				return "", fmt.Errorf("querygen: aggregate rule for %q: grouping term %q must be a plain variable", rule.HeadPred, h.Expr)
			}
			groupBy = append(groupBy, e)
		}
		selects = append(selects, fmt.Sprintf("%s AS c%d", e, pos))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM %s", strings.Join(selects, ", "), strings.Join(from, ", "))
	if len(where) > 0 {
		fmt.Fprintf(&b, " WHERE %s", strings.Join(where, " AND "))
	}
	if len(groupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(groupBy, ", "))
	}
	return b.String(), nil
}

func renderNotExists(a ast.Atom, binding map[string]string, idx int) (string, error) {
	alias := fmt.Sprintf("n%d", idx)
	var conds []string
	for j, term := range a.Args {
		col := fmt.Sprintf("%s.c%d", alias, j)
		switch {
		case term.IsWild:
		case term.IsConst:
			conds = append(conds, fmt.Sprintf("%s = %d", col, term.Const))
		default:
			bound, ok := binding[term.Var]
			if !ok {
				return "", fmt.Errorf("querygen: unbound variable %q in negated atom %s", term.Var, a.Pred)
			}
			conds = append(conds, fmt.Sprintf("%s = %s", col, bound))
		}
	}
	if len(conds) == 0 {
		return "", fmt.Errorf("querygen: negated atom %s constrains nothing", a.Pred)
	}
	return fmt.Sprintf("NOT EXISTS (SELECT * FROM %s AS %s WHERE %s)",
		a.Pred, alias, strings.Join(conds, " AND ")), nil
}

func renderExpr(e ast.Expr, binding map[string]string) (string, error) {
	switch v := e.(type) {
	case ast.Num:
		return fmt.Sprintf("%d", v.Value), nil
	case ast.Var:
		col, ok := binding[v.Name]
		if !ok {
			return "", fmt.Errorf("querygen: unbound variable %q", v.Name)
		}
		return col, nil
	case ast.Bin:
		l, err := renderExpr(v.L, binding)
		if err != nil {
			return "", err
		}
		r, err := renderExpr(v.R, binding)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s %c %s)", l, v.Op, r), nil
	}
	return "", fmt.Errorf("querygen: unhandled expression %T", e)
}

func sqlOp(op ast.CmpOp) string {
	if op == ast.OpNE {
		return "<>"
	}
	return string(op)
}
