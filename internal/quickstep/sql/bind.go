package sql

import (
	"fmt"
	"sort"

	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/plan"
)

// SchemaFn resolves a table name to its column names.
type SchemaFn func(table string) ([]string, bool)

// Parse parses and binds a single SQL statement against the given schema.
func Parse(src string, schema SchemaFn) (plan.Statement, error) {
	st, err := parseStatement(src)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *astCreate:
		return plan.CreateTable{Name: s.name, Cols: s.cols}, nil
	case *astDrop:
		return plan.DropTable{Name: s.name, IfExists: s.ifExists}, nil
	case *astInsert:
		if s.sel == nil {
			return plan.InsertValues{Table: s.table, Tuples: s.tuples}, nil
		}
		q, err := bindQuery(s.sel, schema)
		if err != nil {
			return nil, err
		}
		return plan.InsertSelect{Table: s.table, Query: q}, nil
	case *astSelect:
		q, err := bindQuery(s, schema)
		if err != nil {
			return nil, err
		}
		return plan.SelectStmt{Query: q}, nil
	}
	return nil, fmt.Errorf("sql: unhandled statement type %T", st)
}

// SplitScript splits a multi-statement script on semicolons, dropping blank
// segments. Binding happens per statement so earlier DDL is visible to later
// statements.
func SplitScript(src string) []string {
	return splitStatements(src)
}

func bindQuery(sel *astSelect, schema SchemaFn) (*plan.Query, error) {
	q := &plan.Query{}
	for s := sel; s != nil; s = s.union {
		br, outCols, err := bindBranch(s, schema)
		if err != nil {
			return nil, err
		}
		if len(q.Branches) == 0 {
			q.OutCols = outCols
		} else if branchArity(q.Branches[0]) != branchArity(br) {
			return nil, fmt.Errorf("sql: UNION ALL branches have different arities (%d vs %d)",
				branchArity(q.Branches[0]), branchArity(br))
		}
		br.Arm = len(q.Branches)
		br.Seal()
		q.Branches = append(q.Branches, br)
	}
	return q, nil
}

func branchArity(b *plan.Branch) int {
	if len(b.Aggs) > 0 {
		return len(b.SelectOrder)
	}
	return len(b.Projs)
}

// binder carries the alias context of one SELECT branch.
type binder struct {
	schema  SchemaFn
	aliases []astFrom
	cols    [][]string
	offsets []int
	byName  map[string]int
}

func newBinder(schema SchemaFn, from []astFrom) (*binder, error) {
	b := &binder{schema: schema, byName: make(map[string]int)}
	off := 0
	for _, f := range from {
		cols, ok := schema(f.table)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", f.table)
		}
		if _, dup := b.byName[f.alias]; dup {
			return nil, fmt.Errorf("sql: duplicate alias %q", f.alias)
		}
		b.byName[f.alias] = len(b.aliases)
		b.aliases = append(b.aliases, f)
		b.cols = append(b.cols, cols)
		b.offsets = append(b.offsets, off)
		off += len(cols)
	}
	return b, nil
}

func (b *binder) width() int {
	last := len(b.aliases) - 1
	return b.offsets[last] + len(b.cols[last])
}

// tableOf maps an absolute column index back to its FROM table index.
func (b *binder) tableOf(abs int) int {
	for i := len(b.offsets) - 1; i >= 0; i-- {
		if abs >= b.offsets[i] {
			return i
		}
	}
	return 0
}

func (b *binder) resolveCol(c *astCol) (int, error) {
	if c.tbl != "" {
		ti, ok := b.byName[c.tbl]
		if !ok {
			return 0, fmt.Errorf("sql: unknown alias %q", c.tbl)
		}
		for j, name := range b.cols[ti] {
			if name == c.col {
				return b.offsets[ti] + j, nil
			}
		}
		return 0, fmt.Errorf("sql: table %q has no column %q", c.tbl, c.col)
	}
	found := -1
	for ti, cols := range b.cols {
		for j, name := range cols {
			if name == c.col {
				if found >= 0 {
					return 0, fmt.Errorf("sql: ambiguous column %q", c.col)
				}
				found = b.offsets[ti] + j
			}
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", c.col)
	}
	return found, nil
}

// bindExpr converts an AST expression (no aggregates) to an executable one.
func (b *binder) bindExpr(e astExpr) (expr.Expr, error) {
	switch v := e.(type) {
	case *astInt:
		return expr.Lit{Value: v.v}, nil
	case *astCol:
		idx, err := b.resolveCol(v)
		if err != nil {
			return nil, err
		}
		name := v.col
		if v.tbl != "" {
			name = v.tbl + "." + v.col
		}
		return expr.Col{Index: idx, Name: name}, nil
	case *astBin:
		l, err := b.bindExpr(v.l)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(v.r)
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: v.op, L: l, R: r}, nil
	case *astAgg:
		return nil, fmt.Errorf("sql: aggregate not allowed here")
	}
	return nil, fmt.Errorf("sql: unhandled expression %T", e)
}

// tablesIn returns the set of FROM tables an expression touches.
func (b *binder) tablesIn(e expr.Expr) map[int]bool {
	out := make(map[int]bool)
	for _, c := range expr.Columns(e) {
		out[b.tableOf(c)] = true
	}
	return out
}

func bindBranch(s *astSelect, schema SchemaFn) (*plan.Branch, []string, error) {
	b, err := newBinder(schema, s.from)
	if err != nil {
		return nil, nil, err
	}
	br := &plan.Branch{
		PreFilter: make(map[int][]expr.Cmp),
	}
	for i, f := range s.from {
		br.Tables = append(br.Tables, f.table)
		br.Offsets = append(br.Offsets, b.offsets[i])
		br.Arities = append(br.Arities, len(b.cols[i]))
	}

	// Classify WHERE predicates.
	for _, p := range s.where {
		switch v := p.(type) {
		case *astCmp:
			if err := classifyCmp(b, br, v); err != nil {
				return nil, nil, err
			}
		case *astNotExists:
			aj, err := bindNotExists(b, v, schema)
			if err != nil {
				return nil, nil, err
			}
			br.AntiJoins = append(br.AntiJoins, aj)
		default:
			return nil, nil, fmt.Errorf("sql: unhandled predicate %T", p)
		}
	}

	// Select list: aggregate or plain.
	hasAgg := false
	for _, it := range s.items {
		if _, ok := it.e.(*astAgg); ok {
			hasAgg = true
			break
		}
	}
	var outCols []string
	if hasAgg {
		outCols, err = bindAggregates(b, br, s)
	} else {
		if len(s.groupBy) > 0 {
			return nil, nil, fmt.Errorf("sql: GROUP BY without aggregates is not supported")
		}
		outCols, err = bindPlainProjs(b, br, s)
	}
	if err != nil {
		return nil, nil, err
	}
	return br, outCols, nil
}

func classifyCmp(b *binder, br *plan.Branch, v *astCmp) error {
	l, err := b.bindExpr(v.l)
	if err != nil {
		return err
	}
	r, err := b.bindExpr(v.r)
	if err != nil {
		return err
	}
	cmp := expr.Cmp{Op: v.op, L: l, R: r}
	tabs := b.tablesIn(l)
	for t := range b.tablesIn(r) {
		tabs[t] = true
	}
	switch len(tabs) {
	case 0:
		// Constant predicate: attach to the first table's prefilter.
		br.PreFilter[0] = append(br.PreFilter[0], cmp)
		return nil
	case 1:
		var t int
		for k := range tabs {
			t = k
		}
		br.PreFilter[t] = append(br.PreFilter[t], expr.ShiftCmp(cmp, -b.offsets[t]))
		return nil
	}
	// Equi-join edge: bare column = bare column across two distinct tables.
	// Everything else multi-table becomes an order-free residual; the
	// executor attaches it to the earliest step covering its tables.
	lc, lok := l.(expr.Col)
	rc, rok := r.(expr.Col)
	if v.op == expr.EQ && lok && rok {
		lt, rt := b.tableOf(lc.Index), b.tableOf(rc.Index)
		if lt != rt {
			e := plan.EquiEdge{
				LTab: lt, LCol: lc.Index - b.offsets[lt],
				RTab: rt, RCol: rc.Index - b.offsets[rt],
			}
			if e.LTab > e.RTab {
				e.LTab, e.LCol, e.RTab, e.RCol = e.RTab, e.RCol, e.LTab, e.LCol
			}
			br.Body.Edges = append(br.Body.Edges, e)
			return nil
		}
	}
	tlist := make([]int, 0, len(tabs))
	for t := range tabs {
		tlist = append(tlist, t)
	}
	sort.Ints(tlist)
	br.Body.Residuals = append(br.Body.Residuals, plan.ResidualPred{Cmp: cmp, Tables: tlist})
	return nil
}

// bindNotExists binds NOT EXISTS (SELECT … FROM inner WHERE corr) to an
// anti-join step. Only conjunctions of simple comparisons are supported; the
// correlated ones must be equalities between an inner column and an outer
// column.
func bindNotExists(outer *binder, ne *astNotExists, schema SchemaFn) (plan.AntiJoinStep, error) {
	sub := ne.sel
	if len(sub.from) != 1 {
		return plan.AntiJoinStep{}, fmt.Errorf("sql: NOT EXISTS supports exactly one inner table, got %d", len(sub.from))
	}
	if sub.union != nil || len(sub.groupBy) != 0 {
		return plan.AntiJoinStep{}, fmt.Errorf("sql: NOT EXISTS subquery must be a simple SELECT")
	}
	inner := sub.from[0]
	// Extended binder: outer aliases plus the inner alias.
	extFrom := append(append([]astFrom(nil), outer.aliases...), inner)
	eb, err := newBinder(schema, extFrom)
	if err != nil {
		return plan.AntiJoinStep{}, err
	}
	innerIdx := len(extFrom) - 1
	innerOff := eb.offsets[innerIdx]
	aj := plan.AntiJoinStep{Table: inner.table}
	for _, p := range sub.where {
		v, ok := p.(*astCmp)
		if !ok {
			return plan.AntiJoinStep{}, fmt.Errorf("sql: NOT EXISTS supports only simple comparisons")
		}
		l, err := eb.bindExpr(v.l)
		if err != nil {
			return plan.AntiJoinStep{}, err
		}
		r, err := eb.bindExpr(v.r)
		if err != nil {
			return plan.AntiJoinStep{}, err
		}
		touchesInner, touchesOuter := false, false
		for _, e := range []expr.Expr{l, r} {
			for _, c := range expr.Columns(e) {
				if c >= innerOff {
					touchesInner = true
				} else {
					touchesOuter = true
				}
			}
		}
		switch {
		case touchesInner && !touchesOuter:
			// Inner-only predicate (including inner column vs constant).
			aj.InnerPreFilter = append(aj.InnerPreFilter, expr.ShiftCmp(expr.Cmp{Op: v.op, L: l, R: r}, -innerOff))
		case touchesInner && touchesOuter:
			if v.op != expr.EQ {
				return plan.AntiJoinStep{}, fmt.Errorf("sql: correlated NOT EXISTS predicate must be an equality")
			}
			ic, iok := l.(expr.Col)
			oc, ook := r.(expr.Col)
			if iok && ook && ic.Index < innerOff {
				ic, oc = oc, ic
			}
			if !iok || !ook || ic.Index < innerOff || oc.Index >= innerOff {
				return plan.AntiJoinStep{}, fmt.Errorf("sql: correlated NOT EXISTS predicate must compare an inner column with an outer column")
			}
			aj.OuterKeys = append(aj.OuterKeys, oc.Index)
			aj.InnerKeys = append(aj.InnerKeys, ic.Index-innerOff)
		case touchesOuter:
			return plan.AntiJoinStep{}, fmt.Errorf("sql: NOT EXISTS predicate over outer tables only is not supported")
		default:
			// Pure constant predicate: harmless inner prefilter.
			aj.InnerPreFilter = append(aj.InnerPreFilter, expr.Cmp{Op: v.op, L: l, R: r})
		}
	}
	if len(aj.OuterKeys) == 0 {
		return plan.AntiJoinStep{}, fmt.Errorf("sql: NOT EXISTS requires at least one correlated equality")
	}
	return aj, nil
}

func bindPlainProjs(b *binder, br *plan.Branch, s *astSelect) ([]string, error) {
	var outCols []string
	for i, it := range s.items {
		if it.star {
			if len(s.items) != 1 {
				return nil, fmt.Errorf("sql: SELECT * cannot be mixed with other items")
			}
			for ti, cols := range b.cols {
				for j, name := range cols {
					br.Projs = append(br.Projs, expr.Col{Index: b.offsets[ti] + j, Name: name})
					outCols = append(outCols, name)
				}
			}
			return dedupNames(outCols), nil
		}
		e, err := b.bindExpr(it.e)
		if err != nil {
			return nil, err
		}
		br.Projs = append(br.Projs, e)
		outCols = append(outCols, itemName(it, e, i))
	}
	return dedupNames(outCols), nil
}

func bindAggregates(b *binder, br *plan.Branch, s *astSelect) ([]string, error) {
	// Bind GROUP BY columns first so select items can reference positions.
	for _, g := range s.groupBy {
		idx, err := b.resolveCol(&g)
		if err != nil {
			return nil, err
		}
		br.GroupBy = append(br.GroupBy, idx)
	}
	var outCols []string
	for i, it := range s.items {
		if it.star {
			return nil, fmt.Errorf("sql: SELECT * not allowed with aggregates")
		}
		if ag, ok := it.e.(*astAgg); ok {
			var arg expr.Expr = expr.Lit{Value: 1}
			if !ag.star {
				bound, err := b.bindExpr(ag.arg)
				if err != nil {
					return nil, err
				}
				arg = bound
			} else if ag.fn != exec.AggCount {
				return nil, fmt.Errorf("sql: %v(*) is not supported", ag.fn)
			}
			br.SelectOrder = append(br.SelectOrder, plan.SelectOut{IsAgg: true, Index: len(br.Aggs)})
			br.Aggs = append(br.Aggs, exec.AggSpec{Func: ag.fn, Arg: arg})
			outCols = append(outCols, itemName(it, nil, i))
			continue
		}
		c, ok := it.e.(*astCol)
		if !ok {
			return nil, fmt.Errorf("sql: non-aggregate select item must be a plain grouped column")
		}
		idx, err := b.resolveCol(c)
		if err != nil {
			return nil, err
		}
		pos := -1
		for gi, g := range br.GroupBy {
			if g == idx {
				pos = gi
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("sql: column %q is not in GROUP BY", c.col)
		}
		br.SelectOrder = append(br.SelectOrder, plan.SelectOut{IsAgg: false, Index: pos})
		outCols = append(outCols, itemName(it, expr.Col{Name: c.col}, i))
	}
	if len(br.Aggs) == 0 {
		return nil, fmt.Errorf("sql: GROUP BY without aggregates is not supported")
	}
	return dedupNames(outCols), nil
}

func itemName(it astItem, bound expr.Expr, pos int) string {
	if it.alias != "" {
		return it.alias
	}
	if c, ok := bound.(expr.Col); ok && c.Name != "" {
		// Use the bare column name (strip any alias qualifier).
		name := c.Name
		for i := len(name) - 1; i >= 0; i-- {
			if name[i] == '.' {
				return name[i+1:]
			}
		}
		return name
	}
	return fmt.Sprintf("c%d", pos)
}

// dedupNames renames duplicate output columns (a_1, a_2, …) so result
// relations always have distinct column names.
func dedupNames(names []string) []string {
	seen := make(map[string]int)
	out := make([]string, len(names))
	for i, n := range names {
		if c, ok := seen[n]; ok {
			seen[n] = c + 1
			out[i] = fmt.Sprintf("%s_%d", n, c)
		} else {
			seen[n] = 1
			out[i] = n
		}
	}
	return out
}
