// Package plan defines the bound query representation produced by the SQL
// binder and executed by the database facade. A Query is a UNION ALL of
// branches; each branch carries an order-free join body (BodyRep: equi-join
// edges and residual predicates in declaration-order coordinates) with
// pushed-down single-table filters, optional anti-joins (from NOT EXISTS,
// i.e. stratified negation), optional grouped aggregation, and a final
// projection. OrderSteps linearizes a branch into concrete JoinSteps for
// whatever join order the optimizer picks; Cyclic detects the cyclic bodies
// the executor may route to the leapfrog WCOJ instead. The binder seals each
// branch (Seal): what planning reads of it is derived once, and each join
// order it runs under is compiled once (Compile).
package plan

import (
	"slices"
	"strconv"
	"sync"

	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/expr"
)

// Query is one SELECT statement after binding: a UNION ALL of branches, all
// with the same output arity.
type Query struct {
	Branches []*Branch
	// OutCols names the output columns (taken from the first branch's
	// select-list aliases).
	OutCols []string
}

// Branch is one UNION ALL arm.
type Branch struct {
	// Arm is the branch's stable id: the binder numbers a statement's
	// branches by position, and a caller that runs subsets of them may
	// renumber. It names the branch's plan choice, so skipping one branch
	// never shifts another onto its record.
	Arm int

	// Tables lists the FROM items in declaration order; Offsets[i] is the
	// starting column of table i in the combined row.
	Tables  []string
	Offsets []int
	Arities []int

	// PreFilter holds single-table predicates pushed below the joins,
	// expressed over that table's own row (indices 0..arity-1).
	PreFilter map[int][]expr.Cmp

	// Body is the order-free join structure of the branch: equi-join edges
	// between table columns and multi-table residual predicates, both in
	// declaration-order coordinates. The executor compiles it into concrete
	// JoinSteps for whatever join order the optimizer picks (OrderSteps).
	Body BodyRep

	// AntiJoins are applied after all positive joins, in order.
	AntiJoins []AntiJoinStep

	// Projs is the select list over the final combined row. When Aggs is
	// non-empty, Projs is unused and GroupBy/Aggs/SelectOrder drive output.
	Projs []expr.Expr

	// GroupBy holds combined-row column indices; Aggs the aggregate specs.
	GroupBy []int
	Aggs    []exec.AggSpec
	// SelectOrder maps each select-list position to either a group column
	// (IsAgg=false, Index into GroupBy) or an aggregate (IsAgg=true, Index
	// into Aggs), so output column order follows the SQL text.
	SelectOrder []SelectOut

	// sealed is what Seal derived from the fields above; nil on a branch
	// built by hand, which plans from scratch every time it runs.
	sealed *sealed
}

// SelectOut maps one select-list position to its source in an aggregate
// query: a GROUP BY column (IsAgg=false) or an aggregate (IsAgg=true).
type SelectOut struct {
	IsAgg bool
	Index int
}

// BodyRep is the order-free representation of a branch's join structure.
// The binder emits it instead of baking the textual FROM order into key
// offsets; OrderSteps compiles it into a concrete left-deep chain for any
// permutation of the tables.
type BodyRep struct {
	// Edges are the column-equality constraints between distinct tables
	// (the equi-join keys), in table-local coordinates.
	Edges []EquiEdge
	// Residuals are the remaining multi-table predicates, in
	// declaration-order combined coordinates.
	Residuals []ResidualPred
}

// EquiEdge equates column LCol of table LTab with column RCol of table RTab
// (table-local column indices, LTab < RTab).
type EquiEdge struct {
	LTab, LCol, RTab, RCol int
}

// ResidualPred is a non-equi (or non-column) predicate spanning several
// tables. Cmp is expressed over the declaration-order combined row; Tables
// lists the FROM indexes it reads, ascending.
type ResidualPred struct {
	Cmp    expr.Cmp
	Tables []int
}

// JoinStep describes one binary join of the running prefix with the next
// table.
type JoinStep struct {
	// Right is the FROM index (into Branch.Tables) of the table this step
	// joins onto the running prefix.
	Right int
	// LeftKeys index into the combined prefix row; RightKeys into the new
	// table's row. Empty keys produce a cross product.
	LeftKeys, RightKeys []int
	// Residual predicates over the (prefix ++ new table) combined row.
	Residual []expr.Cmp
}

// Ordered is a branch's join chain compiled for one specific table order.
type Ordered struct {
	// Order is a permutation of the FROM indexes; Order[0] is the seed.
	Order []int
	// Steps has len(Order)-1 entries; Steps[i] joins the prefix of
	// Order[0..i] with Order[i+1], with offsets resolved for this order.
	Steps []JoinStep
	// ColMap maps declaration-order combined column indices to this
	// order's combined coordinates (for projections, group-bys, anti-join
	// outer keys and any expression bound in declaration coordinates).
	ColMap []int
}

// VarClasses unions the branch's equi-edges into variable classes and
// returns, for each declaration-order combined column, its class
// representative (an arbitrary but stable column index in the class). A
// sealed branch returns the slice Seal computed: callers must not modify it.
func (br *Branch) VarClasses() []int {
	if br.sealed != nil {
		return br.sealed.shape.classes
	}
	return br.varClasses()
}

func (br *Branch) varClasses() []int {
	total := 0
	for _, a := range br.Arities {
		total += a
	}
	parent := make([]int, total)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range br.Body.Edges {
		a := find(br.Offsets[e.LTab] + e.LCol)
		b := find(br.Offsets[e.RTab] + e.RCol)
		if a != b {
			parent[b] = a
		}
	}
	out := make([]int, total)
	for i := range out {
		out[i] = find(i)
	}
	return out
}

// Cyclic reports whether the branch's join graph is cyclic in the
// hypergraph sense: treating each variable class as a hyperedge over the
// tables it touches, some class reconnects tables already connected through
// other classes. A star (many atoms sharing one variable) is acyclic; a
// triangle is cyclic.
func Cyclic(br *Branch) bool { return br.Shape().Cyclic }

func cyclic(br *Branch, classes []int) bool {
	n := len(br.Tables)
	if n < 3 {
		return false
	}
	tablesByClass := map[int][]int{}
	for t := 0; t < n; t++ {
		for c := 0; c < br.Arities[t]; c++ {
			k := classes[br.Offsets[t]+c]
			ts := tablesByClass[k]
			if len(ts) == 0 || ts[len(ts)-1] != t {
				tablesByClass[k] = append(ts, t)
			}
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Deterministic class iteration order keeps the (boolean) answer
	// stable; iterate columns, visiting each class once.
	seen := map[int]bool{}
	for abs := range classes {
		k := classes[abs]
		if seen[k] {
			continue
		}
		seen[k] = true
		ts := tablesByClass[k]
		for i := 1; i < len(ts); i++ {
			a, b := find(ts[0]), find(ts[i])
			if a == b {
				return true
			}
			parent[b] = a
		}
	}
	return false
}

// OrderSteps compiles the branch's body into a concrete left-deep join
// chain for the given table order. Keys are derived from variable classes
// with a "placed representative" per class: when a table is placed, each of
// its columns whose class already has a placed member equates against that
// member's position, which enforces all (including transitive) equalities
// exactly once. Residual predicates attach to the earliest step at which
// every table they read is placed.
func OrderSteps(br *Branch, order []int) Ordered {
	n := len(br.Tables)
	classes := br.VarClasses()
	total := len(classes)
	colMap := make([]int, total)
	newOff := make([]int, n)
	pos := make([]int, n)
	off := 0
	for p, t := range order {
		pos[t] = p
		newOff[t] = off
		off += br.Arities[t]
	}
	for t := 0; t < n; t++ {
		for c := 0; c < br.Arities[t]; c++ {
			colMap[br.Offsets[t]+c] = newOff[t] + c
		}
	}
	ord := Ordered{Order: order, ColMap: colMap}
	if n > 1 {
		ord.Steps = make([]JoinStep, n-1)
	}
	eq := func(a, b int) expr.Cmp {
		return expr.Cmp{Op: expr.EQ, L: expr.Col{Index: a}, R: expr.Col{Index: b}}
	}
	rep := map[int]int{} // class -> declaration-abs index of placed member
	tableOf := func(abs int) int {
		t := n - 1
		for ; t > 0 && abs < br.Offsets[t]; t-- {
		}
		return t
	}
	for p, t := range order {
		step := p - 1
		if step >= 0 {
			ord.Steps[step].Right = t
		}
		for c := 0; c < br.Arities[t]; c++ {
			abs := br.Offsets[t] + c
			k := classes[abs]
			r, ok := rep[k]
			if !ok {
				rep[k] = abs
				continue
			}
			switch {
			case step < 0:
				// Two seed columns in one class (only possible via a
				// transitive path through a later table): enforce on the
				// first join step's combined row.
				ord.Steps[0].Residual = append(ord.Steps[0].Residual, eq(colMap[r], colMap[abs]))
			case tableOf(r) == t:
				// Both ends live in the table being placed; hash keys must
				// reference the prefix, so keep it as a step residual.
				ord.Steps[step].Residual = append(ord.Steps[step].Residual, eq(colMap[r], colMap[abs]))
			default:
				ord.Steps[step].LeftKeys = append(ord.Steps[step].LeftKeys, colMap[r])
				ord.Steps[step].RightKeys = append(ord.Steps[step].RightKeys, c)
			}
		}
	}
	for _, res := range br.Body.Residuals {
		last := 0
		for _, t := range res.Tables {
			if pos[t] > last {
				last = pos[t]
			}
		}
		step := last - 1
		if step < 0 {
			step = 0
		}
		remapped := expr.RemapCmp(res.Cmp, func(i int) int { return colMap[i] })
		ord.Steps[step].Residual = append(ord.Steps[step].Residual, remapped)
	}
	return ord
}

// IdentityOrder returns the textual FROM order 0..n-1.
func IdentityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Shape is what planning reads of a branch's join body and no iteration
// changes: its variable classes, which classes each atom touches, and whether
// the body is cyclic.
type Shape struct {
	// Cyclic is whether the join graph is cyclic (see Cyclic).
	Cyclic bool
	// Width is the combined row's width, the sum of the atoms' arities.
	Width   int
	classes []int
	// words is the length of one atom's class set in sets; bit k of atom t's
	// set is whether t has a column whose class representative is k.
	words int
	sets  []uint64
}

func newShape(br *Branch) Shape {
	classes := br.varClasses()
	words := (len(classes) + 63) / 64
	sh := Shape{Cyclic: cyclic(br, classes), Width: len(classes), classes: classes, words: words,
		sets: make([]uint64, len(br.Tables)*words)}
	for t := range br.Tables {
		set := sh.ClassSet(t)
		for c := 0; c < br.Arities[t]; c++ {
			k := classes[br.Offsets[t]+c]
			set[k/64] |= 1 << (k % 64)
		}
	}
	return sh
}

// ClassSet is atom t's set of variable classes as a bitset; every atom's has
// the same length.
func (sh *Shape) ClassSet(t int) []uint64 { return sh.sets[t*sh.words : (t+1)*sh.words] }

// Shape returns the branch's shape: the one Seal derived, or a fresh one for
// a branch built by hand.
func (br *Branch) Shape() *Shape {
	if br.sealed != nil {
		return &br.sealed.shape
	}
	sh := newShape(br)
	return &sh
}

// Compiled is a branch's plan for one join order: the chain, plus everything
// the executor derives from the order — the select list, group-by, aggregate
// arguments and anti-join outer keys remapped into the order's coordinates,
// and the tables' names in execution order.
type Compiled struct {
	Ordered
	Projs     []expr.Expr
	GroupBy   []int
	Aggs      []exec.AggSpec
	AntiOuter [][]int
	// OrderNames are the tables in execution order.
	OrderNames []string
}

func compile(br *Branch, order []int) *Compiled {
	c := &Compiled{Ordered: OrderSteps(br, order)}
	remap := func(i int) int { return c.ColMap[i] }
	c.Projs = make([]expr.Expr, len(br.Projs))
	for i, p := range br.Projs {
		c.Projs[i] = expr.Remap(p, remap)
	}
	c.GroupBy = make([]int, len(br.GroupBy))
	for i, g := range br.GroupBy {
		c.GroupBy[i] = c.ColMap[g]
	}
	c.Aggs = make([]exec.AggSpec, len(br.Aggs))
	for i, a := range br.Aggs {
		c.Aggs[i] = exec.AggSpec{Func: a.Func, Arg: expr.Remap(a.Arg, remap)}
	}
	c.AntiOuter = make([][]int, len(br.AntiJoins))
	for i, aj := range br.AntiJoins {
		c.AntiOuter[i] = make([]int, len(aj.OuterKeys))
		for j, k := range aj.OuterKeys {
			c.AntiOuter[i][j] = c.ColMap[k]
		}
	}
	c.OrderNames = make([]string, len(order))
	for i, t := range order {
		c.OrderNames[i] = br.Tables[t]
	}
	return c
}

// Names are the names one run of a branch gives what it materializes.
type Names struct {
	query string
	arm   int
	// Branch names the branch's result: "<query>_b<Arm>".
	Branch string
	// Steps[i] names join step i's output: "<Branch>_j<i>".
	Steps []string
}

func newNames(br *Branch, query string) *Names {
	nm := &Names{query: query, arm: br.Arm, Branch: query + "_b" + strconv.Itoa(br.Arm)}
	if len(br.Tables) > 1 {
		nm.Steps = make([]string, len(br.Tables)-1)
		for i := range nm.Steps {
			nm.Steps[i] = nm.Branch + "_j" + strconv.Itoa(i)
		}
	}
	return nm
}

// sealed is what Seal attaches to a branch. The shape is fixed at Seal; the
// compiled orders and the names are filled as the branch runs, under mu, and
// nothing stored is modified afterwards.
type sealed struct {
	shape Shape
	mu    sync.Mutex
	// plans holds one compiled plan per distinct join order run so far; a
	// branch has at most n! orders and in practice one or two.
	plans []*Compiled
	// names are the names of the latest query name run under: a statement
	// always inserts into the same table.
	names *Names
}

// Seal derives what planning reads of the branch once, and gives it the memo
// Compile and Names fill. The binder seals every branch it binds; nothing may
// change a branch's join body, select list or aggregates after Seal.
func (br *Branch) Seal() { br.sealed = &sealed{shape: newShape(br)} }

// Compile returns the branch's plan for a join order. A sealed branch
// compiles each order once and returns the same read-only plan for it
// afterwards; the plan equals compiling afresh, since it is a function of the
// sealed branch and the order alone.
func (br *Branch) Compile(order []int) *Compiled {
	s := br.sealed
	if s == nil {
		return compile(br, order)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.plans {
		if slices.Equal(c.Order, order) {
			return c
		}
	}
	c := compile(br, slices.Clone(order))
	s.plans = append(s.plans, c)
	return c
}

// Names returns the branch's output names under query name query. A sealed
// branch keeps the latest names it made.
func (br *Branch) Names(query string) *Names {
	s := br.sealed
	if s == nil {
		return newNames(br, query)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.names == nil || s.names.query != query || s.names.arm != br.Arm {
		s.names = newNames(br, query)
	}
	return s.names
}

// AntiJoinStep removes combined rows that have a match in Table (the bound
// form of NOT EXISTS).
type AntiJoinStep struct {
	Table string
	// OuterKeys index the combined row; InnerKeys the inner table's row.
	OuterKeys, InnerKeys []int
	// InnerPreFilter restricts the inner table before the existence check
	// (constant predicates inside the subquery).
	InnerPreFilter []expr.Cmp
}

// Statement is the bound form of any SQL statement.
type Statement interface{ stmt() }

// CreateTable creates an empty table.
type CreateTable struct {
	Name string
	Cols []string
}

// DropTable removes a table.
type DropTable struct {
	Name     string
	IfExists bool
}

// InsertValues appends literal tuples.
type InsertValues struct {
	Table  string
	Tuples [][]int32
}

// InsertSelect appends a query result (bag semantics — UNION ALL append, no
// implicit dedup, exactly as RecStep requires).
type InsertSelect struct {
	Table string
	Query *Query
}

// SelectStmt evaluates a query and returns its result relation.
type SelectStmt struct {
	Query *Query
}

func (CreateTable) stmt()  {}
func (DropTable) stmt()    {}
func (InsertValues) stmt() {}
func (InsertSelect) stmt() {}
func (SelectStmt) stmt()   {}
