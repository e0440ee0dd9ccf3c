// Package analysis implements RecStep's rule analyzer (Figure 1): it
// classifies predicates into EDB and IDB, verifies rule safety, builds the
// dependency graph, computes strongly connected components and a
// stratification, validates stratified negation, and identifies recursive
// aggregates (which the engine evaluates with monotone aggregate merging).
// It also splits rule bodies of three or more atoms through auxiliary IDBs
// so that a join variable nothing else reads is projected away once (see
// splitRules); the query generator and the engine see the split program.
package analysis

import (
	"fmt"
	"sort"

	"recstep/internal/datalog/ast"
)

// AggSpec describes the aggregate signature of an IDB whose rules aggregate:
// the head position carrying the aggregate and the grouping positions.
type AggSpec struct {
	Func     string // MIN, MAX, SUM, COUNT, AVG
	Pos      int    // head position of the aggregate term
	GroupPos []int  // the remaining (plain) head positions
}

// PredInfo holds per-predicate facts derived by the analyzer.
type PredInfo struct {
	Name    string
	Arity   int
	IsIDB   bool
	Stratum int // -1 for EDB
	// Agg is non-nil when the predicate's rules aggregate.
	Agg *AggSpec
	// RecursiveAgg marks aggregation inside recursion (CC, SSSP): the
	// engine must use aggregate-merge instead of dedup + set difference.
	RecursiveAgg bool
	// Aux marks an auxiliary IDB added by rule splitting: evaluated like
	// any IDB, never part of a run's result.
	Aux bool
}

// Stratum groups the rules evaluated together in one fixpoint loop.
type Stratum struct {
	Index     int
	IDBs      []string // predicates defined here, sorted
	RuleIdx   []int    // indices into Program.Rules
	Recursive bool
}

// Result is the analyzer output consumed by the query generator and engine.
type Result struct {
	// Program is the program after rule splitting: the analyzed program
	// itself when no rule split.
	Program *ast.Program
	Preds   map[string]*PredInfo
	Strata  []Stratum
	// Splits lists the rule splits, in the order they were made.
	Splits []Split
}

// names returns the predicate names keep accepts, sorted.
func (r *Result) names(keep func(*PredInfo) bool) []string {
	var out []string
	for n, p := range r.Preds {
		if keep(p) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// IDBNames returns the program's IDB predicate names, sorted; the auxiliary
// predicates rule splitting added are left out (AllIDBNames has them).
func (r *Result) IDBNames() []string {
	return r.names(func(p *PredInfo) bool { return p.IsIDB && !p.Aux })
}

// AllIDBNames returns every IDB predicate name, auxiliary ones included,
// sorted: the relations an evaluation creates.
func (r *Result) AllIDBNames() []string {
	return r.names(func(p *PredInfo) bool { return p.IsIDB })
}

// EDBNames returns all EDB predicate names, sorted.
func (r *Result) EDBNames() []string {
	return r.names(func(p *PredInfo) bool { return !p.IsIDB })
}

// Analyze runs the full rule analysis, splits rule bodies where a join
// variable dies after two atoms, and analyzes the split program.
func Analyze(p *ast.Program) (*Result, error) {
	res, err := analyzeProgram(p)
	if err != nil {
		return nil, err
	}
	split, splits := splitRules(res)
	if splits == nil {
		return res, nil
	}
	if res, err = analyzeProgram(split); err != nil {
		return nil, err
	}
	for _, s := range splits {
		res.Preds[s.Aux].Aux = true
	}
	res.Splits = splits
	return res, nil
}

// analyzeProgram runs the rule analysis of one program as written.
func analyzeProgram(p *ast.Program) (*Result, error) {
	res := &Result{Program: p, Preds: make(map[string]*PredInfo)}
	if err := res.collectPreds(); err != nil {
		return nil, err
	}
	if err := res.checkSafety(); err != nil {
		return nil, err
	}
	if err := res.checkAggregates(); err != nil {
		return nil, err
	}
	if err := res.stratify(); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *Result) collectPreds() error {
	seen := func(name string, arity int, isHead bool) error {
		pi, ok := r.Preds[name]
		if !ok {
			pi = &PredInfo{Name: name, Arity: arity, Stratum: -1}
			r.Preds[name] = pi
		}
		if pi.Arity != arity {
			return fmt.Errorf("analysis: predicate %q used with arities %d and %d", name, pi.Arity, arity)
		}
		if isHead {
			pi.IsIDB = true
		}
		return nil
	}
	for _, rule := range r.Program.Rules {
		if err := seen(rule.HeadPred, len(rule.HeadTerms), true); err != nil {
			return err
		}
		for _, a := range rule.Body {
			if err := seen(a.Pred, len(a.Args), false); err != nil {
				return err
			}
		}
	}
	for pred, facts := range r.Program.Facts {
		for _, f := range facts {
			if err := seen(pred, len(f), false); err != nil {
				return err
			}
		}
	}
	if len(r.Program.Rules) == 0 {
		return fmt.Errorf("analysis: program has no rules")
	}
	return nil
}

// checkSafety verifies that every head variable, comparison variable and
// negated-atom variable is bound by a positive body atom.
func (r *Result) checkSafety() error {
	for ri, rule := range r.Program.Rules {
		bound := make(map[string]bool)
		for _, a := range rule.Body {
			if a.Negated {
				continue
			}
			for _, t := range a.Args {
				if t.Var != "" && !t.IsWild {
					bound[t.Var] = true
				}
			}
		}
		requireBound := func(e ast.Expr, what string) error {
			for _, v := range e.Vars(nil) {
				if !bound[v] {
					return fmt.Errorf("analysis: rule %d (%s): unsafe variable %q in %s", ri, rule.HeadPred, v, what)
				}
			}
			return nil
		}
		for _, h := range rule.HeadTerms {
			if err := requireBound(h.Expr, "head"); err != nil {
				return err
			}
		}
		for _, c := range rule.Cmps {
			if err := requireBound(c.L, "comparison"); err != nil {
				return err
			}
			if err := requireBound(c.R, "comparison"); err != nil {
				return err
			}
		}
		for _, a := range rule.Body {
			if !a.Negated {
				continue
			}
			for _, t := range a.Args {
				if t.Var != "" && !t.IsWild && !bound[t.Var] {
					return fmt.Errorf("analysis: rule %d (%s): unsafe variable %q in negated atom %s", ri, rule.HeadPred, t.Var, a.Pred)
				}
			}
		}
	}
	return nil
}

// checkAggregates validates aggregate usage: at most one aggregate term per
// head, and a consistent signature across all rules defining the predicate.
func (r *Result) checkAggregates() error {
	for ri, rule := range r.Program.Rules {
		var spec *AggSpec
		var groups []int
		count := 0
		for pos, h := range rule.HeadTerms {
			if h.Agg == "" {
				groups = append(groups, pos)
				continue
			}
			count++
			spec = &AggSpec{Func: h.Agg, Pos: pos}
		}
		if count > 1 {
			return fmt.Errorf("analysis: rule %d (%s): at most one aggregate per head", ri, rule.HeadPred)
		}
		pi := r.Preds[rule.HeadPred]
		if count == 1 {
			spec.GroupPos = groups
			if pi.Agg == nil {
				pi.Agg = spec
			} else if pi.Agg.Func != spec.Func || pi.Agg.Pos != spec.Pos {
				return fmt.Errorf("analysis: predicate %q has inconsistent aggregate signatures", rule.HeadPred)
			}
		}
	}
	// Every rule of an aggregating predicate must aggregate.
	for _, rule := range r.Program.Rules {
		pi := r.Preds[rule.HeadPred]
		if pi.Agg != nil && !rule.HasAggregate() {
			return fmt.Errorf("analysis: predicate %q mixes aggregate and plain rules", rule.HeadPred)
		}
	}
	return nil
}

// stratify builds the predicate dependency graph, condenses it with Tarjan's
// SCC algorithm, topologically orders the components, and checks that no
// negation occurs inside a cycle. Aggregation inside a cycle is permitted
// for the monotone MIN/MAX (recursive aggregation, Section 3.3); recursive
// SUM/COUNT/AVG are rejected since their fixpoint need not converge.
func (r *Result) stratify() error {
	idbs := r.AllIDBNames()
	index := make(map[string]int, len(idbs))
	for i, n := range idbs {
		index[n] = i
	}
	type edge struct {
		from, to int
		negated  bool
	}
	var edges []edge
	adj := make([][]int, len(idbs))
	for _, rule := range r.Program.Rules {
		h := index[rule.HeadPred]
		for _, a := range rule.Body {
			b, ok := index[a.Pred]
			if !ok {
				continue // EDB
			}
			edges = append(edges, edge{from: b, to: h, negated: a.Negated})
			adj[b] = append(adj[b], h)
		}
	}

	comp := tarjanSCC(len(idbs), adj)
	nComp := 0
	for _, c := range comp {
		if c+1 > nComp {
			nComp = c + 1
		}
	}

	// Validate negation and recursive aggregation.
	for _, e := range edges {
		if comp[e.from] != comp[e.to] {
			continue
		}
		if e.negated {
			return fmt.Errorf("analysis: program is not stratifiable: %q is negated within its own recursive component", idbs[e.from])
		}
	}
	inCycle := make([]bool, len(idbs))
	selfEdge := make([]bool, len(idbs))
	compSize := make([]int, nComp)
	for _, c := range comp {
		compSize[c]++
	}
	for _, e := range edges {
		if e.from == e.to {
			selfEdge[e.from] = true
		}
	}
	for i := range idbs {
		if compSize[comp[i]] > 1 || selfEdge[i] {
			inCycle[i] = true
		}
	}
	for i, n := range idbs {
		pi := r.Preds[n]
		if pi.Agg != nil && inCycle[i] {
			if pi.Agg.Func != "MIN" && pi.Agg.Func != "MAX" {
				return fmt.Errorf("analysis: recursive %s aggregation on %q is not supported (non-monotone)", pi.Agg.Func, n)
			}
			pi.RecursiveAgg = true
		}
	}

	// Topological order of the condensation (Kahn).
	compAdj := make([]map[int]bool, nComp)
	indeg := make([]int, nComp)
	for i := range compAdj {
		compAdj[i] = make(map[int]bool)
	}
	for _, e := range edges {
		cf, ct := comp[e.from], comp[e.to]
		if cf != ct && !compAdj[cf][ct] {
			compAdj[cf][ct] = true
			indeg[ct]++
		}
	}
	var queue []int
	for c := 0; c < nComp; c++ {
		if indeg[c] == 0 {
			queue = append(queue, c)
		}
	}
	sort.Ints(queue)
	var order []int
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		order = append(order, c)
		var next []int
		for t := range compAdj[c] {
			indeg[t]--
			if indeg[t] == 0 {
				next = append(next, t)
			}
		}
		sort.Ints(next)
		queue = append(queue, next...)
	}
	if len(order) != nComp {
		return fmt.Errorf("analysis: internal error: condensation is cyclic")
	}

	// Build strata in topological order.
	strataOf := make(map[int]int, nComp) // component id → stratum index
	for si, c := range order {
		strataOf[c] = si
	}
	r.Strata = make([]Stratum, nComp)
	for si := range r.Strata {
		r.Strata[si].Index = si
	}
	for i, n := range idbs {
		si := strataOf[comp[i]]
		r.Preds[n].Stratum = si
		r.Strata[si].IDBs = append(r.Strata[si].IDBs, n)
	}
	for si := range r.Strata {
		sort.Strings(r.Strata[si].IDBs)
	}
	for ri, rule := range r.Program.Rules {
		si := r.Preds[rule.HeadPred].Stratum
		r.Strata[si].RuleIdx = append(r.Strata[si].RuleIdx, ri)
		for _, a := range rule.Body {
			if pi, ok := r.Preds[a.Pred]; ok && pi.IsIDB && pi.Stratum == si {
				r.Strata[si].Recursive = true
			}
		}
	}
	return nil
}

// tarjanSCC computes strongly connected components; comp[v] is the component
// id of vertex v (ids are dense but arbitrary).
func tarjanSCC(n int, adj [][]int) []int {
	const unvisited = -1
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range idx {
		idx[i], comp[i] = unvisited, unvisited
	}
	var stack []int
	counter, nComp := 0, 0

	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if idx[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		idx[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if idx[w] == unvisited {
					idx[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && idx[w] < low[f.v] {
					low[f.v] = idx[w]
				}
				continue
			}
			// Post-visit.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp
}
