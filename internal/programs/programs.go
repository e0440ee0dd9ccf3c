// Package programs holds the benchmark Datalog programs of the paper's
// evaluation (Section 6.2), verbatim in the engine's surface syntax, plus
// parsing helpers.
package programs

import (
	"fmt"

	"recstep/internal/datalog/ast"
	"recstep/internal/datalog/parser"
)

// TC is transitive closure (Example 1).
const TC = `
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
`

// SG is same generation (Section 5.3).
const SG = `
sg(x, y) :- arc(p, x), arc(p, y), x != y.
sg(x, y) :- arc(a, x), sg(a, b), arc(b, y).
`

// Reach is single-source reachability; the source vertex lives in EDB id.
const Reach = `
reach(y) :- id(y).
reach(y) :- reach(x), arc(x, y).
`

// CC is connected components via recursive MIN label propagation.
const CC = `
cc3(x, MIN(x)) :- arc(x, _).
cc3(y, MIN(z)) :- cc3(x, z), arc(x, y).
cc2(x, MIN(y)) :- cc3(x, y).
cc(x) :- cc2(_, x).
`

// SSSP is single-source shortest path over weighted arcs arc(x, y, d).
const SSSP = `
sssp2(y, MIN(0)) :- id(y).
sssp2(y, MIN(d1 + d2)) :- sssp2(x, d1), arc(x, y, d2).
sssp(x, MIN(d)) :- sssp2(x, d).
`

// Andersen is Andersen's points-to analysis (4 rules, non-linear and
// mutually dependent on pointsTo).
const Andersen = `
pointsTo(y, x) :- addressOf(y, x).
pointsTo(y, x) :- assign(y, z), pointsTo(z, x).
pointsTo(y, w) :- load(y, x), pointsTo(x, z), pointsTo(z, w).
pointsTo(z, w) :- store(y, x), pointsTo(y, z), pointsTo(x, w).
`

// CSPA is context-sensitive points-to analysis (Graspan's formulation):
// valueFlow / memoryAlias / valueAlias are mutually recursive.
const CSPA = `
valueFlow(y, x) :- assign(y, x).
valueFlow(x, y) :- assign(x, z), memoryAlias(z, y).
valueFlow(x, y) :- valueFlow(x, z), valueFlow(z, y).
memoryAlias(x, w) :- dereference(y, x), valueAlias(y, z), dereference(z, w).
valueAlias(x, y) :- valueFlow(z, x), valueFlow(z, y).
valueAlias(x, y) :- valueFlow(z, x), memoryAlias(z, w), valueFlow(w, y).
valueFlow(x, x) :- assign(x, y).
valueFlow(x, x) :- assign(y, x).
memoryAlias(x, x) :- assign(y, x).
memoryAlias(x, x) :- assign(x, y).
`

// CSDA is context-sensitive dataflow analysis: linear recursion with many
// iterations.
const CSDA = `
null(x, y) :- nullEdge(x, y).
null(x, y) :- null(x, w), arc(w, y).
`

// NTC is the complement of transitive closure (Example 2): stratified
// negation.
const NTC = `
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
node(x) :- arc(x, y).
node(y) :- arc(x, y).
ntc(x, y) :- node(x), node(y), !tc(x, y).
`

// GTC extends TC with a non-recursive COUNT aggregation (Section 3.3): the
// number of vertices reachable from each vertex.
const GTC = `
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
gtc(x, COUNT(y)) :- tc(x, y).
`

// Tri is triangle counting: a cyclic 3-atom body (the canonical worst-case-
// optimal-join workload) followed by a per-vertex COUNT stratum. The ordering
// comparisons keep each triangle to a single canonical orientation.
const Tri = `
tri(x, y, z) :- arc(x, y), arc(y, z), arc(x, z), x < y, y < z.
tricount(x, COUNT(z)) :- tri(x, y, z).
`

// Clique4 is 4-clique listing: a 6-atom cyclic body whose pairwise plan
// materializes large path intermediates the leapfrog join never builds.
const Clique4 = `
clique4(a, b, c, d) :- arc(a, b), arc(a, c), arc(a, d), arc(b, c), arc(b, d), arc(c, d), a < b, b < c, c < d.
`

// AAWide is Andersen's points-to with a deliberately hostile textual atom
// order: every rule leads with the big recursive pointsTo atoms and buries
// the small EDB filter atom last. Same fixpoint as Andersen; exists to check
// that the join-ordering pass re-seeds each chain from the smallest relation
// whatever the textual order.
const AAWide = `
pointsTo(y, x) :- addressOf(y, x).
pointsTo(y, x) :- pointsTo(z, x), assign(y, z).
pointsTo(y, w) :- pointsTo(x, z), pointsTo(z, w), load(y, x).
pointsTo(z, w) :- pointsTo(y, z), pointsTo(x, w), store(y, x).
`

// ByName maps benchmark identifiers (as used in the paper's tables) to
// program sources.
var ByName = map[string]string{
	"tc":      TC,
	"sg":      SG,
	"reach":   Reach,
	"cc":      CC,
	"sssp":    SSSP,
	"aa":      Andersen,
	"cspa":    CSPA,
	"csda":    CSDA,
	"ntc":     NTC,
	"gtc":     GTC,
	"tri":     Tri,
	"clique4": Clique4,
	"aawide":  AAWide,
}

// MustParse parses a program source, panicking on error; the embedded
// sources are compile-time constants so a failure is a programming bug.
func MustParse(src string) *ast.Program {
	p, err := parser.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("programs: %v", err))
	}
	return p
}

// Get returns the parsed program for a benchmark name.
func Get(name string) (*ast.Program, error) {
	src, ok := ByName[name]
	if !ok {
		return nil, fmt.Errorf("programs: unknown benchmark %q", name)
	}
	return parser.Parse(src)
}
