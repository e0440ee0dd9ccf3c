package optimizer

import (
	"math/bits"

	"recstep/internal/quickstep/plan"
)

// JoinStrategy names the executor path chosen for one branch.
type JoinStrategy int

// Join strategies, in increasing order of machinery.
const (
	// JoinGreedy is a left-deep chain in connectivity-driven greedy order.
	JoinGreedy JoinStrategy = iota
	// JoinWCOJ is the leapfrog multi-way intersection for cyclic bodies.
	JoinWCOJ
)

// String renders the strategy for stats and debug logs.
func (s JoinStrategy) String() string {
	if s == JoinWCOJ {
		return "wcoj"
	}
	return "greedy"
}

// ChooseJoinStrategy picks the executor path for a branch. Cyclic bodies of
// three or more atoms go to the leapfrog join: every pairwise order of a
// cyclic pattern (triangle, clique) materializes an intermediate
// asymptotically larger than the output, which no ordering fixes. Aggregate
// and anti-join branches stay on the chain — the leapfrog path emits set
// semantics, which is only sound when the output feeds the dedup'd delta
// step directly.
func ChooseJoinStrategy(br *plan.Branch) JoinStrategy {
	if len(br.Tables) >= 3 && len(br.Aggs) == 0 && len(br.AntiJoins) == 0 && plan.Cyclic(br) {
		return JoinWCOJ
	}
	return JoinGreedy
}

// OrderJoins greedily orders a branch's atoms by connectivity, statistics-
// light in the janus-datalog style: seed from the most selective literal
// (smallest cardinality, filtered atoms first on ties), then repeatedly pick
// the remaining atom sharing the most variable classes with the placed
// prefix, breaking ties by cardinality. Atoms sharing nothing (cross
// products) go last. cards[i] is the live tuple count of Tables[i] — for
// ∆-relations that is this iteration's delta count, so the order adapts as
// deltas shrink. The result depends only on the atom multiset (names,
// cardinalities, filters, connectivity), not on the textual order.
// Connectivity is read from the branch's shape (sealed at bind): each atom's
// variable classes as a bitset, so a placement is an OR and a count a
// popcount.
func OrderJoins(br *plan.Branch, cards []int) []int {
	n := len(br.Tables)
	if n <= 1 {
		return plan.IdentityOrder(n)
	}
	sh := br.Shape()
	filtered := func(t int) bool { return len(br.PreFilter[t]) > 0 }
	// seedLess orders by selectivity; name then index keep it deterministic
	// and (up to identical atoms) invariant to textual permutation.
	seedLess := func(a, b int) bool {
		if cards[a] != cards[b] {
			return cards[a] < cards[b]
		}
		if filtered(a) != filtered(b) {
			return filtered(a)
		}
		if br.Tables[a] != br.Tables[b] {
			return br.Tables[a] < br.Tables[b]
		}
		return a < b
	}
	placed := make([]bool, n)
	placedClasses := make([]uint64, len(sh.ClassSet(0)))
	order := make([]int, 0, n)
	place := func(t int) {
		placed[t] = true
		order = append(order, t)
		for i, w := range sh.ClassSet(t) {
			placedClasses[i] |= w
		}
	}
	seed := -1
	for t := 0; t < n; t++ {
		if seed < 0 || seedLess(t, seed) {
			seed = t
		}
	}
	place(seed)
	for len(order) < n {
		best, bestConn := -1, -1
		for t := 0; t < n; t++ {
			if placed[t] {
				continue
			}
			conn := 0
			for i, w := range sh.ClassSet(t) {
				conn += bits.OnesCount64(w & placedClasses[i])
			}
			if best < 0 || conn > bestConn || (conn == bestConn && seedLess(t, best)) {
				best, bestConn = t, conn
			}
		}
		place(best)
	}
	return order
}
