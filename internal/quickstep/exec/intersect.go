package exec

import (
	"recstep/internal/quickstep/storage"
)

// Tuple membership for incremental maintenance. ApplyDelta classifies each
// requested row as present or absent in the base relation before mutating
// it, so the hash set is split out as a reusable handle probed once per row
// instead of being rebuilt per call the way SetDifference does.

// Membership is a reusable tuple-membership index over one relation's
// contents at build time. The caller owns it and must Release it; the
// underlying relation must not be mutated while the handle is in use.
type Membership struct {
	set   *tupleSet
	arity int
}

// BuildMembership hashes every tuple of rel into a fresh membership index,
// in parallel. One O(|rel|) build amortizes across all the update's probes.
func BuildMembership(pool *Pool, rel *storage.Relation) *Membership {
	return &Membership{set: buildSet(pool, rel), arity: rel.Arity()}
}

// Release returns the index's pooled memory.
func (m *Membership) Release() { m.set.release() }

// Contains reports whether the tuple was present at build time.
func (m *Membership) Contains(row []int32) bool {
	var ar setArena
	return m.set.contains(row, &ar)
}
