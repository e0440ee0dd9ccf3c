// Package optimizer holds the lightweight cost-based decisions RecStep's
// Optimization-On-the-Fly refreshes every iteration: hash-join build-side
// selection and the Dynamic Set Difference (DSD) choice between OPSD and
// TPSD, including the Appendix A cost model at a fixed α (DefaultAlpha).
package optimizer

import (
	"sort"

	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/storage"
)

// ChooseBuildLeft reports whether the left join input should build the hash
// table: the smaller side builds. Called with the latest ANALYZE statistics,
// so stale statistics (OOF-NA) produce stale — possibly wrong — choices.
func ChooseBuildLeft(leftTuples, rightTuples int) bool {
	return leftTuples <= rightTuples
}

// carriedBuildFactor bounds the keyset-aware build-side override: a side
// whose carried partitioning matches its join keys is preferred over the
// strictly smaller side only while it is at most this many times larger.
// Building in place costs ~α per tuple over the carried side; building the
// other side costs ~α per tuple *plus* a scatter copy (≈ one probe, so
// ≈ α+1 per tuple with α≈2) — the in-place build wins until the carried
// side is roughly (α+1)/α ≈ 1.5× larger, and 2× keeps a margin for the
// statistics being estimates.
const carriedBuildFactor = 2

// ResidentAmortise prices the set-difference index on a full relation R: it
// is built once and kept only when the rows set difference has re-read from R
// for want of it reach ResidentAmortise times the rows it would hold. It is
// the ski-rental rule (keep paying per use until the payments equal the
// purchase price, then buy: never worse than twice the optimum), with the
// price counted in row reads. A GSCHT index costs α ≈ 2 scans to seed and
// holds about three times the bytes of a binary R, pool-accounted, so it
// competes with R itself for the memory budget; 32 covers that with a
// margin.
//
// The constant has a second reading: a fixpoint that converges in a few
// dozen iterations re-reads R at most that many times, so it never trades
// memory for a rescan it would have stopped paying anyway (TC, CSPA, CC:
// 7–32 iterations, no index retained), while a thousand-iteration fixpoint
// over a handful of new tuples (CSDA) crosses the line within its first few
// percent and runs ∆-proportional from there. Observable from the input,
// never a flag. Join build tables need no such price: a relation the
// fixpoint never writes is built on and kept from its first join (see
// quickstep.Database.SetInvariant).
const ResidentAmortise = 32

// RepaysResident reports whether rows rescanned so far repay keeping a
// set-difference index over rows rows resident (see ResidentAmortise).
func RepaysResident(rescanned int64, rows int) bool {
	return rescanned >= ResidentAmortise*int64(max(rows, 1))
}

// PreferCarriedBuild applies the keyset-aware build-side override on top of
// ChooseBuildLeft: when exactly one join input already carries a
// partitioning on its join keys and the cardinalities are close (within
// carriedBuildFactor), the carried side builds — its hash tables are
// indexed straight over carried partition blocks with zero tuple movement,
// which beats a slightly smaller build that must pay a scatter pass first.
// With no carried side (or both carried) the pure size rule decides.
func PreferCarriedBuild(leftTuples, rightTuples int, leftCarried, rightCarried bool) bool {
	buildLeft := ChooseBuildLeft(leftTuples, rightTuples)
	if leftCarried == rightCarried || leftTuples <= 0 || rightTuples <= 0 {
		return buildLeft
	}
	if leftCarried && rightTuples*carriedBuildFactor >= leftTuples {
		return true
	}
	if rightCarried && leftTuples*carriedBuildFactor >= rightTuples {
		return false
	}
	return buildLeft
}

// Partition-count tiers for the radix-partitioned parallel build. The build
// side must be large enough to amortize one scatter pass before fan-out pays
// off, and past that the count grows with cardinality so per-partition
// tables stay cache-resident.
const (
	// partitionMinTuples is the smallest build side worth partitioning.
	partitionMinTuples = 1 << 14
	// partitionMidTuples upgrades the fan-out from 16 to 64.
	partitionMidTuples = 1 << 18
	// partitionBigTuples upgrades the fan-out from 64 to 256.
	partitionBigTuples = 1 << 22
)

// partitionTier maps a cardinality to its radix fan-out tier: 1, 16, 64 or
// 256, growing with the input so per-partition tables stay cache-resident.
func partitionTier(tuples int) int {
	switch {
	case tuples < partitionMinTuples:
		return 1
	case tuples < partitionMidTuples:
		return 16
	case tuples < partitionBigTuples:
		return 64
	default:
		return 256
	}
}

// ChoosePartitions picks the radix partition count (1, 16, 64 or 256) for a
// hash build from the build side's cardinality estimate. Like the build-side
// choice, it is driven by the latest ANALYZE statistics, so OOF keeps it
// correct as delta sizes shift across iterations. Partitioning a build buys
// contention-free per-partition tables, which a single worker does not need,
// so there it always runs unpartitioned.
func ChoosePartitions(buildTuples, workers int) int {
	if workers == 1 {
		return 1
	}
	return partitionTier(buildTuples)
}

// Memory-headroom tiers for fan-out under budget pressure. Every partition
// costs workers × open-block overhead during a scatter, so when the memory
// manager reports little room under its budget the fan-out steps down
// instead of letting scatter buffers push the run over — the paper's theme
// of trading parallel granularity for fitting in RAM.
const (
	// headroomTight caps hash-build fan-out at 16.
	headroomTight = 8 << 20
	// headroomLow caps it at 64.
	headroomLow = 64 << 20
	// headroomMinPartition disables partitioning for plain hash builds
	// entirely.
	headroomMinPartition = 2 << 20
)

// capFanout applies the headroom tiers to a chosen partition count.
func capFanout(parts int, headroom int64) int {
	switch {
	case headroom < headroomTight:
		if parts > 16 {
			parts = 16
		}
	case headroom < headroomLow:
		if parts > 64 {
			parts = 64
		}
	}
	return parts
}

// ChoosePartitionsBudget is ChoosePartitions constrained by the memory
// manager's remaining headroom: under pressure the fan-out shrinks, and with
// almost no room the build runs unpartitioned (one shared table allocates no
// scatter copies at all).
func ChoosePartitionsBudget(buildTuples, workers int, headroom int64) int {
	if headroom < headroomMinPartition {
		return 1
	}
	return capFanout(ChoosePartitions(buildTuples, workers), headroom)
}

// ChooseDeltaPartitionsBudget is ChooseDeltaPartitions under a headroom
// constraint. Unlike plain hash builds, the delta fan-out never drops below
// 16 while partitioning is warranted at all: the carried whole-tuple
// partitions are the unit of cold-partition spilling, so collapsing to a
// flat layout under pressure would remove the engine's only way to shed
// memory.
func ChooseDeltaPartitionsBudget(rTuples, prevDelta, prevParts int, headroom int64) int {
	parts := ChooseDeltaPartitions(rTuples, prevDelta, prevParts)
	if parts <= 1 {
		// The cardinality tiers would run flat — but when the full relation
		// alone threatens the remaining headroom, partition it anyway:
		// carried partitions are the unit of cold-partition spilling, and a
		// flat R under a tight budget has no way to shed memory at all.
		if int64(rTuples)*8 > headroom/4 {
			return 16
		}
		return parts
	}
	return capFanout(parts, headroom)
}

// ChooseUpdateDeltaPartitioning picks the delta layout for incremental
// update evaluation. Update deltas are tiny relative to R, so the batch
// cardinality tiers would usually run them flat — but an incremental delta
// whose partitioning differs from R's carried view forces AppendRelation
// into a flat-mutation rebuild of the *full* relation on every update,
// which dwarfs any scatter savings on the delta itself. So when the full
// relation carries a partitioned view, mirror it exactly (key columns and
// fan-out both); only an uncarried R falls back to the batch heuristic.
func ChooseUpdateDeltaPartitioning(carried storage.Partitioning, hasCarried bool, rTuples, prevDelta, prevParts int, headroom int64, arity int) storage.Partitioning {
	if hasCarried {
		return carried
	}
	parts := ChooseDeltaPartitionsBudget(rTuples, prevDelta, prevParts, headroom)
	return storage.Partitioning{KeyCols: storage.AllCols(arity), Parts: parts}
}

// RankJoinKeysets returns the distinct non-empty keysets of a predicate's
// direct hash-build usage, ranked by how many builds each serves per
// iteration (occurrence count, descending; ties keep first-appearance
// order). The count is the copy-accounting estimate behind the carry
// choice: every occurrence is one hash build per iteration that a carried
// partitioning on that keyset serves with zero tuple movement.
func RankJoinKeysets(keysets [][]int) [][]int {
	type ranked struct {
		keys  []int
		count int
		order int
	}
	var distinct []ranked
	for _, ks := range keysets {
		if len(ks) == 0 {
			continue
		}
		found := false
		for i := range distinct {
			if storage.KeyColsEqual(distinct[i].keys, ks) {
				distinct[i].count++
				found = true
				break
			}
		}
		if !found {
			distinct = append(distinct, ranked{keys: append([]int(nil), ks...), count: 1, order: len(distinct)})
		}
	}
	sort.SliceStable(distinct, func(a, b int) bool {
		if distinct[a].count != distinct[b].count {
			return distinct[a].count > distinct[b].count
		}
		return distinct[a].order < distinct[b].order
	})
	out := make([][]int, len(distinct))
	for i, d := range distinct {
		out[i] = d.keys
	}
	return out
}

// CarryRule names the rule that chose a recursive predicate's carried
// keysets.
type CarryRule string

const (
	// CarryOutput: the keyset is the predicate's pass-through columns — every
	// recursive rule copies them unchanged from its one body atom of the
	// predicate to the head — so a join probing ∆'s partition p emits only
	// rows of the join output's partition p.
	CarryOutput CarryRule = "output"
	// CarryJoin: the keysets the predicate's hash builds key on.
	CarryJoin CarryRule = "join"
	// CarryWholeTuple: no keyset applies, or carrying is off (naive runs).
	CarryWholeTuple CarryRule = "whole-tuple"
)

// ChooseCarry picks the keyset a recursive predicate's carried partitioning
// routes on for one stratum: it routes the delta pipeline and becomes R's
// carried partitioning. Any non-empty keyset co-locates equal tuples, so the
// delta step's dedup and set difference are correct under every choice; the
// choice only decides which later operator gets its input without moving a
// tuple.
//
// outputKeys are the predicate's pass-through columns (nil when its rules
// have none). They win whenever they exist: every repeat of an output tuple
// then comes out of one partition of ∆, so the task probing that partition
// sees all of them and its duplicate filter catches them, and the join writes
// its output into the probe row's own partition without a scatter. The
// predicate's builds on its join keys then re-scatter ∆ — the price of owning
// the output, paid on the smaller side. Nothing in that argument depends on
// the worker count, so one worker runs the plan many do.
//
// joinKeysets are the key column sets under which the predicate's relations
// (∆R and R) enter hash builds directly, collected from the bound recursive
// plans, ranked by RankJoinKeysets:
//
//   - One keyset → carry exactly it. ∆R exits the delta step scattered on the
//     keys the next iteration's build probes, and the build indexes the
//     carried blocks in place (the FlowLog observation that carrying index
//     structure across incremental iterations beats rebuilding it).
//   - Conflicting keysets (e.g. same-generation's sg(p,q) joined on p and on
//     q) → only the top-ranked keyset is carried. A build on any other keyset
//     re-scatters its side, as every uncarried build does: the relation keeps
//     one physical layout.
//   - No direct join usage → the whole tuple.
func ChooseCarry(arity int, joinKeysets [][]int, outputKeys []int) (keys []int, rule CarryRule) {
	if len(outputKeys) > 0 {
		return append([]int(nil), outputKeys...), CarryOutput
	}
	ranked := RankJoinKeysets(joinKeysets)
	if len(ranked) == 0 {
		return storage.AllCols(arity), CarryWholeTuple
	}
	return ranked[0], CarryJoin
}

// minTaskRows is the join output a delta-pipeline partition task must
// receive to pay for itself: below it the task, its blocks and the
// epoch-boundary coalesce cost more than the kernel work it carries. It is
// the smallest tier's threshold spread over the widest fan-out, so ∆R must
// reach 1024 rows before the pipeline fans out at all.
const minTaskRows = partitionMinTuples / 256

// ChooseDeltaPartitions picks the radix fan-out one recursive predicate's
// delta pipeline uses for one fixpoint iteration. A single count is shared by
// every stage of the pipeline — the fused scatter of the join output, the
// fused dedup/set-difference pass, ∆R's materialization, and the carried
// partitioning R accumulates — so partitioned output produced by one stage
// is consumed by the next without a re-scatter. The count is a function of
// the data alone, never of the worker count:
//
//   - Start from the cardinality tier of the larger of the two inputs the
//     delta pass touches: the full relation R and the join output Rt,
//     approximated by prevDelta, the previous iteration's |∆R| (the same
//     slowly-changing heuristic DSD uses for µ). Rt's own size is no
//     measure of the data: the share of it the duplicate filter drops
//     depends on how the workers split the probe.
//   - Step it down (256 → 64 → 16 → 1) while that estimate would give each
//     partition task fewer than minTaskRows rows: a chain whose ∆ is a few
//     rows runs one task however large R has grown.
//   - Never go below prevParts, the predicate's fan-out in the previous
//     iteration of the stratum: R is never re-scattered to a smaller layout,
//     so its carried partitions and resident index survive a shrinking ∆.
func ChooseDeltaPartitions(rTuples, prevDelta, prevParts int) int {
	parts := partitionTier(max(rTuples, prevDelta))
	for parts > 1 && prevDelta < parts*minTaskRows {
		parts = stepDown(parts)
	}
	return max(parts, prevParts)
}

// stepDown returns the next smaller fan-out tier.
func stepDown(parts int) int {
	if parts <= 16 {
		return 1
	}
	return parts / 4
}

// DefaultAlpha is the build/probe cost ratio α = Cb/Cp the engine runs DSD
// with: hash-table construction costs roughly twice a probe in this engine.
const DefaultAlpha = 2.0

// DiffChooser implements DSD for one recursive relation. α=Cb/Cp is fixed
// (the engine passes DefaultAlpha; the paper's Appendix A trains it offline);
// µ=|Rδ|/|r| is carried over from the previous iteration, per the paper's
// heuristic that µ changes slowly between consecutive iterations.
type DiffChooser struct {
	Alpha  float64
	prevMu float64
	hasMu  bool
}

// NewDiffChooser returns a chooser with the given α (≤0 selects
// DefaultAlpha). The engine passes DefaultAlpha; other values exist for the
// cost model's edge-case tests.
func NewDiffChooser(alpha float64) *DiffChooser {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	return &DiffChooser{Alpha: alpha}
}

// Choose picks the set-difference algorithm for ∆R ← Rδ − R given the
// current sizes (from ANALYZE). Decision regions from Appendix A:
//
//	β ≤ 1               → OPSD (R is the smaller table)
//	β ≥ 2α/(α−1)        → TPSD
//	1 < β < 2α/(α−1)    → sign of eq. (5) using the previous iteration's µ
func (c *DiffChooser) Choose(rTuples, rdeltaTuples int) exec.DiffAlgorithm {
	if rdeltaTuples == 0 || rTuples <= rdeltaTuples {
		return exec.OPSD
	}
	if c.Alpha <= 1 {
		// Building is no more expensive than probing; avoiding the build on R
		// can never pay off.
		return exec.OPSD
	}
	beta := float64(rTuples) / float64(rdeltaTuples)
	threshold := 2 * c.Alpha / (c.Alpha - 1)
	if beta >= threshold {
		return exec.TPSD
	}
	// Uncertain region: approximate µ with the previous iteration's value.
	mu := c.prevMu
	if !c.hasMu || mu <= 0 {
		mu = 1 // |r| ≤ |Rδ| ⇒ µ ≥ 1; the conservative lower bound
	}
	// Cost(OPSD) − Cost(TPSD) ∝ β(α−1) − (α + α/µ); positive favours TPSD.
	if beta*(c.Alpha-1)-(c.Alpha+c.Alpha/mu) > 0 {
		return exec.TPSD
	}
	return exec.OPSD
}

// Observe records the intersection size of the finished iteration so µ can
// seed the next choice. |r| = |Rδ| − |∆R| because ∆R = Rδ − (R ∩ Rδ).
func (c *DiffChooser) Observe(rdeltaTuples, interTuples int) {
	if interTuples <= 0 {
		c.hasMu = false
		return
	}
	c.prevMu = float64(rdeltaTuples) / float64(interTuples)
	c.hasMu = true
}
