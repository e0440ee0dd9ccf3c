package optimizer

import (
	"testing"
	"testing/quick"

	"recstep/internal/quickstep/exec"
)

func TestChooseBuildLeft(t *testing.T) {
	if !ChooseBuildLeft(10, 20) {
		t.Fatal("smaller left should build")
	}
	if ChooseBuildLeft(20, 10) {
		t.Fatal("larger left should not build")
	}
	if !ChooseBuildLeft(10, 10) {
		t.Fatal("ties go to the left")
	}
}

func TestDiffChooserRegions(t *testing.T) {
	c := NewDiffChooser(2) // α=2 → TPSD threshold 2α/(α−1) = 4
	// β ≤ 1: R not larger than Rδ → OPSD.
	if got := c.Choose(100, 100); got != exec.OPSD {
		t.Fatalf("β=1: %v, want OPSD", got)
	}
	if got := c.Choose(50, 100); got != exec.OPSD {
		t.Fatalf("β<1: %v, want OPSD", got)
	}
	// β ≥ 4 → TPSD.
	if got := c.Choose(400, 100); got != exec.TPSD {
		t.Fatalf("β=4: %v, want TPSD", got)
	}
	if got := c.Choose(4000, 100); got != exec.TPSD {
		t.Fatalf("β=40: %v, want TPSD", got)
	}
}

func TestDiffChooserUncertainRegionUsesMu(t *testing.T) {
	c := NewDiffChooser(2)
	// β = 3 ∈ (1, 4). With the default µ=1 lower bound:
	// β(α−1) − (α+α/µ) = 3 − 4 < 0 → OPSD.
	if got := c.Choose(300, 100); got != exec.OPSD {
		t.Fatalf("uncertain region with µ=1: %v, want OPSD", got)
	}
	// Large observed µ (tiny intersection): |Rδ|=100, |r|=1 → µ=100.
	// 3·1 − (2 + 0.02) > 0 → TPSD.
	c.Observe(100, 1)
	if got := c.Choose(300, 100); got != exec.TPSD {
		t.Fatalf("uncertain region with µ=100: %v, want TPSD", got)
	}
	// Zero intersection resets µ to the conservative bound.
	c.Observe(100, 0)
	if got := c.Choose(300, 100); got != exec.OPSD {
		t.Fatalf("after µ reset: %v, want OPSD", got)
	}
}

func TestDiffChooserAlphaEdgeCases(t *testing.T) {
	// α ≤ 1: building is cheap, never TPSD.
	c := NewDiffChooser(0.5)
	// NewDiffChooser replaces non-positive alpha only; 0.5 is kept.
	if got := c.Choose(1_000_000, 10); got != exec.OPSD {
		t.Fatalf("α≤1: %v, want OPSD", got)
	}
	// Non-positive alpha falls back to the default.
	d := NewDiffChooser(0)
	if d.Alpha != DefaultAlpha {
		t.Fatalf("Alpha = %f, want default %f", d.Alpha, DefaultAlpha)
	}
	// Empty delta: nothing to diff, OPSD trivially.
	if got := d.Choose(100, 0); got != exec.OPSD {
		t.Fatalf("empty delta: %v, want OPSD", got)
	}
}

// Property: for any sizes the chooser returns a valid algorithm and respects
// the closed-form regions.
func TestDiffChooserRegionProperty(t *testing.T) {
	c := NewDiffChooser(2)
	f := func(r, rd uint16) bool {
		rT, rdT := int(r)+1, int(rd)+1
		got := c.Choose(rT, rdT)
		beta := float64(rT) / float64(rdT)
		if beta <= 1 && got != exec.OPSD {
			return false
		}
		if beta >= 4 && got != exec.TPSD {
			return false
		}
		return got == exec.OPSD || got == exec.TPSD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChoosePartitionsTiers(t *testing.T) {
	cases := []struct {
		tuples, workers, want int
	}{
		{100, 8, 1},       // too small to amortize the scatter
		{1 << 14, 8, 16},  // first tier boundary
		{1 << 17, 8, 16},  // mid tier
		{1 << 18, 8, 64},  // second tier boundary
		{1 << 21, 8, 64},  // big tier
		{1 << 22, 8, 256}, // largest tier boundary
		{1 << 30, 8, 256}, // capped fan-out
		{1 << 30, 1, 1},   // single worker never partitions
	}
	for _, c := range cases {
		if got := ChoosePartitions(c.tuples, c.workers); got != c.want {
			t.Fatalf("ChoosePartitions(%d, %d) = %d, want %d", c.tuples, c.workers, got, c.want)
		}
	}
}

func keysetsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestRankJoinKeysets(t *testing.T) {
	cases := []struct {
		name    string
		keysets [][]int
		want    [][]int
	}{
		{"empty", nil, nil},
		{"single", [][]int{{1}}, [][]int{{1}}},
		{"dedup keeps one", [][]int{{1}, {1}, {1}}, [][]int{{1}}},
		{"majority first", [][]int{{1}, {0}, {0}, {1}, {0}}, [][]int{{0}, {1}}},
		{"tie keeps first-seen order", [][]int{{1}, {0}}, [][]int{{1}, {0}}},
		{"empty keysets ignored", [][]int{{}, {0}, {}}, [][]int{{0}}},
		{"order-sensitive distinctness", [][]int{{0, 1}, {1, 0}, {0, 1}}, [][]int{{0, 1}, {1, 0}}},
		{"three ranked", [][]int{{2}, {0}, {0}, {1}, {1}, {0}}, [][]int{{0}, {1}, {2}}},
	}
	for _, c := range cases {
		if got := RankJoinKeysets(c.keysets); !keysetsEqual(got, c.want) {
			t.Fatalf("%s: RankJoinKeysets(%v) = %v, want %v", c.name, c.keysets, got, c.want)
		}
	}
}

// carryCase is one ChooseCarry decision: its inputs, the carried keyset and
// the rule that must win.
type carryCase struct {
	name       string
	arity      int
	keysets    [][]int
	outputKeys []int
	wantKeys   []int
	wantRule   CarryRule
}

func checkChooseCarry(t *testing.T, cases []carryCase) {
	t.Helper()
	for _, c := range cases {
		keys, rule := ChooseCarry(c.arity, c.keysets, c.outputKeys)
		if !keysetsEqual([][]int{keys}, [][]int{c.wantKeys}) || rule != c.wantRule {
			t.Fatalf("%s: ChooseCarry = (%v, %s), want (%v, %s)",
				c.name, keys, rule, c.wantKeys, c.wantRule)
		}
	}
}

// Join keysets that agree are carried as one keyset; without any the
// predicate is carried whole-tuple.
func TestChooseJoinKeyCols(t *testing.T) {
	checkChooseCarry(t, []carryCase{
		{"consensus single col", 2, [][]int{{1}, {1}}, nil, []int{1}, CarryJoin},
		{"no usage falls back", 3, nil, nil, []int{0, 1, 2}, CarryWholeTuple},
		{"empty keysets ignored", 2, [][]int{{}, {1}}, nil, []int{1}, CarryJoin},
		{"multi-col consensus", 3, [][]int{{0, 2}, {0, 2}}, nil, []int{0, 2}, CarryJoin},
	})
}

// With no output keys, the top-ranked join keyset is carried.
func TestChooseCarryKeysets(t *testing.T) {
	checkChooseCarry(t, []carryCase{
		{"no usage falls back to whole tuple", 3, nil, nil, []int{0, 1, 2}, CarryWholeTuple},
		{"consensus keeps single keyset", 2, [][]int{{1}, {1}}, nil, []int{1}, CarryJoin},
		// The CSPA valueFlow shape: column 0 serves four builds per
		// iteration, column 1 serves two — rank picks 0 as the delta route,
		// and the builds on 1 re-scatter.
		{"conflict ranks by builds served", 2, [][]int{{0}, {0}, {1}, {0}, {1}, {0}}, nil, []int{0}, CarryJoin},
		{"tie breaks by first appearance", 2, [][]int{{1}, {0}}, nil, []int{1}, CarryJoin},
		{"only the top-ranked keyset carries", 2, [][]int{{0}, {0}, {1}, {1}, {0, 1}}, nil, []int{0}, CarryJoin},
	})
}

// Output keys take over the carry whenever the predicate has them: the
// choice depends on the rules alone, so one worker runs the plan many do.
func TestChooseCarry(t *testing.T) {
	checkChooseCarry(t, []carryCase{
		// tc(x,y) :- tc(x,z), arc(z,y): builds on column 1, passes column 0.
		{"output keys win over the join keys", 2, [][]int{{1}}, []int{0}, []int{0}, CarryOutput},
		{"output keys win with no join usage", 3, nil, []int{0, 2}, []int{0, 2}, CarryOutput},
		{"no output keys: ranked join keysets", 2, [][]int{{0}, {0}, {1}}, nil, []int{0}, CarryJoin},
		{"no usage is whole-tuple", 3, nil, nil, []int{0, 1, 2}, CarryWholeTuple},
	})
}

// The delta fan-out is R's cardinality tier, stepped down until each
// partition task receives at least minTaskRows rows of the previous
// iteration's ∆ (the estimate of its join output), never below the previous
// iteration's fan-out, and only then capped by the memory headroom. No
// worker count enters it.
func TestChooseDeltaPartitionsSizedByWork(t *testing.T) {
	const roomy = int64(1) << 40
	cases := []struct {
		name                    string
		r, prevDelta, prevParts int
		headroom                int64
		want                    int
	}{
		// Tiers of max(|R|, |∆|) when ∆ is large enough to feed them.
		{"small inputs run flat", 1000, 1000, 0, roomy, 1},
		{"16 tier", 1 << 14, 1 << 14, 0, roomy, 16},
		{"64 tier", 1 << 18, 1 << 18, 0, roomy, 64},
		{"256 tier", 1 << 22, 1 << 22, 0, roomy, 256},
		{"∆ alone reaches a tier", 100, 1 << 18, 0, roomy, 64},
		// The cap by ∆: fewer than 64 rows per task steps the tier down.
		{"first iteration runs flat", 1 << 22, 0, 0, roomy, 1},
		{"a few-row ∆ over a large R runs flat", 1 << 20, 8, 0, roomy, 1},
		{"just under 16 tasks' work", 1 << 20, 16*minTaskRows - 1, 0, roomy, 1},
		{"16 tasks' work", 1 << 20, 16 * minTaskRows, 0, roomy, 16},
		{"64 tasks' work", 1 << 20, 64 * minTaskRows, 0, roomy, 64},
		{"256 tier capped to 64", 1 << 22, 256*minTaskRows - 1, 0, roomy, 64},
		{"256 tasks' work", 1 << 22, 256 * minTaskRows, 0, roomy, 256},
		// Upgrade-only: a shrinking ∆ keeps the previous fan-out.
		{"never below the previous fan-out", 1 << 20, 8, 64, roomy, 64},
		{"still upgrades past it", 1 << 22, 1 << 22, 16, roomy, 256},
		// Headroom: the caps and the spill floor apply after the choice.
		{"tight headroom caps at 16", 1 << 22, 1 << 22, 0, headroomTight - 1, 16},
		{"low headroom caps at 64", 1 << 22, 1 << 22, 0, headroomLow - 1, 64},
		{"the cap overrides the previous fan-out", 1 << 22, 8, 256, headroomTight - 1, 16},
		{"an R that threatens the headroom partitions anyway", 1 << 20, 8, 0, 1 << 20, 16},
		{"an R that fits stays flat", 1000, 8, 0, 1 << 20, 1},
	}
	for _, c := range cases {
		if got := ChooseDeltaPartitionsBudget(c.r, c.prevDelta, c.prevParts, c.headroom); got != c.want {
			t.Errorf("%s: ChooseDeltaPartitionsBudget(%d, %d, %d, %d) = %d, want %d",
				c.name, c.r, c.prevDelta, c.prevParts, c.headroom, got, c.want)
		}
	}
}

func TestPreferCarriedBuild(t *testing.T) {
	cases := []struct {
		name                      string
		left, right               int
		leftCarried, rightCarried bool
		wantBuildLeft             bool
	}{
		{"no carried side: smaller builds", 10, 20, false, false, true},
		{"both carried: smaller builds", 10, 20, true, true, true},
		{"carried left, close sizes: left builds despite being larger", 30, 20, true, false, true},
		{"carried right, close sizes: right builds despite being larger", 20, 30, false, true, false},
		{"carried side too large: size rule wins", 50, 20, true, false, false},
		{"carried side at the 2x boundary still builds", 40, 20, true, false, true},
		{"carried side smaller anyway", 10, 20, true, false, true},
		{"zero cardinality disables the override", 0, 20, false, true, true},
	}
	for _, c := range cases {
		if got := PreferCarriedBuild(c.left, c.right, c.leftCarried, c.rightCarried); got != c.wantBuildLeft {
			t.Fatalf("%s: PreferCarriedBuild(%d, %d, %v, %v) = %v, want %v",
				c.name, c.left, c.right, c.leftCarried, c.rightCarried, got, c.wantBuildLeft)
		}
	}
}

// The keep-it-resident rule is ski rental in row reads: pay per use until
// the payments reach ResidentAmortise times the rows the structure holds.
func TestRepaysResident(t *testing.T) {
	for _, tc := range []struct {
		rescanned int64
		rows      int
		want      bool
	}{
		{0, 0, false},
		{ResidentAmortise - 1, 0, false}, // an empty relation prices like one row
		{ResidentAmortise, 0, true},
		{ResidentAmortise*1000 - 1, 1000, false},
		{ResidentAmortise * 1000, 1000, true},
		// cc_rmat: 8 iterations re-read the 1.3 M-row arc 8 times — no.
		{8 * 1310720, 1310720, false},
		// csda_chain: iteration 33 has re-read the 7996-row arc 33 times — yes.
		{33 * 7996, 7996, true},
	} {
		if got := RepaysResident(tc.rescanned, tc.rows); got != tc.want {
			t.Errorf("RepaysResident(%d, %d) = %v, want %v", tc.rescanned, tc.rows, got, tc.want)
		}
	}
}
