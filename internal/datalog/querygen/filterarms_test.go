package querygen

import (
	"strings"
	"testing"

	"recstep/internal/programs"
)

// KeptArms must drop exactly the arms seeded from a rejected ∆ table, keep
// the survivors in arm order, and always keep arms no ∆ seeds.
func TestFilterArmsDropsRejectedDeltaArms(t *testing.T) {
	q := queriesFor(t, programs.CSPA, "valueFlow")
	if len(q.Rec.Subs) != q.Rec.Subqueries || len(q.Rec.DeltaTables) != q.Rec.Subqueries {
		t.Fatalf("Subs/DeltaTables misaligned: %d/%d arms, Subqueries=%d",
			len(q.Rec.Subs), len(q.Rec.DeltaTables), q.Rec.Subqueries)
	}
	var maArms int
	for _, d := range q.Rec.DeltaTables {
		switch d {
		case DeltaTable("memoryAlias"):
			maArms++
		case DeltaTable("valueFlow"):
		default:
			t.Fatalf("unexpected seeding delta %q", d)
		}
	}
	if maArms == 0 {
		t.Fatal("no valueFlow arm seeds from memoryAlias_mdelta; fixture lost its point")
	}

	kept := KeptArms(q.Rec.DeltaTables, func(delta string) bool {
		return delta != DeltaTable("memoryAlias")
	})
	if skipped := q.Rec.Subqueries - len(kept); skipped != maArms {
		t.Fatalf("skipped %d arms, want %d", skipped, maArms)
	}
	for j, i := range kept {
		if j > 0 && i <= kept[j-1] {
			t.Fatalf("kept arms %v out of arm order", kept)
		}
		if strings.Contains(q.Rec.Subs[i], DeltaTable("memoryAlias")) {
			t.Fatalf("kept arm %d still reads the rejected delta: %q", i, q.Rec.Subs[i])
		}
	}

	// Keeping everything keeps every arm, in order.
	all := KeptArms(q.Rec.DeltaTables, func(string) bool { return true })
	if len(all) != q.Rec.Subqueries {
		t.Fatalf("keep-all kept %d of %d arms", len(all), q.Rec.Subqueries)
	}
	for j, i := range all {
		if i != j {
			t.Fatalf("keep-all returned %v", all)
		}
	}

	// Rejecting every ∆ leaves zero arms of the recursive phase, whose arms
	// all seed from one; the init arms have no ∆ and survive.
	if none := KeptArms(q.Rec.DeltaTables, func(string) bool { return false }); len(none) != 0 {
		t.Fatalf("reject-all: %d arms remain", len(none))
	}
	sg := queriesFor(t, programs.SG, "sg")
	if init := KeptArms(sg.Init.DeltaTables, func(string) bool { return false }); len(init) != sg.Init.Subqueries || len(init) == 0 {
		t.Fatalf("reject-all dropped init arms: kept %d of %d", len(init), sg.Init.Subqueries)
	}
}
