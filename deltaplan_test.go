package recstep

import (
	"fmt"
	"reflect"
	"testing"

	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/pa"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// planTestEDBs builds, per program, an input whose delta pipeline fans out
// past 1 where the program allows it (tc, sg, reach, cspa), and for csda a
// set of chains whose R crosses 2^14 while every ∆ stays a few rows.
func planTestEDBs(program string) map[string]*storage.Relation {
	switch program {
	case "tc":
		return map[string]*storage.Relation{"arc": graphs.GnP(250, 0.02, 61)}
	case "sg":
		return map[string]*storage.Relation{"arc": graphs.GnP(400, 0.004, 62)}
	case "reach":
		return map[string]*storage.Relation{"arc": graphs.Undirected(graphs.PowerLaw(20000, 3, 63)), "id": graphs.SingleSource(0)}
	case "cspa":
		return pa.CSPASized(pa.CSPAConfig{Vars: 600, AssignPer: 5, DerefRatio: 3, Seed: 13})
	case "csda":
		return csdaChains(4, 5000)
	}
	return fuseTestEDBs(program)
}

// The delta pipeline's plan is a function of the data, never of the worker
// count: at 1, 2 and 4 workers every program carries the same keysets, runs
// every step at the same fan-out, prints the same carry: and fan-out: lines
// under recstep -v, and derives what baselines/native derives.
func TestDeltaPlanIsIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"tc", "csda", "cspa", "sg", "aa", "reach"} {
		t.Run(name, func(t *testing.T) {
			prog, err := programs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			edbs := planTestEDBs(name)
			want := nativeRelations(t, name, edbs)
			type plan struct {
				carry         map[string]core.CarryChoice
				parts         []string
				carryLine     string
				fanOutLine    string
				maxDeltaParts int
			}
			var ref plan
			for _, workers := range []int{1, 2, 4} {
				opts := core.DefaultOptions()
				opts.Workers = workers
				var got plan
				opts.IterHook = func(ii core.IterInfo) {
					got.parts = append(got.parts, fmt.Sprintf("%d/%d %s:%d", ii.Stratum, ii.Iteration, ii.Pred, ii.DeltaParts))
					got.maxDeltaParts = max(got.maxDeltaParts, ii.DeltaParts)
				}
				res, err := core.New(opts).Run(prog, edbs)
				if err != nil {
					t.Fatal(err)
				}
				for rel, r := range want {
					if !reflect.DeepEqual(res.Relations[rel].SortedRows(), r.SortedRows()) {
						t.Fatalf("W=%d: %s (%d tuples) diverges from baselines/native (%d tuples)",
							workers, rel, res.Relations[rel].NumTuples(), r.NumTuples())
					}
				}
				got.carry = res.Stats.Carry
				got.carryLine = res.Stats.CarryLine()
				got.fanOutLine = res.Stats.FanOutLine()
				if workers == 1 {
					ref = got
					t.Logf("carry: %s", got.carryLine)
					t.Logf("fan-out: %s", got.fanOutLine)
					continue
				}
				if !reflect.DeepEqual(got.carry, ref.carry) {
					t.Fatalf("W=%d carries %v, W=1 carries %v", workers, got.carry, ref.carry)
				}
				if !reflect.DeepEqual(got.parts, ref.parts) {
					t.Fatalf("W=%d ran the delta pipeline at\n%v\nW=1 at\n%v", workers, got.parts, ref.parts)
				}
				if got.carryLine != ref.carryLine || got.fanOutLine != ref.fanOutLine {
					t.Fatalf("W=%d prints carry: %q fan-out: %q; W=1 prints carry: %q fan-out: %q",
						workers, got.carryLine, got.fanOutLine, ref.carryLine, ref.fanOutLine)
				}
			}
			// The inputs are sized so that the comparison covers partitioned
			// steps, not only flat ones.
			if name != "csda" && name != "aa" && ref.maxDeltaParts < 16 {
				t.Fatalf("the delta pipeline never fanned out (max %d); the input is too small to test the plan", ref.maxDeltaParts)
			}
		})
	}
}
