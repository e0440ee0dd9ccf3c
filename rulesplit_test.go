package recstep

import (
	"fmt"
	"reflect"
	"testing"

	"recstep/internal/baselines/native"
	"recstep/internal/core"
	"recstep/internal/graphs"
	"recstep/internal/programs"
	"recstep/internal/quickstep/storage"
)

// In iteration 1 a predicate ordered after a producer must read the
// producer's first ∆: p is the closure of e, q the paths of two or more
// arcs, and q derives only from p's ∆. On the chain 1→2→3→4 p has 6 tuples
// and q 3. Run under both names, so that q is evaluated after p and before
// it, and checked against baselines/native's closure (q is that closure
// joined with e).
func TestFirstIterationReadsEarlierDeltasUnderBothNames(t *testing.T) {
	chain := storage.NewRelation("e", storage.NumberedColumns(2))
	chain.AppendRows([]int32{1, 2, 2, 3, 3, 4})
	inputs := map[string]*storage.Relation{"chain": chain, "gnp": graphs.GnP(70, 0.05, 17)}
	for label, e := range inputs {
		closure := native.TC(e, 1)
		paths := storage.NewRelation("paths", storage.NumberedColumns(2))
		seen := make(map[[2]int32]bool)
		closure.ForEach(func(c []int32) {
			e.ForEach(func(a []int32) {
				if p := [2]int32{c[0], a[1]}; c[1] == a[0] && !seen[p] {
					seen[p] = true
					paths.Append(p[:])
				}
			})
		})
		if label == "chain" && (closure.NumTuples() != 6 || paths.NumTuples() != 3) {
			t.Fatalf("reference: closure %d, paths %d; want 6 and 3", closure.NumTuples(), paths.NumTuples())
		}
		for _, names := range [][2]string{{"p", "q"}, {"q", "p"}} {
			tc, two := names[0], names[1]
			prog := programs.MustParse(fmt.Sprintf("%[1]s(x, y) :- e(x, y).\n%[1]s(x, y) :- %[2]s(x, y).\n%[2]s(x, y) :- %[1]s(x, z), e(z, y).", tc, two))
			for _, naive := range []bool{false, true} {
				opts := core.DefaultOptions()
				opts.Workers = 2
				opts.Naive = naive
				res, err := core.New(opts).Run(prog, map[string]*storage.Relation{"e": e})
				if err != nil {
					t.Fatal(err)
				}
				for rel, want := range map[string]*storage.Relation{tc: closure, two: paths} {
					if got := res.Relations[rel].SortedRows(); !reflect.DeepEqual(got, want.SortedRows()) {
						t.Fatalf("%s, closure named %s, naive=%v: %s has %d tuples, want %d",
							label, tc, naive, rel, res.Relations[rel].NumTuples(), want.NumTuples())
					}
				}
			}
		}
	}
}

// Rule splitting is visible in the run's statistics and nowhere in its
// result: CSPA reports its two splits and derives its three relations only.
// A program may not name a predicate with the auxiliary suffix.
func TestSplitsInStatsNotInRelations(t *testing.T) {
	res, err := core.New(core.DefaultOptions()).Run(programs.MustParse(programs.CSPA), fuseTestEDBs("cspa"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Splits) != 2 {
		t.Fatalf("splits %v, want memoryAlias's and valueAlias's", res.Stats.Splits)
	}
	if len(res.Relations) != 3 {
		t.Fatalf("result relations %d, want valueFlow, memoryAlias and valueAlias", len(res.Relations))
	}
	for _, s := range res.Stats.Splits {
		if _, ok := res.Relations[s.Aux]; ok {
			t.Fatalf("result holds the auxiliary %s", s.Aux)
		}
	}
	_, err = core.New(core.DefaultOptions()).Run(programs.MustParse("a_maux(x) :- b(x)."), nil)
	if err == nil {
		t.Fatal("a program predicate with the auxiliary suffix was accepted")
	}
}
