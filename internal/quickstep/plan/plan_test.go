package plan_test

import (
	"reflect"
	"sync"
	"testing"

	"recstep/internal/quickstep/plan"
	"recstep/internal/quickstep/sql"
)

// A sealed branch's memo is filled by whichever goroutine runs an order
// first: compiling every order of a three-atom body and asking for its names
// from several goroutines at once gives every caller the one plan stored for
// each order, equal to compiling that order on an unsealed copy.
func TestSealedBranchCompilesEachOrderOnce(t *testing.T) {
	schema := func(string) ([]string, bool) { return []string{"c0", "c1"}, true }
	st, err := sql.Parse("INSERT INTO out SELECT a.c0, c.c1 FROM arc a, arc b, tc c "+
		"WHERE a.c1 = b.c0 AND b.c1 = c.c0 AND a.c0 < c.c1", schema)
	if err != nil {
		t.Fatal(err)
	}
	br := st.(plan.InsertSelect).Query.Branches[0]
	fresh := &plan.Branch{Arm: br.Arm, Tables: br.Tables, Offsets: br.Offsets, Arities: br.Arities,
		PreFilter: br.PreFilter, Body: br.Body, AntiJoins: br.AntiJoins, Projs: br.Projs,
		GroupBy: br.GroupBy, Aggs: br.Aggs, SelectOrder: br.SelectOrder}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	const goroutines = 8
	got := make([][]*plan.Compiled, goroutines)
	names := make([]*plan.Names, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range orders {
				o := orders[(i+g)%len(orders)]
				got[g] = append(got[g], br.Compile(append([]int(nil), o...)))
			}
			names[g] = br.Names("out_ins")
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for i, c := range got[g] {
			o := orders[(i+g)%len(orders)]
			if c != br.Compile(o) {
				t.Fatalf("goroutine %d order %v: a second plan was stored for the order", g, o)
			}
			if want := fresh.Compile(o); !reflect.DeepEqual(c, want) {
				t.Fatalf("order %v: memoized plan %+v, fresh %+v", o, c, want)
			}
		}
		if names[g].Branch != "out_ins_b0" || !reflect.DeepEqual(names[g].Steps, []string{"out_ins_b0_j0", "out_ins_b0_j1"}) {
			t.Fatalf("names %+v", names[g])
		}
	}
}
