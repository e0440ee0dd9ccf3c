package recstep

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"recstep/internal/core"
	"recstep/internal/datalog/analysis"
	"recstep/internal/datalog/querygen"
	"recstep/internal/programs"
	"recstep/internal/quickstep"
	"recstep/internal/quickstep/optimizer"
	"recstep/internal/quickstep/plan"
	"recstep/internal/quickstep/sql"
	"recstep/internal/quickstep/storage"
)

// boundArms binds every unit of every stratum of a program the way the
// engine does from scratch (Init arms first, then Rec arms, numbered on from
// Init's; Full on its own), and returns the branches keyed by the name a run
// records their plan under: "<tmp>_ins_b<arm>". Full units, which only naive
// evaluation runs, are keyed with a "full:" prefix.
func boundArms(t *testing.T, name string) map[string]*plan.Branch {
	t.Helper()
	prog, err := programs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	schema := func(table string) ([]string, bool) {
		base := strings.TrimSuffix(strings.TrimSuffix(table, querygen.DeltaSuffix), querygen.TmpSuffix)
		pi, ok := res.Preds[base]
		if !ok {
			return nil, false
		}
		return storage.NumberedColumns(pi.Arity), true
	}
	arms := map[string]*plan.Branch{}
	bind := func(prefix string, u querygen.UnitQueries, tmp string, first int) {
		if u.Subqueries == 0 {
			return
		}
		st, err := sql.Parse(u.Unified, schema)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q, err := quickstep.QueryOf(st)
		if err != nil {
			t.Fatal(err)
		}
		for i, br := range q.Branches {
			br.Arm = first + i
			arms[fmt.Sprintf("%s%s_ins_b%d", prefix, tmp, br.Arm)] = br
		}
	}
	gen := querygen.New(res)
	for _, s := range res.Strata {
		idbs, err := gen.StratumQueries(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, iq := range idbs {
			bind("", iq.Init, iq.Tmp, 0)
			bind("", iq.Rec, iq.Tmp, iq.Init.Subqueries)
			bind("full:", iq.Full, iq.Tmp, 0)
		}
	}
	return arms
}

// unsealed copies a bound branch without what Seal attached, so planning it
// starts from scratch.
func unsealed(br *plan.Branch) *plan.Branch {
	return &plan.Branch{Arm: br.Arm, Tables: br.Tables, Offsets: br.Offsets, Arities: br.Arities,
		PreFilter: br.PreFilter, Body: br.Body, AntiJoins: br.AntiJoins, Projs: br.Projs,
		GroupBy: br.GroupBy, Aggs: br.Aggs, SelectOrder: br.SelectOrder}
}

// greedyOrder is the join-ordering rule written out with maps, independent of
// the bitsets OrderJoins reads: seed on the smallest cardinality (filtered
// atoms, then name, then index break ties), then repeatedly the atom sharing
// the most variable classes with those placed.
func greedyOrder(br *plan.Branch, cards []int) []int {
	n := len(br.Tables)
	if n <= 1 {
		return plan.IdentityOrder(n)
	}
	classes := unsealed(br).VarClasses()
	classSet := make([]map[int]bool, n)
	for t := range classSet {
		classSet[t] = map[int]bool{}
		for c := 0; c < br.Arities[t]; c++ {
			classSet[t][classes[br.Offsets[t]+c]] = true
		}
	}
	filtered := func(t int) bool { return len(br.PreFilter[t]) > 0 }
	less := func(a, b int) bool {
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
	placed := map[int]bool{}
	placedClasses := map[int]bool{}
	var order []int
	for len(order) < n {
		best, bestConn := -1, -1
		for t := 0; t < n; t++ {
			if placed[t] {
				continue
			}
			conn := 0
			if len(order) > 0 {
				for k := range classSet[t] {
					if placedClasses[k] {
						conn++
					}
				}
			}
			if best < 0 || conn > bestConn || (conn == bestConn && less(t, best)) {
				best, bestConn = t, conn
			}
		}
		placed[best] = true
		order = append(order, best)
		for k := range classSet[best] {
			placedClasses[k] = true
		}
	}
	return order
}

// A bound branch plans once per join order: every branch of the 13 programs,
// over seeded cardinality vectors drawn from a few values so ties are common,
// must get from its memo exactly the order and the compiled chain (keys,
// residuals, column map, remapped select list, group-by, aggregates and
// anti-join keys) that ordering and compiling an unsealed copy afresh give,
// and the order a map-based rendering of the greedy rule gives.
func TestPlanMemoMatchesFreshPlanning(t *testing.T) {
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(39))
	checked := 0
	for _, name := range names {
		arms := boundArms(t, name)
		keys := make([]string, 0, len(arms))
		for k := range arms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			br := arms[key]
			fresh := unsealed(br)
			n := len(br.Tables)
			values := []int{0, 1, 1 + rng.Intn(5), 1000}
			for trial := 0; trial < 200; trial++ {
				cards := make([]int, n)
				for i := range cards {
					cards[i] = values[rng.Intn(len(values))]
				}
				order := optimizer.OrderJoins(br, cards)
				got := br.Compile(order)
				wantOrder := optimizer.OrderJoins(fresh, cards)
				if !reflect.DeepEqual(order, wantOrder) || !reflect.DeepEqual(order, greedyOrder(br, cards)) {
					t.Fatalf("%s %s cards %v: order %v, fresh %v, map-based %v",
						name, key, cards, order, wantOrder, greedyOrder(br, cards))
				}
				want := fresh.Compile(wantOrder)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got.Ordered, plan.OrderSteps(fresh, wantOrder)) {
					t.Fatalf("%s %s cards %v order %v: memoized plan %+v, fresh %+v", name, key, cards, order, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no branch was checked")
	}
}

// The orders the engine records per rule arm are the orders ordering the arm
// afresh gives on the cardinalities recorded with them, for every program at
// every worker count.
func TestPlanChoicesMatchFreshOrders(t *testing.T) {
	names := make([]string, 0, len(programs.ByName))
	for name := range programs.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arms := boundArms(t, name)
		prog := programs.MustParse(programs.ByName[name])
		for _, workers := range []int{1, 2, 4} {
			opts := core.DefaultOptions()
			opts.Workers = workers
			res, err := core.New(opts).Run(prog, fuseTestEDBs(name))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Stats.JoinOrdersByRule) == 0 {
				t.Fatalf("%s: no plan choice recorded", name)
			}
			for key, pc := range res.Stats.JoinOrdersByRule {
				br, ok := arms[key]
				if !ok {
					t.Fatalf("%s: plan choice %s names no bound arm", name, key)
				}
				if !reflect.DeepEqual(pc.Tables, br.Tables) || len(pc.Cards) != len(br.Tables) {
					t.Fatalf("%s %s: choice over %v with cards %v, arm over %v", name, key, pc.Tables, pc.Cards, br.Tables)
				}
				want := br.Tables // the leapfrog join runs the atoms as written
				if pc.Strategy == optimizer.JoinGreedy.String() {
					want = nil
					for _, i := range optimizer.OrderJoins(unsealed(br), pc.Cards) {
						want = append(want, br.Tables[i])
					}
				}
				if !reflect.DeepEqual(pc.Order, want) {
					t.Fatalf("%s W=%d %s: recorded order %v on cards %v, fresh order %v", name, workers, key, pc.Order, pc.Cards, want)
				}
			}
		}
	}
}
