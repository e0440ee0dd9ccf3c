package main

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSeedOneSizes pins the seed-1 input sizes README.md quotes. cc_rmat is
// left out to keep the package's tests under a second: its generator runs
// until it holds exactly 655360 distinct arcs and appends each with its
// reverse, so its size is fixed by construction.
func TestSeedOneSizes(t *testing.T) {
	want := map[string]map[string]int{
		"tc_dense":    {"arc": 9916},
		"csda_chain":  {"arc": 7996, "nullEdge": 8},
		"cspa_mutual": {"assign": 432, "dereference": 116},
		"tc_budget":   {"arc": 9916},
		"incr_tc":     {"arc": 1029},
	}
	for name, sizes := range want {
		in := findWorkload(name).generate(1)
		for _, tab := range in.tables {
			if tab.tuples() != sizes[tab.name] {
				t.Errorf("%s: %s has %d tuples at seed 1, want %d", name, tab.name, tab.tuples(), sizes[tab.name])
			}
		}
		if name == "incr_tc" && (len(in.ins) != incrInserts || len(in.del) != incrDeletes) {
			t.Errorf("incr_tc: update stream has %d inserts and %d deletes, want %d and %d",
				len(in.ins), len(in.del), incrInserts, incrDeletes)
		}
	}
	// Derived sizes of the three inputs whose reference is cheap to compute.
	for name, tuples := range map[string]int{"tc_dense": 1000000, "csda_chain": 14243, "incr_tc": 158775} {
		w := findWorkload(name)
		in := w.generate(1)
		if got := w.ref(relations(in.tables), 1)[w.idb].count; got != tuples {
			t.Errorf("%s: reference %s has %d tuples at seed 1, want %d", name, w.idb, got, tuples)
		}
	}
}

// TestGeneratorsFollowTheSeed checks that one seed always gives the same
// bytes and that two seeds give different ones, except where a workload pins
// its structure and renames nothing (tc_budget).
func TestGeneratorsFollowTheSeed(t *testing.T) {
	// cc_rmat's shape at a size that takes milliseconds
	rmat := workload{shape: func(rng *rand.Rand) []table { return []table{genRMATUndirected(1024, 4096, rng)} }}
	gens := map[string]*workload{"rmat": &rmat}
	for i := range workloads {
		if w := &workloads[i]; w.name != "cc_rmat" {
			gens[w.name] = w
		}
	}
	for name, w := range gens {
		a, b := w.generate(1), w.generate(1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two calls with seed 1 differ", name)
		}
		seedless := w.shapeSeed != 0 && w.domain == 0
		if same := reflect.DeepEqual(a, w.generate(2)); same != seedless {
			t.Errorf("%s: seeds 1 and 2 give the same input: %v, want %v", name, same, seedless)
		}
	}
}

// TestDeletesLieOnCycles checks the property the resident workload's delete
// latency depends on: every drawn delete is an arc of the graph that a path
// leads back along.
func TestDeletesLieOnCycles(t *testing.T) {
	in := findWorkload("incr_tc").generate(3)
	arc := in.tables[0]
	adj := make(map[int32][]int32)
	for i := 0; i < len(arc.rows); i += 2 {
		adj[arc.rows[i]] = append(adj[arc.rows[i]], arc.rows[i+1])
	}
	for _, d := range in.del {
		if !reaches(adj, d[0], d[1]) || !reaches(adj, d[1], d[0]) {
			t.Errorf("delete %v is not an arc on a cycle", d)
		}
	}
}
