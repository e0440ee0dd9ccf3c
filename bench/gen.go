package main

import (
	"math/rand"

	"recstep/internal/quickstep/storage"
)

// The generators below are the benchmark's own copies of the GnP, RMAT, CSPA
// and CSDA input shapes. They are pinned here, and draw only from the seed
// they are given, so that an edit to internal/graphs or internal/pa cannot
// move the benchmark's inputs.

// table is one generated base relation: flat row-major int32 tuples.
type table struct {
	name  string
	arity int
	rows  []int32
}

func (t table) tuples() int { return len(t.rows) / t.arity }

// relation copies the table into a fresh engine relation.
func (t table) relation() *storage.Relation {
	rel := storage.NewRelation(t.name, storage.NumberedColumns(t.arity))
	rel.AppendRows(t.rows)
	return rel
}

// relations builds the EDB map an Engine.Run takes.
func relations(tables []table) map[string]*storage.Relation {
	out := make(map[string]*storage.Relation, len(tables))
	for _, t := range tables {
		out[t.name] = t.relation()
	}
	return out
}

// genGnP draws a directed Gn-p graph: every ordered pair (i, j), i ≠ j, is an
// arc with probability p.
func genGnP(n int, p float64, rng *rand.Rand) table {
	var rows []int32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				rows = append(rows, int32(i), int32(j))
			}
		}
	}
	return table{"arc", 2, rows}
}

// genRMATUndirected draws m distinct R-MAT arcs over n vertices (n a power of
// two) with the (0.57, 0.19, 0.19, 0.05) quadrant probabilities, and follows
// each arc with its reverse: min-label propagation needs both directions.
func genRMATUndirected(n, m int, rng *rand.Rand) table {
	const a, b, c = 0.57, 0.19, 0.19
	seen := make(map[int64]struct{}, m)
	rows := make([]int32, 0, 4*m)
	for len(seen) < m {
		x, y := 0, 0
		for step := n; step > 1; step /= 2 {
			r := rng.Float64()
			switch {
			case r < a:
			case r < a+b:
				y += step / 2
			case r < a+b+c:
				x += step / 2
			default:
				x += step / 2
				y += step / 2
			}
		}
		key := int64(x)<<32 | int64(y)
		if _, dup := seen[key]; dup || x == y {
			continue
		}
		seen[key] = struct{}{}
		rows = append(rows, int32(x), int32(y), int32(y), int32(x))
	}
	return table{"arc", 2, rows}
}

// genCSPA draws assign/dereference facts over vars variables grouped into
// clusters of 20: assignments are forward edges inside a cluster with a rare
// call edge into the next cluster, and dereferences stay inside the
// pointer's cluster, so value flow is deep but locally bounded.
func genCSPA(vars, assignPer, derefRatio int, rng *rand.Rand) []table {
	const cluster = 20
	var assign, deref []int32
	for i := 0; i < vars*assignPer/10; i++ {
		src := rng.Intn(vars - 1)
		end := min(src-src%cluster+cluster, vars)
		var dst int
		if rng.Intn(30) == 0 && end+cluster <= vars {
			dst = end + rng.Intn(cluster)
		} else if src+1 < end {
			dst = src + 1 + rng.Intn(end-src-1)
		} else {
			continue
		}
		assign = append(assign, int32(src), int32(dst))
	}
	pointers := max(vars/4, 1)
	clusters := (vars + cluster - 1) / cluster
	for i := 0; i < vars/derefRatio; i++ {
		p := rng.Intn(pointers)
		base := (p % clusters) * cluster
		width := min(cluster, vars-base)
		deref = append(deref, int32(p), int32(base+rng.Intn(width)))
	}
	return []table{{"assign", 2, assign}, {"dereference", 2, deref}}
}

// csdaNullBase is the first null-source identifier, far above any chain
// vertex.
const csdaNullBase = 1_000_000

// genCSDA builds chains parallel dataflow chains of the given length with a
// sparse cross arc between neighbouring chains, and nulls null sources that
// each enter a chain in its first quarter. The first source enters chain 0 at
// its head, so the fixpoint runs one iteration per chain position whatever
// the seed.
func genCSDA(chains, length, nulls int, rng *rand.Rand) []table {
	id := func(chain, pos int) int32 { return int32(chain*length + pos) }
	var arc, nullEdge []int32
	for c := 0; c < chains; c++ {
		for i := 0; i < length-1; i++ {
			arc = append(arc, id(c, i), id(c, i+1))
		}
		if c > 0 && rng.Intn(2) == 0 {
			at := rng.Intn(length - 1)
			arc = append(arc, id(c-1, at), id(c, at+1))
		}
	}
	nullEdge = append(nullEdge, csdaNullBase, id(0, 0))
	for i := 1; i < nulls; i++ {
		nullEdge = append(nullEdge, int32(csdaNullBase+i), id(rng.Intn(chains), rng.Intn(length/4)))
	}
	return []table{{"arc", 2, arc}, {"nullEdge", 2, nullEdge}}
}

// relabel renames every value below n by one permutation drawn from rng: the
// same structure in the same tuple order, under other identifiers.
func relabel(tables []table, n int, rng *rand.Rand) {
	perm := rng.Perm(n)
	for _, t := range tables {
		for i, v := range t.rows {
			if int(v) < n {
				t.rows[i] = int32(perm[v])
			}
		}
	}
}

// genArcUpdates draws the update stream of a resident graph over n vertices:
// nIns distinct arcs that arc does not hold, and nDel distinct arcs that it
// does. The deletes are drawn from the arcs that lie on a cycle: deleting
// one makes DRed over-delete and rescue the closure of its whole strongly
// connected component (seconds), where an arc off every cycle costs
// milliseconds, and a median over a handful of deletes would flip between
// the two with the seed.
func genArcUpdates(arc table, n, nIns, nDel int, rng *rand.Rand) (ins, del [][]int32) {
	present := make(map[[2]int32]bool, arc.tuples())
	adj := make(map[int32][]int32)
	for i := 0; i < len(arc.rows); i += 2 {
		present[[2]int32{arc.rows[i], arc.rows[i+1]}] = true
		adj[arc.rows[i]] = append(adj[arc.rows[i]], arc.rows[i+1])
	}
	for len(ins) < nIns {
		a := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		if a[0] == a[1] || present[a] {
			continue
		}
		present[a] = true
		ins = append(ins, []int32{a[0], a[1]})
	}
	for _, i := range rng.Perm(arc.tuples()) {
		if len(del) == nDel {
			break
		}
		if u, v := arc.rows[2*i], arc.rows[2*i+1]; reaches(adj, v, u) {
			del = append(del, []int32{u, v})
		}
	}
	return ins, del
}

// reaches reports whether a path leads from src to dst.
func reaches(adj map[int32][]int32, src, dst int32) bool {
	seen := map[int32]bool{src: true}
	stack := []int32{src}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == dst {
			return true
		}
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return false
}
