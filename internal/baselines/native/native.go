// Package native is the "Soufflé-like" comparator: hand-specialized,
// compiled-style parallel evaluators for each benchmark program, standing in
// for the native C++ code Soufflé synthesizes (the real system cannot be
// run offline; docs/ARCHITECTURE.md lists the comparators under "`cmd`,
// `examples`, `internal/experiments`"). Each evaluator works directly
// on indexed in-memory structures with semi-naive frontiers — no SQL, no
// per-iteration catalog work — so it exhibits Soufflé's profile: excellent
// straight-line speed, workload-dependent parallelism.
package native

import (
	"runtime"
	"sort"
	"sync"

	"recstep/internal/quickstep/storage"
)

// adjacency builds out[x] = sorted {y : rel(x, y)}.
func adjacency(rel *storage.Relation) map[int32][]int32 {
	out := make(map[int32][]int32)
	rel.ForEach(func(t []int32) { out[t[0]] = append(out[t[0]], t[1]) })
	for k := range out {
		s := out[k]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[k] = dedupSorted(s)
	}
	return out
}

func dedupSorted(s []int32) []int32 {
	w := 0
	for i, v := range s {
		if i == 0 || v != s[w-1] {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

func workerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// TC computes the transitive closure: one BFS per source vertex, sources
// partitioned across workers (the specialization Soufflé reaches for TC
// once indexes are inlined).
func TC(arc *storage.Relation, workers int) *storage.Relation {
	adj := adjacency(arc)
	sources := make([]int32, 0, len(adj))
	maxV := int32(-1)
	for s, outs := range adj {
		sources = append(sources, s)
		if s > maxV {
			maxV = s
		}
		for _, y := range outs {
			if y > maxV {
				maxV = y
			}
		}
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	n := int(maxV + 1)
	k := workerCount(workers)

	out := storage.NewRelation("tc", []string{"c0", "c1"})
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			visited := make([]bool, n)
			var stack, touched []int32
			var rows []int32
			for si := w; si < len(sources); si += k {
				src := sources[si]
				stack = append(stack[:0], adj[src]...)
				touched = touched[:0]
				for _, y := range stack {
					if !visited[y] {
						visited[y] = true
						touched = append(touched, y)
					}
				}
				for len(stack) > 0 {
					z := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					rows = append(rows, src, z)
					for _, y := range adj[z] {
						if !visited[y] {
							visited[y] = true
							touched = append(touched, y)
							stack = append(stack, y)
						}
					}
				}
				for _, v := range touched {
					visited[v] = false
				}
			}
			mu.Lock()
			out.AppendRows(rows)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return out
}

// Reach computes vertices reachable from src (plus src itself, per the
// reach(y) :- id(y) base rule).
func Reach(arc *storage.Relation, src int32, workers int) *storage.Relation {
	adj := adjacency(arc)
	visited := map[int32]bool{src: true}
	frontier := []int32{src}
	for len(frontier) > 0 {
		var next []int32
		for _, x := range frontier {
			for _, y := range adj[x] {
				if !visited[y] {
					visited[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	out := storage.NewRelation("reach", []string{"c0"})
	keys := make([]int32, 0, len(visited))
	for v := range visited {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, v := range keys {
		out.Append([]int32{v})
	}
	return out
}

// SG computes same generation with a pair frontier over the parent index,
// mirroring Algorithm 3's derivation order on hash sets.
func SG(arc *storage.Relation, workers int) *storage.Relation {
	adj := adjacency(arc) // parent → children
	type pr struct{ a, b int32 }
	set := make(map[pr]bool)
	var frontier []pr
	add := func(p pr) {
		if !set[p] {
			set[p] = true
			frontier = append(frontier, p)
		}
	}
	// Base rule carries x != y; the recursive rule does not, so diagonal
	// pairs may appear through expansion.
	for _, kids := range adj {
		for _, x := range kids {
			for _, y := range kids {
				if x != y {
					add(pr{x, y})
				}
			}
		}
	}
	for len(frontier) > 0 {
		cur := frontier
		frontier = nil
		for _, p := range cur {
			for _, q := range adj[p.a] {
				for _, r := range adj[p.b] {
					add(pr{q, r})
				}
			}
		}
	}
	out := storage.NewRelation("sg", []string{"c0", "c1"})
	pairs := make([]pr, 0, len(set))
	for p := range set {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, p := range pairs {
		out.Append([]int32{p.a, p.b})
	}
	return out
}

// CC computes connected-component labels by synchronous min-label rounds,
// parallel over the vertex set (the arc relation must contain both edge
// directions, matching the Datalog CC program's usage).
func CC(arc *storage.Relation, workers int) *storage.Relation {
	adj := adjacency(arc)
	var vertices []int32
	seen := map[int32]bool{}
	arc.ForEach(func(t []int32) {
		for _, v := range t {
			if !seen[v] {
				seen[v] = true
				vertices = append(vertices, v)
			}
		}
	})
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })
	label := make(map[int32]int32, len(vertices))
	for _, v := range vertices {
		label[v] = v
	}
	k := workerCount(workers)
	for {
		type upd struct{ v, l int32 }
		updates := make([][]upd, k)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var local []upd
				for i := w; i < len(vertices); i += k {
					x := vertices[i]
					lx := label[x]
					for _, y := range adj[x] {
						if lx < label[y] {
							local = append(local, upd{y, lx})
						}
					}
				}
				updates[w] = local
			}(w)
		}
		wg.Wait()
		changed := false
		for _, batch := range updates {
			for _, u := range batch {
				if u.l < label[u.v] {
					label[u.v] = u.l
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	out := storage.NewRelation("cc2", []string{"c0", "c1"})
	for _, v := range vertices {
		out.Append([]int32{v, label[v]})
	}
	return out
}

// SSSP computes single-source shortest paths by Bellman-Ford rounds over a
// delta frontier (the iteration structure of the Datalog SSSP program).
// arc has arity 3: (x, y, weight).
func SSSP(arc *storage.Relation, src int32, workers int) *storage.Relation {
	type edge struct{ to, w int32 }
	adj := make(map[int32][]edge)
	arc.ForEach(func(t []int32) { adj[t[0]] = append(adj[t[0]], edge{t[1], t[2]}) })
	dist := map[int32]int32{src: 0}
	frontier := []int32{src}
	for len(frontier) > 0 {
		var next []int32
		inNext := map[int32]bool{}
		for _, x := range frontier {
			dx := dist[x]
			for _, e := range adj[x] {
				nd := dx + e.w
				if cur, ok := dist[e.to]; !ok || nd < cur {
					dist[e.to] = nd
					if !inNext[e.to] {
						inNext[e.to] = true
						next = append(next, e.to)
					}
				}
			}
		}
		frontier = next
	}
	out := storage.NewRelation("sssp", []string{"c0", "c1"})
	keys := make([]int32, 0, len(dist))
	for v := range dist {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, v := range keys {
		out.Append([]int32{v, dist[v]})
	}
	return out
}
