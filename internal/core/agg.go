package core

import (
	"fmt"

	"recstep/internal/datalog/analysis"
	"recstep/internal/quickstep/exec"
	"recstep/internal/quickstep/optimizer"
	"recstep/internal/quickstep/storage"
)

// aggMerge maintains the running state of one recursive aggregate (MIN or
// MAX inside recursion, Section 3.3). Instead of dedup + set difference, the
// engine merges each iteration's candidate tuples into a per-group best
// value; the delta is the set of groups whose value improved. MIN/MAX are
// monotone under set growth, so this converges to the same fixpoint as
// naive evaluation.
//
// The state is radix-partitioned on the group columns: a group's rows all
// route to one partition, so each partition merges against its private
// group table with no locks — the partition-parallel aggregate merge that
// lets CC and SSSP run the partition-native pipeline instead of the staged
// serial one. The fan-out is fixed at the first merge (re-bucketing the
// state would re-hash every group) and both ∆R and the materialized full
// relation are emitted as carried partitioned relations, so the next
// iteration's candidate query lands pre-partitioned (fused scatter) and its
// hash builds over ∆R reuse the carried partitions in place.
type aggMerge struct {
	spec  *analysis.AggSpec
	arity int
	isMin bool
	// fixedParts pins the fan-out (the -partitions override); 0 = choose
	// from the first candidate's cardinality.
	fixedParts int
	// parts is the state fan-out: 0 = not yet chosen, 1 = serial.
	parts int
	// state holds one group table per partition (index 0 holds everything
	// on the serial path).
	state []*aggPart
	// epoch numbers the merges; a group stamped with the current epoch was
	// created or improved by this merge.
	epoch uint32
}

// aggPart is one partition's state: the group table plus, parallel to its
// group indices, each group's best value and the epoch that last changed it.
type aggPart struct {
	groups *exec.GroupTable
	best   []int32
	stamp  []uint32
}

func newAggMerge(spec *analysis.AggSpec, arity int) *aggMerge {
	if spec == nil || (spec.Func != "MIN" && spec.Func != "MAX") {
		panic(fmt.Sprintf("core: recursive aggregate requires MIN or MAX, got %+v", spec))
	}
	return &aggMerge{
		spec:  spec,
		arity: arity,
		isMin: spec.Func == "MIN",
	}
}

// partitioning returns the descriptor the state is bucketed on, once a
// partitioned fan-out has been fixed. The engine registers it as the output
// partitioning of the candidate query, so candidates arrive pre-scattered.
func (m *aggMerge) partitioning() (storage.Partitioning, bool) {
	if m.parts <= 1 {
		return storage.Partitioning{}, false
	}
	return storage.Partitioning{KeyCols: m.spec.GroupPos, Parts: m.parts}, true
}

// ensureState sizes the state fan-out for this merge. Frontier-expanding
// aggregates (SSSP from a single source) start with near-empty candidates
// and grow, so the fan-out is re-evaluated every merge and only ever
// *upgraded*: raising it re-buckets the accumulated groups once per tier
// (at most 1→16→64→256 over a whole run, O(groups) each), while
// downgrades never happen — the carried ∆R partitioning must not thrash.
func (m *aggMerge) ensureState(candTuples, workers int) {
	want := 1
	if len(m.spec.GroupPos) > 0 {
		if m.fixedParts > 0 {
			want = storage.NormalizePartitions(m.fixedParts)
		} else {
			want = optimizer.ChoosePartitions(candTuples, workers)
		}
	}
	if m.parts == 0 {
		m.parts = want
		m.state = m.newState(want)
		return
	}
	if want > m.parts {
		m.rebucket(want)
	}
}

func (m *aggMerge) newState(parts int) []*aggPart {
	state := make([]*aggPart, parts)
	for p := range state {
		state[p] = &aggPart{groups: exec.NewGroupTable(len(m.spec.GroupPos))}
	}
	return state
}

// rebucket re-inserts every tracked group into a wider partition layout.
func (m *aggMerge) rebucket(parts int) {
	state := m.newState(parts)
	ident := storage.AllCols(len(m.spec.GroupPos))
	for _, old := range m.state {
		for g := 0; g < old.groups.Len(); g++ {
			key := old.groups.Key(g)
			dst := state[storage.PartitionOf(storage.PartitionHash(key, ident), parts)]
			dst.groups.Insert(key)
			dst.best = append(dst.best, old.best[g])
			dst.stamp = append(dst.stamp, old.stamp[g])
		}
	}
	m.parts = parts
	m.state = state
}

// mergePartition folds the candidate rows of one partition into that
// partition's state in one pass and returns the groups the merge created or
// improved as row-major delta data, in the order they first changed. All
// state touched is partition-private.
func (m *aggMerge) mergePartition(p int, blocks []*storage.Block) []int32 {
	st, epoch := m.state[p], m.epoch
	gp, pos := m.spec.GroupPos, m.spec.Pos
	var changed []int32
	for _, b := range blocks {
		arity, data := b.Arity(), b.Data()
		for off := 0; off < len(data); off += arity {
			row := data[off : off+arity : off+arity]
			v := row[pos]
			g, fresh := st.groups.InsertRow(row, gp)
			switch {
			case fresh:
				st.best = append(st.best, v)
				st.stamp = append(st.stamp, epoch)
			case m.better(v, st.best[g]):
				st.best[g] = v
				if st.stamp[g] == epoch {
					continue
				}
				st.stamp[g] = epoch
			default:
				continue
			}
			changed = append(changed, int32(g))
		}
	}
	out := make([]int32, 0, len(changed)*m.arity)
	for _, g := range changed {
		out = m.appendRow(out, st, int(g))
	}
	return out
}

// appendRow appends group g of st as a full row: group columns in place,
// the best value at the aggregate position.
func (m *aggMerge) appendRow(out []int32, st *aggPart, g int) []int32 {
	n := len(out)
	out = append(out, make([]int32, m.arity)...)
	row, key := out[n:], st.groups.Key(g)
	for i, c := range m.spec.GroupPos {
		row[c] = key[i]
	}
	row[m.spec.Pos] = st.best[g]
	return out
}

// merge folds the candidate relation into the state and returns the delta
// relation named deltaName: the groups whose value improved. On the
// partitioned path the candidate is consumed as group-column radix
// partitions (reusing a carried partitioning when the candidate query
// scattered its output at the source), partitions merge in parallel with
// partition-affine scheduling, and ∆R is emitted partition-native — it
// carries the group partitioning, so the next iteration's hash builds over
// it need no scatter.
func (m *aggMerge) merge(pool *exec.Pool, lc storage.Lifecycle, cand *storage.Relation, deltaName string) *storage.Relation {
	m.ensureState(cand.NumTuples(), pool.Workers())
	m.epoch++
	if m.parts <= 1 {
		rows := m.mergePartition(0, cand.Blocks())
		delta := storage.NewRelation(deltaName, storage.NumberedColumns(m.arity))
		delta.SetLifecycle(lc, storage.CatDelta)
		delta.AppendRows(rows)
		return delta
	}

	view := exec.PartitionRelation(pool, cand, m.spec.GroupPos, m.parts)
	blocks := make([][]*storage.Block, m.parts)
	scattered := int64(0)
	pool.RunPartitions(m.parts, func(p int) {
		rows := m.mergePartition(p, view.Blocks(p))
		blocks[p] = storage.BlocksFromRows(lc, storage.CatDelta, m.arity, rows)
	})
	for _, bs := range blocks {
		for _, b := range bs {
			scattered += int64(b.Rows())
		}
	}
	pool.Copy.Scattered.Add(scattered)
	delta := storage.NewRelation(deltaName, storage.NumberedColumns(m.arity))
	delta.SetLifecycle(lc, storage.CatDelta)
	delta.AdoptPartitioned(storage.NewPartitionedView(m.spec.GroupPos, m.parts, blocks))
	return delta
}

func (m *aggMerge) better(a, b int32) bool {
	if m.isMin {
		return a < b
	}
	return a > b
}

// materialize builds the predicate's full relation from the state: one row
// per group holding the current best value, in table order. On the
// partitioned path the relation is emitted partition-native and carries the
// group partitioning, so joins against the full relation (programs that
// rebuild it every iteration) reuse the partitions in place too.
func (m *aggMerge) materialize(lc storage.Lifecycle, name string) *storage.Relation {
	rel := storage.NewRelation(name, storage.NumberedColumns(m.arity))
	rel.SetLifecycle(lc, storage.CatIDB)
	if m.parts == 0 {
		return rel
	}
	emit := func(p int) []int32 {
		st := m.state[p]
		out := make([]int32, 0, st.groups.Len()*m.arity)
		for g := 0; g < st.groups.Len(); g++ {
			out = m.appendRow(out, st, g)
		}
		return out
	}
	if m.parts <= 1 {
		rel.AppendRows(emit(0))
		return rel
	}
	blocks := make([][]*storage.Block, m.parts)
	for p := 0; p < m.parts; p++ {
		blocks[p] = storage.BlocksFromRows(lc, storage.CatIDB, m.arity, emit(p))
	}
	rel.AdoptPartitioned(storage.NewPartitionedView(m.spec.GroupPos, m.parts, blocks))
	return rel
}
