package exec

import (
	"fmt"
	"math"
	"slices"

	"recstep/internal/obs"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/kernels"
	"recstep/internal/quickstep/storage"
)

// AggFunc enumerates the aggregation operators RecStep's Datalog dialect
// supports (Section 3.3): MIN, MAX, SUM, COUNT, AVG.
type AggFunc int

// Aggregation operators.
const (
	AggMin AggFunc = iota
	AggMax
	AggSum
	AggCount
	AggAvg
)

// String renders the SQL name.
func (f AggFunc) String() string {
	switch f {
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	}
	return "?"
}

// AggSpec is one aggregate in a SELECT list: Func applied to Arg.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
}

// merge folds another partial state of f into st.
func (f AggFunc) merge(st, o []int64) {
	switch f {
	case AggMin:
		st[0] = min(st[0], o[0])
	case AggMax:
		st[0] = max(st[0], o[0])
	case AggSum, AggCount:
		st[0] += o[0]
	case AggAvg:
		st[0] += o[0]
		st[1] += o[1]
	}
}

// final renders f's state as the aggregate's value.
func (f AggFunc) final(st []int64) int32 {
	switch f {
	case AggMin, AggMax, AggSum, AggCount:
		return int32(st[0])
	case AggAvg:
		if st[1] == 0 {
			return 0
		}
		return int32(st[0] / st[1]) // integer AVG, like QuickStep over INT columns
	}
	panic(fmt.Sprintf("exec: unknown aggregate %d", f))
}

// aggTable is one group table with its aggregate states: group g's states
// sit at states[g*width:], aggregate j's at offset offs[j] within them. A
// plain-column argument is read straight from the row (argCols[j] >= 0)
// instead of through expr.Eval. folded counts the rows folded in; hash,
// order and ends are the merge's sort of the groups by split (see split).
type aggTable struct {
	groups  *GroupTable
	groupBy []int
	aggs    []AggSpec
	argCols []int
	offs    []int
	init    []int64 // one group's initial states
	states  []int64
	folded  int64
	hash    []uint64
	order   []int32
	ends    []int32
}

// takeAggTable returns an empty table for groupBy and aggs: the last one put
// back with as many key columns, kept at its grown size, or a new one.
func (p *Pool) takeAggTable(groupBy []int, aggs []AggSpec) *aggTable {
	var t *aggTable
	p.aggMu.Lock()
	for i, f := range slices.Backward(p.gtFree) {
		if f.groups.width == len(groupBy) {
			t, p.gtFree = f, slices.Delete(p.gtFree, i, i+1)
			break
		}
	}
	p.aggMu.Unlock()
	if t == nil {
		t = &aggTable{groups: NewGroupTable(len(groupBy))}
	}
	t.groupBy, t.aggs = groupBy, aggs
	t.argCols, t.offs, t.init = t.argCols[:0], t.offs[:0], t.init[:0]
	for _, a := range aggs {
		c := -1
		if col, ok := a.Arg.(expr.Col); ok {
			c = col.Index
		}
		t.argCols, t.offs = append(t.argCols, c), append(t.offs, len(t.init))
		switch a.Func { // the identity of the fold
		case AggMin:
			t.init = append(t.init, math.MaxInt32)
		case AggMax:
			t.init = append(t.init, math.MinInt32)
		case AggAvg:
			t.init = append(t.init, 0, 0)
		default:
			t.init = append(t.init, 0)
		}
	}
	return t
}

// returnAggTable empties t, in time proportional to the groups it held, and
// puts it on the free list.
func (p *Pool) returnAggTable(t *aggTable) {
	t.groups.reset()
	t.states, t.folded = t.states[:0], 0
	p.aggMu.Lock()
	p.gtFree = append(p.gtFree, t)
	p.aggMu.Unlock()
}

// foldWindow is the most rows foldRows resolves to their groups before it
// folds their values.
const foldWindow = 256

// foldRows accumulates the arity-wide rows of a row-major run — a block's
// data or a join's output window. It takes foldWindow rows at a time in two
// phases: the first finds each row's group, creating the new ones, and notes
// where the row and its group's states lie; the second runs one loop per
// aggregate over the window, its function chosen once per window.
func (t *aggTable) foldRows(data []int32, arity int) {
	n := len(data) / arity
	w := len(t.init)
	var rowAt, stAt [foldWindow]int
	var vals [foldWindow]int32
	for lo := 0; lo < n; lo += foldWindow {
		m := min(n-lo, foldWindow)
		for k := range m {
			off := (lo + k) * arity
			g, fresh := t.groups.InsertRow(data[off:off+arity:off+arity], t.groupBy)
			if fresh {
				t.states = append(growTo(t.states, t.groups.Cap()*w), t.init...)
			}
			rowAt[k], stAt[k] = off, g*w
		}
		rows, at := rowAt[:m], stAt[:m]
		for j, a := range t.aggs {
			st := t.states[t.offs[j]:]
			if a.Func == AggCount {
				for _, p := range at {
					st[p]++
				}
				continue
			}
			vs := vals[:m]
			if c := t.argCols[j]; c >= 0 {
				for k, off := range rows {
					vs[k] = data[off+c]
				}
			} else {
				for k, off := range rows {
					vs[k] = a.Arg.Eval(data[off : off+arity : off+arity])
				}
			}
			switch a.Func {
			case AggMin:
				for k, p := range at {
					st[p] = min(st[p], int64(vs[k]))
				}
			case AggMax:
				for k, p := range at {
					st[p] = max(st[p], int64(vs[k]))
				}
			case AggSum:
				for k, p := range at {
					st[p] += int64(vs[k])
				}
			case AggAvg:
				for k, p := range at {
					st[p] += int64(vs[k])
					st[p+1]++
				}
			}
		}
	}
	t.folded += int64(n)
}

// absorb merges o's groups at the indices in sel into t's, and a group t
// lacks into spill. It only reads t's table and writes the states of the
// groups it finds, so tasks merging disjoint groups may share one t.
func (t *aggTable) absorb(o *aggTable, sel []int32, spill *aggTable) {
	w := len(t.init)
	for _, g := range sel {
		key, src := o.groups.Key(int(g)), o.states[int(g)*w:int(g)*w+w]
		dst, mg := t, t.groups.Find(key, t.groups.ident)
		if mg < 0 {
			dst = spill
			var fresh bool
			if mg, fresh = spill.groups.Insert(key); fresh {
				spill.states = append(growTo(spill.states, spill.groups.Cap()*w), src...)
				continue
			}
		}
		for j, a := range t.aggs {
			a.Func.merge(dst.states[mg*w+t.offs[j]:], src[t.offs[j]:])
		}
	}
}

// split sorts the group indices by the split of their keys among parts:
// split p's groups are order[ends[p]:ends[p+1]]. With one split PartitionOf
// is 0 for any hash, so none is computed.
func (t *aggTable) split(parts int) {
	n := t.groups.Len()
	t.hash, t.order = growTo(t.hash[:0], n)[:n], growTo(t.order[:0], n)[:n]
	t.ends = append(t.ends[:0], make([]int32, parts+1)...)
	if parts > 1 {
		kernels.HashRows(t.groups.keys, t.groups.width, t.groups.ident, t.hash)
	}
	ends := t.ends[1:] // split p's count, then its start, then its end
	for _, h := range t.hash {
		ends[storage.PartitionOf(h, parts)]++
	}
	var sum int32
	for p, c := range ends {
		ends[p], sum = sum, sum+c
	}
	for g, h := range t.hash {
		p := storage.PartitionOf(h, parts)
		t.order[ends[p]] = int32(g)
		ends[p]++
	}
}

// emit writes the finalized groups at the indices in sel, or every group
// when sel is nil, as row-major batches.
func (t *aggTable) emit(write func(rows []int32), sel []int32) {
	n, w := t.groups.Len(), len(t.init)
	if sel != nil {
		n = len(sel)
	}
	buf := make([]int32, 0, min(n, kernels.BatchRows)*(len(t.groupBy)+len(t.aggs)))
	for i := range n {
		g := i
		if sel != nil {
			g = int(sel[i])
		}
		buf = append(buf, t.groups.Key(g)...)
		for j, a := range t.aggs {
			buf = append(buf, a.Func.final(t.states[g*w+t.offs[j]:]))
		}
		if len(buf) == cap(buf) {
			write(buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		write(buf)
	}
}

// HashAggregate groups in by the groupBy column positions and computes aggs
// per group: HashAggregatePartitioned with one split, so the workers' tables
// merge in one task at the end.
func HashAggregate(pool *Pool, in *storage.Relation, groupBy []int, aggs []AggSpec, outName string, outCols []string) *storage.Relation {
	return HashAggregatePartitioned(pool, in, groupBy, aggs, 1, outName, outCols)
}

// GroupAgg is the aggregate of a join-fed aggregate (JoinSpec.Agg). The join
// returns what HashAggregate over its output would — the GroupBy columns of
// an output row, then one column per aggregate, whose Arg reads that row —
// by folding its matches, where the probe produces them, into an aggregate
// table owned by its worker (see joinAgg); so the join's Projs need carry
// only the group columns and the arguments. Parts splits the groups by hash
// at the merge; the groups of one split are merged and emitted by one task.
type GroupAgg struct {
	GroupBy []int
	Aggs    []AggSpec
	Parts   int
}

// joinAgg is the aggregate half of a join-fed aggregate (JoinSpec.Agg): each
// worker folds the join's output windows where the probe produces them into
// its own table, and the merge routes groups, not rows, to parts splits (see
// merge). The join output is never written anywhere.
type joinAgg struct {
	*GroupAgg
	pool   *Pool
	tables []*aggTable // one per worker, taken on first use
}

// width is the number of output columns: the group columns, then one per
// aggregate.
func (g *GroupAgg) width() int { return len(g.GroupBy) + len(g.Aggs) }

// splits is the number of splits the merge takes: a global aggregate has
// one group, so one split.
func (g *GroupAgg) splits() int {
	if len(g.GroupBy) == 0 {
		return 1
	}
	return storage.NormalizePartitions(g.Parts)
}

func newJoinAgg(pool *Pool, g *GroupAgg) *joinAgg {
	return &joinAgg{GroupAgg: g, pool: pool, tables: make([]*aggTable, pool.Workers())}
}

// fold folds a row-major run of width-wide rows into worker's table.
func (a *joinAgg) fold(worker int, rows []int32, width int) {
	if a.tables[worker] == nil {
		a.tables[worker] = a.pool.takeAggTable(a.GroupBy, a.Aggs)
	}
	a.tables[worker].foldRows(rows, width)
}

// merge emits every group once, split p into sink p of col, and gives the
// tables back to the pool. Every table sorts its groups by split; then one
// task a split emits it from the one table holding its groups, or merges it
// into the first that does (no other task touches those groups), gathering
// the groups that one lacks in a table taken for the task.
func (a *joinAgg) merge(col *collector) {
	pool, parts := a.pool, a.splits()
	live := slices.DeleteFunc(a.tables, func(t *aggTable) bool { return t == nil })
	endSplit := pool.phase(obs.PhaseAggregate, -1)
	pool.Run(len(live), func(i int) {
		pool.Copy.AggRowsIn.Add(live[i].folded)
		live[i].split(parts)
	})
	endSplit()
	pool.RunPartitions(parts, func(p int) {
		defer pool.phase(obs.PhaseAggregate, p)()
		var base, spill *aggTable
		for _, t := range live {
			switch run := t.order[t.ends[p]:t.ends[p+1]]; {
			case len(run) == 0:
			case base == nil:
				base = t
			default:
				if spill == nil {
					spill = pool.takeAggTable(a.GroupBy, a.Aggs)
				}
				base.absorb(t, run, spill)
			}
		}
		if base == nil {
			return
		}
		write, run := col.sinkBulk(p), base.order[base.ends[p]:base.ends[p+1]]
		base.emit(write, run)
		pool.Copy.AggGroupsOut.Add(int64(len(run)))
		if spill != nil {
			spill.emit(write, nil)
			pool.Copy.AggGroupsOut.Add(int64(spill.groups.Len()))
			pool.returnAggTable(spill)
		}
	})
	for _, t := range live {
		pool.returnAggTable(t)
	}
}

// HashAggregatePartitioned groups in by the groupBy column positions and
// computes aggs per group. Output columns are the group columns followed by
// one column per aggregate, in no particular row order; the output blocks are
// pool-accounted intermediates. It is the fold of a join-fed aggregate
// (joinAgg) over the relation's own blocks: each worker folds the blocks it
// claims into its own table, so group updates never contend and no row is
// copied or routed before it is folded, and the merge splits the groups by
// hash into parts. A global aggregate (no group-by) and parts <= 1 take one
// split.
func HashAggregatePartitioned(pool *Pool, in *storage.Relation, groupBy []int, aggs []AggSpec, parts int, outName string, outCols []string) *storage.Relation {
	if len(aggs) == 0 {
		panic("exec: HashAggregate requires at least one aggregate")
	}
	a := newJoinAgg(pool, &GroupAgg{GroupBy: groupBy, Aggs: aggs, Parts: parts})
	blocks, arity := in.Blocks(), in.Arity()
	endFold := pool.phase(obs.PhaseAggregate, -1)
	pool.runTasksPerWorker(len(blocks), func(worker, t int) {
		a.fold(worker, blocks[t].Data(), arity)
	})
	endFold()
	col := newCollector(pool, storage.CatIntermediate, a.width(), a.splits())
	if !pool.Aborted() {
		a.merge(col)
	}
	return col.into(outName, outCols)
}
