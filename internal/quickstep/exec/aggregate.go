package exec

import (
	"fmt"
	"math"

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
// instead of through expr.Eval. folded counts the rows folded in.
type aggTable struct {
	groups  *GroupTable
	groupBy []int
	aggs    []AggSpec
	argCols []int
	offs    []int
	init    []int64 // one group's initial states
	states  []int64
	folded  int64
}

func newAggTable(groupBy []int, aggs []AggSpec) *aggTable {
	t := &aggTable{groups: NewGroupTable(len(groupBy)), groupBy: groupBy, aggs: aggs,
		argCols: make([]int, len(aggs)), offs: make([]int, len(aggs))}
	for j, a := range aggs {
		t.argCols[j] = -1
		if c, ok := a.Arg.(expr.Col); ok {
			t.argCols[j] = c.Index
		}
		t.offs[j] = len(t.init)
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

// foldWindow is the most rows foldRows resolves to their groups before it
// folds their values.
const foldWindow = 256

// foldRows accumulates the arity-wide rows of a row-major run — a block's
// data or a join's output window — at the indices in sel, in that order, or
// every row of the run when sel is nil. It takes foldWindow rows at a time
// in two phases: the first finds each row's group, creating the new ones,
// and notes where the row and its group's states lie; the second runs one
// loop per aggregate over the window, its function chosen once per window.
func (t *aggTable) foldRows(data []int32, arity int, sel []int32) {
	n := len(sel)
	if sel == nil {
		n = len(data) / arity
	}
	w := len(t.init)
	var rowAt, stAt [foldWindow]int
	var vals [foldWindow]int32
	for lo := 0; lo < n; lo += foldWindow {
		m := min(n-lo, foldWindow)
		for k := range m {
			off := (lo + k) * arity
			if sel != nil {
				off = int(sel[lo+k]) * arity
			}
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

// absorb merges another table's groups into t, table to table.
func (t *aggTable) absorb(o *aggTable) {
	w := len(t.init)
	for g := 0; g < o.groups.Len(); g++ {
		mg, fresh := t.groups.Insert(o.groups.Key(g))
		src := o.states[g*w : g*w+w]
		if fresh {
			t.states = append(growTo(t.states, t.groups.Cap()*w), src...)
			continue
		}
		for j, a := range t.aggs {
			a.Func.merge(t.states[mg*w+t.offs[j]:], src[t.offs[j]:])
		}
	}
}

// emit writes the finalized groups, in group order, as row-major batches.
func (t *aggTable) emit(write func(rows []int32)) {
	n, w := t.groups.Len(), len(t.init)
	buf := make([]int32, 0, min(n, kernels.BatchRows)*(len(t.groupBy)+len(t.aggs)))
	for g := 0; g < n; g++ {
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
// per group: HashAggregatePartitioned with one split, so every worker folds
// into one table and the tables merge table to table at the end.
func HashAggregate(pool *Pool, in *storage.Relation, groupBy []int, aggs []AggSpec, outName string, outCols []string) *storage.Relation {
	return HashAggregatePartitioned(pool, in, groupBy, aggs, 1, outName, outCols)
}

// mergeSplit merges split p of per-worker tables — tables[w*parts+p], nil
// where worker w folded nothing into it — table to table into the first one
// present, and emits its groups into sink p of col.
func mergeSplit(pool *Pool, tables []*aggTable, parts, p int, col *collector) {
	var merged *aggTable
	for i := p; i < len(tables); i += parts {
		local := tables[i]
		if local == nil {
			continue
		}
		pool.Copy.AggRowsIn.Add(local.folded)
		if merged == nil {
			merged = local
		} else {
			merged.absorb(local)
		}
	}
	if merged != nil {
		pool.Copy.AggGroupsOut.Add(int64(merged.groups.Len()))
		merged.emit(col.sinkBulk(p))
	}
}

// GroupAgg is the aggregate of a join-fed aggregate (JoinSpec.Agg). The join
// returns what HashAggregate over its output would — the GroupBy columns of
// an output row, then one column per aggregate, whose Arg reads that row —
// by folding its matches, where the probe produces them, into aggregate
// tables owned by its worker (see joinAgg); so the join's Projs need carry
// only the group columns and the arguments. Parts splits every worker's
// tables by group hash; the groups of one split are merged and emitted by
// one task.
type GroupAgg struct {
	GroupBy []int
	Aggs    []AggSpec
	Parts   int
}

// joinAgg is the aggregate half of a join-fed aggregate (JoinSpec.Agg): each
// worker folds the join's output windows where the probe produces them into
// its own tables, split by group hash into parts, and at the end split p of
// every worker's tables is merged by one task and emitted into sink p. The
// join output is never written anywhere, and no group is scattered: the
// split a row folds into already is the one its group is emitted from.
type joinAgg struct {
	*GroupAgg
	parts  int
	tables []*aggTable // tables[worker*parts+p], made on first use
}

// width is the number of output columns: the group columns, then one per
// aggregate.
func (g *GroupAgg) width() int { return len(g.GroupBy) + len(g.Aggs) }

// splits is the number of splits the tables take: a global aggregate has
// one group, so one split.
func (g *GroupAgg) splits() int {
	if len(g.GroupBy) == 0 {
		return 1
	}
	return storage.NormalizePartitions(g.Parts)
}

func newJoinAgg(g *GroupAgg, workers int) *joinAgg {
	parts := g.splits()
	return &joinAgg{GroupAgg: g, parts: parts, tables: make([]*aggTable, workers*parts)}
}

// table returns worker's table of split p.
func (a *joinAgg) table(worker, p int) *aggTable {
	i := worker*a.parts + p
	if a.tables[i] == nil {
		a.tables[i] = newAggTable(a.GroupBy, a.Aggs)
	}
	return a.tables[i]
}

// fold folds a window of at most kernels.BatchRows width-wide rows into
// worker's tables; with more than one split, buf's route sorts the window by
// split first, so each split's rows are folded into its table in one run.
func (a *joinAgg) fold(worker int, rows []int32, width int, buf *batchBuf) {
	if a.parts == 1 {
		a.table(worker, 0).foldRows(rows, width, nil)
		return
	}
	_, order, ends := buf.route(rows, width, a.GroupBy, a.parts)
	lo := int32(0)
	for p, hi := range ends {
		if hi > lo {
			a.table(worker, p).foldRows(rows, width, order[lo:hi])
		}
		lo = hi
	}
}

// merge merges and emits every split, one task a split, into col, whose sink
// p receives split p.
func (a *joinAgg) merge(pool *Pool, col *collector) {
	pool.RunPartitions(a.parts, func(p int) {
		defer pool.phase(obs.PhaseAggregate, p)()
		mergeSplit(pool, a.tables, a.parts, p, col)
	})
}

// HashAggregatePartitioned groups in by the groupBy column positions and
// computes aggs per group. Output columns are the group columns followed by
// one column per aggregate, in no particular row order; the output blocks are
// pool-accounted intermediates. It is the fold of a join-fed aggregate
// (joinAgg) over the relation's own blocks: each worker folds the blocks it
// claims into its own tables, split by group hash into parts, and split p of
// every worker's tables is merged by one task, so group updates never contend
// and no row is copied before it is folded. A global aggregate (no group-by)
// and parts <= 1 take one split.
func HashAggregatePartitioned(pool *Pool, in *storage.Relation, groupBy []int, aggs []AggSpec, parts int, outName string, outCols []string) *storage.Relation {
	if len(aggs) == 0 {
		panic("exec: HashAggregate requires at least one aggregate")
	}
	a := newJoinAgg(&GroupAgg{GroupBy: groupBy, Aggs: aggs, Parts: parts}, pool.Workers())
	blocks := in.Blocks()
	arity := in.Arity()
	endFold := pool.phase(obs.PhaseAggregate, -1)
	pool.runTasksPerWorker(len(blocks), func(worker, t int) {
		data := blocks[t].Data()
		if a.parts == 1 {
			a.fold(worker, data, arity, nil)
			return
		}
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		step := kernels.BatchRows * arity
		for off := 0; off < len(data); off += step {
			a.fold(worker, data[off:min(off+step, len(data))], arity, buf)
		}
	})
	endFold()
	col := newCollector(pool, storage.CatIntermediate, a.width(), a.parts)
	if !pool.Aborted() {
		a.merge(pool, col)
	}
	return col.into(outName, outCols)
}
