package exec

import (
	"fmt"
	"math"
	"sync/atomic"

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

// add folds one value into f's state: one int64 word, or the sum and the
// count for AVG.
func (f AggFunc) add(st []int64, v int32) {
	switch f {
	case AggMin:
		st[0] = min(st[0], int64(v))
	case AggMax:
		st[0] = max(st[0], int64(v))
	case AggSum:
		st[0] += int64(v)
	case AggCount:
		st[0]++
	case AggAvg:
		st[0] += int64(v)
		st[1]++
	}
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

// group returns the states of row's group, creating the group if needed.
func (t *aggTable) group(row []int32) []int64 {
	w := len(t.init)
	g, fresh := t.groups.InsertRow(row, t.groupBy)
	if fresh {
		t.states = append(growTo(t.states, t.groups.Cap()*w), t.init...)
	}
	return t.states[g*w : g*w+w : g*w+w]
}

// fold accumulates every row of blocks. The scan walks each block's flat
// data directly in arity-strided chunks.
func (t *aggTable) fold(blocks []*storage.Block) {
	for _, b := range blocks {
		arity := b.Arity()
		data := b.Data()
		for off := 0; off < len(data); off += arity {
			row := data[off : off+arity : off+arity]
			st := t.group(row)
			for j, a := range t.aggs {
				var v int32
				if c := t.argCols[j]; c >= 0 {
					v = row[c]
				} else {
					v = a.Arg.Eval(row)
				}
				a.Func.add(st[t.offs[j]:], v)
			}
		}
		t.folded += int64(b.Rows())
	}
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
// per group. Output columns are the group columns followed by one column per
// aggregate, in no particular row order. Runs with per-worker group tables
// merged table to table at the end, so group updates never contend; the
// output blocks are pool-accounted intermediates.
func HashAggregate(pool *Pool, in *storage.Relation, groupBy []int, aggs []AggSpec, outName string, outCols []string) *storage.Relation {
	if len(aggs) == 0 {
		panic("exec: HashAggregate requires at least one aggregate")
	}
	defer pool.phase(obs.PhaseAggregate, -1)()
	blocks := in.Blocks()
	workers := pool.Workers()
	partials := make([]*aggTable, workers)

	var nextBlock atomic.Int64
	pool.RunWorkers(workers, func(worker, numWorkers int) {
		local := newAggTable(groupBy, aggs)
		partials[worker] = local
		for {
			t := int(nextBlock.Add(1)) - 1
			if t >= len(blocks) || pool.Aborted() {
				return
			}
			local.fold(blocks[t : t+1])
		}
	})

	var merged *aggTable
	for _, local := range partials {
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
	col := newCollector(pool, storage.CatIntermediate, len(groupBy)+len(aggs), 1)
	if merged != nil {
		pool.Copy.AggGroupsOut.Add(int64(merged.groups.Len()))
		merged.emit(col.sinkBulk(0))
	}
	return col.into(outName, outCols)
}

// HashAggregatePartitioned is HashAggregate over parts radix partitions of
// the input on its group-by columns. A group's rows all land in the same
// partition, so each partition aggregates and finalizes its own table — no
// cross-worker merge phase at all. Global aggregation (no group-by) and
// parts <= 1 fall back to the merge-based path.
func HashAggregatePartitioned(pool *Pool, in *storage.Relation, groupBy []int, aggs []AggSpec, parts int, outName string, outCols []string) *storage.Relation {
	parts = storage.NormalizePartitions(parts)
	if parts <= 1 || len(groupBy) == 0 {
		return HashAggregate(pool, in, groupBy, aggs, outName, outCols)
	}
	if len(aggs) == 0 {
		panic("exec: HashAggregate requires at least one aggregate")
	}
	view := PartitionRelation(pool, in, groupBy, parts)
	col := newCollector(pool, storage.CatIntermediate, len(groupBy)+len(aggs), parts)
	pool.RunPartitions(parts, func(p int) {
		defer pool.phase(obs.PhaseAggregate, p)()
		local := newAggTable(groupBy, aggs)
		local.fold(view.Blocks(p))
		pool.Copy.AggRowsIn.Add(local.folded)
		pool.Copy.AggGroupsOut.Add(int64(local.groups.Len()))
		local.emit(col.sinkBulk(p))
	})
	return col.into(outName, outCols)
}
