package exec

import (
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// colIndexes returns the source column per projection when every
// projection is a plain column reference, enabling the copy fast path.
func colIndexes(projs []expr.Expr) ([]int, bool) {
	idx := make([]int, len(projs))
	for i, p := range projs {
		c, ok := p.(expr.Col)
		if !ok {
			return nil, false
		}
		idx[i] = c.Index
	}
	return idx, true
}

// isIdentity reports whether the projection list copies an arity-wide row
// unchanged.
func isIdentity(idx []int, arity int) bool {
	if len(idx) != arity {
		return false
	}
	for i, c := range idx {
		if c != i {
			return false
		}
	}
	return true
}

// SelectProject scans in, keeps rows satisfying every predicate, and emits
// the projections. It covers single-table SELECTs and pushes single-alias
// predicates below joins. A predicate-free identity projection shares the
// input's blocks instead of copying.
func SelectProject(pool *Pool, in *storage.Relation, preds []expr.Cmp, projs []expr.Expr, outName string, outCols []string) *storage.Relation {
	return SelectProjectPartitioned(pool, in, preds, projs, nil, outName, outCols)
}

// SelectProjectPartitioned is SelectProject with an optional fused output
// scatter: with part set, the output is emitted pre-partitioned and the
// result carries the partitioning. The identity fast path still applies when
// the input already carries a compatible partitioning (block sharing keeps
// it); otherwise the single output copy doubles as the scatter.
func SelectProjectPartitioned(pool *Pool, in *storage.Relation, preds []expr.Cmp, projs []expr.Expr, part *storage.Partitioning, outName string, outCols []string) *storage.Relation {
	if len(projs) == 0 {
		panic("exec: SelectProject requires at least one projection")
	}
	idx, plainCols := colIndexes(projs)
	if len(preds) == 0 && plainCols && isIdentity(idx, in.Arity()) {
		carried, hasCarried := in.Partitioning()
		if part == nil || (hasCarried && carried.Equal(*part)) {
			if outCols == nil {
				outCols = in.ColNames()
			}
			out := storage.NewRelation(outName, outCols)
			out.AppendRelation(in)
			return out
		}
	}
	blocks := in.Blocks()
	w := len(projs)
	col := outCollector(pool, part, w, len(blocks))
	// Each worker fills a window of output rows in its scratch and hands the
	// whole window to its sink: one bulk copy into a flat output, one
	// counting-sort scatter into a partitioned one.
	bufs := make([]*batchBuf, pool.Workers())
	emits := make([]func(rows []int32), pool.Workers())
	pool.runTasksPerWorker(len(blocks), func(worker, t int) {
		buf := bufs[worker]
		if buf == nil {
			buf = getBatchBuf()
			bufs[worker] = buf
			if col.part == nil {
				emits[worker] = col.sinkBulk(worker)
			} else {
				pw := col.partSink(worker)
				emits[worker] = func(rows []int32) {
					if len(rows) >= scatterBatchMin*w {
						batchScatterBlock(pw, rows, w, buf)
						return
					}
					for off := 0; off < len(rows); off += w {
						pw.write(rows[off : off+w])
					}
				}
			}
		}
		b := blocks[t]
		pool.observeBatch(b.Rows())
		data, arity := b.Data(), b.Arity()
		n, win := b.Rows(), windowRows(w)
		for off := 0; off < n; off += win {
			out, end := buf.gather[:0], min(off+win, n)
			for i := off; i < end; i++ {
				row := data[i*arity : (i+1)*arity : (i+1)*arity]
				if !expr.All(preds, row) {
					continue
				}
				if plainCols {
					for _, c := range idx {
						out = append(out, row[c])
					}
				} else {
					for _, p := range projs {
						out = append(out, p.Eval(row))
					}
				}
			}
			if len(out) > 0 {
				emits[worker](out)
			}
		}
	})
	for _, buf := range bufs {
		if buf != nil {
			putBatchBuf(buf)
		}
	}
	return col.into(outName, outCols)
}

// UnionAll concatenates relations under bag semantics (the paper's UNION ALL:
// data is simply appended, deduplication happens in a separate call).
func UnionAll(name string, colNames []string, rels ...*storage.Relation) *storage.Relation {
	out := storage.NewRelation(name, colNames)
	for _, r := range rels {
		out.AppendRelation(r)
	}
	return out
}
