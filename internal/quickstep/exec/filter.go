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
	col := outCollector(pool, part, len(projs), len(blocks))
	if plainCols && len(idx) <= 4 {
		if cps, ok := colConstPreds(preds); ok {
			batchSelectProject(pool, col, blocks, cps, idx)
			return col.into(outName, outCols)
		}
	}
	scatterRun(pool, col, blocks, func(b *storage.Block, emit func(row []int32)) {
		outRow := make([]int32, len(projs))
		n := b.Rows()
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if !expr.All(preds, row) {
				continue
			}
			if plainCols {
				for j, c := range idx {
					outRow[j] = row[c]
				}
			} else {
				for j, p := range projs {
					outRow[j] = p.Eval(row)
				}
			}
			emit(outRow)
		}
	})
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
