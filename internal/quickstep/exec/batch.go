package exec

import (
	"sync"
	"sync/atomic"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/kernels"
	"recstep/internal/quickstep/storage"
)

// The window kernels every operator runs. Operators walk blocks in windows
// of kernels.BatchRows rows and hand whole windows to the kernels package and
// the batched GSCHT entry points: pack the window's keys in one branch-free
// loop, insert/probe the table in one pass that hoists the hash arithmetic
// out of the chain walks, select the surviving rows into a selection vector,
// gather them into a row-major run and emit that run with one AppendBulk
// copy. A set the compact keys cannot pack — tuples wider than four columns,
// or the lock-map baseline — is the generic locked map; the same kernels walk
// it row by row (see genericRows), so each operator has one body.

// MinColumnarRows is the row count below which the kernels consume a block
// from its row-major data even where it is re-read: the column transpose
// costs a full pass plus a pool allocation, which only pays off on blocks big
// enough to amortize it — above the threshold the cached transpose is built
// once and reused every time the (immutable) block is re-read, which for R's
// carried partitions means every remaining fixpoint iteration. The
// optimizer's layout gate (optimizer.UseBatchKernels) exposes the same
// threshold to the planning layer.
const MinColumnarRows = 256

// batchBuf is the per-pass scratch of the batch kernels: packed keys,
// bucket indices, probe results, a selection vector and a gather buffer,
// all sized for one kernels.BatchRows window at arity ≤ 4. Passes borrow
// one from a sync.Pool so a 1024-partition delta step does not allocate a
// thousand ~50 KiB scratch sets per iteration.
type batchBuf struct {
	keys   []uint64
	lo, hi []uint64
	hash   []uint64
	bidx   []int32
	hits   []bool
	sel    []int32
	gather []int32
	scat   []int32
	counts []int32
	cols   [][]int32
	pid    []uint8
	order  []int32
}

var batchBufPool = sync.Pool{New: func() any {
	n := kernels.BatchRows
	return &batchBuf{
		keys:   make([]uint64, n),
		lo:     make([]uint64, n),
		hi:     make([]uint64, n),
		hash:   make([]uint64, n),
		bidx:   make([]int32, n),
		hits:   make([]bool, n),
		sel:    make([]int32, 0, n),
		gather: make([]int32, 4*n),
		scat:   make([]int32, 4*n),
		cols:   make([][]int32, 0, 8),
		pid:    make([]uint8, n),
		order:  make([]int32, n),
	}
}}

func getBatchBuf() *batchBuf  { return batchBufPool.Get().(*batchBuf) }
func putBatchBuf(b *batchBuf) { b.cols = b.cols[:0]; batchBufPool.Put(b) }

// blockCols returns the per-column views of b when the cached transpose
// pays (see MinColumnarRows), nil to pack from the row-major data.
func blockCols(b *storage.Block, arity int, buf *batchBuf) [][]int32 {
	if b.Rows() < MinColumnarRows {
		return nil
	}
	cols := buf.cols[:0]
	for c := 0; c < arity; c++ {
		cols = append(cols, b.Col(c))
	}
	buf.cols = cols
	return cols
}

// packWindow fills buf's key scratch for rows [off, off+bn) — from the
// column views when cols is non-nil, in one strided pass over the row-major
// data otherwise. Arity ≤ 2 lands in buf.keys, arity 3–4 in buf.hi/buf.lo.
func packWindow(data []int32, cols [][]int32, arity, off, bn int, buf *batchBuf) {
	if arity <= 2 {
		if cols == nil {
			kernels.PackRows64(data[off*arity:(off+bn)*arity], arity, buf.keys)
		} else if arity == 1 {
			kernels.PackKeys1(cols[0][off:off+bn], buf.keys)
		} else {
			kernels.PackKeys2(cols[0][off:off+bn], cols[1][off:off+bn], buf.keys)
		}
		return
	}
	if cols == nil {
		kernels.PackRows128(data[off*arity:(off+bn)*arity], arity, buf.hi, buf.lo)
	} else if arity == 3 {
		kernels.PackKeys3(cols[0][off:off+bn], cols[1][off:off+bn], cols[2][off:off+bn], buf.hi, buf.lo)
	} else {
		kernels.PackKeys4(cols[0][off:off+bn], cols[1][off:off+bn], cols[2][off:off+bn], cols[3][off:off+bn], buf.hi, buf.lo)
	}
}

// genericRows walks a row-major run through a generic set one row at a
// time — inserting each row, or else probing it — and hands the rows a set
// insert found fresh, or a probe found absent, to emit (when non-nil) as
// maximal contiguous runs of data, so no gather scratch bounds the arity.
// The lock-map baseline's one mutex per insert stays exactly that. The
// generic bodies of the set kernels live out of line (here and in
// genericIntersect): the compact-key loops run on freshly started workers,
// whose stacks a larger frame would make grow.
func genericRows(set *tupleSet, data []int32, arity int, ar *setArena, insert bool, emit func(rows []int32)) {
	if ar == nil {
		ar = new(setArena)
	}
	start := -1
	for off := 0; off < len(data); off += arity {
		row := data[off : off+arity : off+arity]
		if insert && set.insert(row, ar) || !insert && !set.contains(row, ar) {
			if start < 0 {
				start = off
			}
			continue
		}
		if start >= 0 && emit != nil {
			emit(data[start:off])
		}
		start = -1
	}
	if start >= 0 && emit != nil {
		emit(data[start:])
	}
}

// genericIntersect inserts into inter the rows of blocks that the generic set
// bset holds.
func genericIntersect(bset, inter *tupleSet, blocks []*storage.Block, arity int, ar *setArena) {
	for _, b := range blocks {
		data := b.Data()
		for off := 0; off < len(data); off += arity {
			if row := data[off : off+arity : off+arity]; bset.contains(row, ar) {
				inter.insert(row, ar)
			}
		}
	}
}

// batchInsertBlocks inserts every tuple of blocks into set through the
// batched GSCHT path, bulk-emitting each fresh tuple's row when emit is
// non-nil. local selects the single-writer insert (partition-private
// tables); useCols selects the cached column layout for blocks re-read
// across iterations (R's carried partitions) — data scanned exactly once
// packs straight from its row-major form.
func batchInsertBlocks(set *tupleSet, blocks []*storage.Block, arity int, ar *setArena, local, useCols bool, buf *batchBuf, emit func(rows []int32)) {
	for _, b := range blocks {
		n := b.Rows()
		if n == 0 {
			continue
		}
		data := b.Data()
		if set.generic != nil {
			genericRows(set, data, arity, ar, true, emit)
			continue
		}
		var cols [][]int32
		if useCols {
			cols = blockCols(b, arity, buf)
		}
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, cols, arity, off, bn, buf)
			sel := buf.sel[:0]
			if set.t64 != nil {
				keys := buf.keys[:bn]
				if local {
					sel = set.t64.InsertBatchLocal(keys, buf.bidx, &ar.a64, int32(off), sel)
				} else {
					sel = set.t64.InsertBatch(keys, buf.bidx, &ar.a64, int32(off), sel)
				}
			} else {
				lo, hi := buf.lo[:bn], buf.hi[:bn]
				if local {
					sel = set.t128.InsertBatchLocal(lo, hi, buf.bidx, &ar.a128, int32(off), sel)
				} else {
					sel = set.t128.InsertBatch(lo, hi, buf.bidx, &ar.a128, int32(off), sel)
				}
			}
			buf.sel = sel[:0]
			if emit != nil && len(sel) > 0 {
				emit(kernels.GatherSelect(data, arity, sel, buf.gather))
			}
		}
	}
}

// batchBuildBlocks seeds set with blocks whose tuples the engine guarantees
// distinct (R feeding an OPSD diff table: the fixpoint relation is
// duplicate-free by construction), through the no-dup-check bulk-build
// kernel. Single-writer only.
func batchBuildBlocks(set *tupleSet, blocks []*storage.Block, arity int, ar *setArena, useCols bool, buf *batchBuf) {
	if set.generic != nil {
		batchInsertBlocks(set, blocks, arity, ar, true, false, buf, nil)
		return
	}
	for _, b := range blocks {
		n := b.Rows()
		if n == 0 {
			continue
		}
		data := b.Data()
		var cols [][]int32
		if useCols {
			cols = blockCols(b, arity, buf)
		}
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, cols, arity, off, bn, buf)
			if set.t64 != nil {
				set.t64.InsertBatchBuild(buf.keys[:bn], buf.bidx, &ar.a64)
			} else {
				set.t128.InsertBatchBuild(buf.lo[:bn], buf.hi[:bn], buf.bidx, &ar.a128)
			}
		}
	}
}

// batchAntiProbeBlocks bulk-emits the rows of blocks absent from set.
func batchAntiProbeBlocks(set *tupleSet, blocks []*storage.Block, arity int, useCols bool, buf *batchBuf, emit func(rows []int32)) {
	for _, b := range blocks {
		n := b.Rows()
		if n == 0 {
			continue
		}
		data := b.Data()
		if set.generic != nil {
			genericRows(set, data, arity, nil, false, emit)
			continue
		}
		var cols [][]int32
		if useCols {
			cols = blockCols(b, arity, buf)
		}
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, cols, arity, off, bn, buf)
			if set.t64 != nil {
				set.t64.ProbeBatch(buf.keys[:bn], buf.bidx, buf.hits)
			} else {
				set.t128.ProbeBatch(buf.lo[:bn], buf.hi[:bn], buf.bidx, buf.hits)
			}
			sel := kernels.SelectMisses(buf.hits[:bn], int32(off), buf.sel[:0])
			buf.sel = sel[:0]
			if len(sel) > 0 {
				emit(kernels.GatherSelect(data, arity, sel, buf.gather))
			}
		}
	}
}

// batchAntiProbeRows is batchAntiProbeBlocks over a flat row-major buffer
// (the TPSD candidate list).
func batchAntiProbeRows(set *tupleSet, rows []int32, arity int, buf *batchBuf, emit func(rows []int32)) {
	if set.generic != nil {
		genericRows(set, rows, arity, nil, false, emit)
		return
	}
	n := len(rows) / arity
	for off := 0; off < n; off += kernels.BatchRows {
		bn := min(kernels.BatchRows, n-off)
		win := rows[off*arity : (off+bn)*arity]
		if set.t64 != nil {
			kernels.PackRows64(win, arity, buf.keys)
			set.t64.ProbeBatch(buf.keys[:bn], buf.bidx, buf.hits)
		} else {
			kernels.PackRows128(win, arity, buf.hi, buf.lo)
			set.t128.ProbeBatch(buf.lo[:bn], buf.hi[:bn], buf.bidx, buf.hits)
		}
		sel := kernels.SelectMisses(buf.hits[:bn], int32(off), buf.sel[:0])
		buf.sel = sel[:0]
		if len(sel) > 0 {
			emit(kernels.GatherSelect(rows, arity, sel, buf.gather))
		}
	}
}

// batchIntersect probes bset with every tuple of blocks and inserts the
// hits into inter — TPSD's intersection marking, r∩ = R ∩ Rδ. The hit keys
// are compacted in place after the probe, so the insert pass runs over a
// dense key batch.
func batchIntersect(bset, inter *tupleSet, blocks []*storage.Block, arity int, ar *setArena, local, useCols bool, buf *batchBuf) {
	if bset.generic != nil {
		genericIntersect(bset, inter, blocks, arity, ar)
		return
	}
	for _, b := range blocks {
		n := b.Rows()
		if n == 0 {
			continue
		}
		data := b.Data()
		var cols [][]int32
		if useCols {
			cols = blockCols(b, arity, buf)
		}
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, cols, arity, off, bn, buf)
			if bset.t64 != nil {
				bset.t64.ProbeBatch(buf.keys[:bn], buf.bidx, buf.hits)
				m := 0
				for i, h := range buf.hits[:bn] {
					if h {
						buf.keys[m] = buf.keys[i]
						m++
					}
				}
				if m == 0 {
					continue
				}
				if local {
					inter.t64.InsertBatchLocal(buf.keys[:m], buf.bidx, &ar.a64, 0, buf.sel[:0])
				} else {
					inter.t64.InsertBatch(buf.keys[:m], buf.bidx, &ar.a64, 0, buf.sel[:0])
				}
			} else {
				bset.t128.ProbeBatch(buf.lo[:bn], buf.hi[:bn], buf.bidx, buf.hits)
				m := 0
				for i, h := range buf.hits[:bn] {
					if h {
						buf.lo[m] = buf.lo[i]
						buf.hi[m] = buf.hi[i]
						m++
					}
				}
				if m == 0 {
					continue
				}
				if local {
					inter.t128.InsertBatchLocal(buf.lo[:m], buf.hi[:m], buf.bidx, &ar.a128, 0, buf.sel[:0])
				} else {
					inter.t128.InsertBatch(buf.lo[:m], buf.hi[:m], buf.bidx, &ar.a128, 0, buf.sel[:0])
				}
			}
		}
	}
}

// colConstPred is a comparison between one column and one constant — the
// predicate shape the selection-vector kernels evaluate without a per-row
// expression walk.
type colConstPred struct {
	col int
	op  int
	val int32
}

// mirrorCmp flips a comparison across its operands (5 < x ⇔ x > 5).
func mirrorCmp(op expr.CmpOp) int {
	switch op {
	case expr.LT:
		return kernels.CmpGT
	case expr.LE:
		return kernels.CmpGE
	case expr.GT:
		return kernels.CmpLT
	case expr.GE:
		return kernels.CmpLE
	default:
		return int(op) // EQ and NE are symmetric
	}
}

// colConstPreds extracts the column-vs-constant form of every predicate, or
// reports that some predicate needs the general evaluator. The kernels Cmp*
// codes mirror expr.CmpOp value-for-value, so the direct form converts with
// a plain int cast.
func colConstPreds(preds []expr.Cmp) ([]colConstPred, bool) {
	out := make([]colConstPred, 0, len(preds))
	for _, p := range preds {
		if c, ok := p.L.(expr.Col); ok {
			if l, ok := p.R.(expr.Lit); ok {
				out = append(out, colConstPred{col: c.Index, op: int(p.Op), val: l.Value})
				continue
			}
		}
		if l, ok := p.L.(expr.Lit); ok {
			if c, ok := p.R.(expr.Col); ok {
				out = append(out, colConstPred{col: c.Index, op: mirrorCmp(p.Op), val: l.Value})
				continue
			}
		}
		return nil, false
	}
	return out, true
}

// batchSelectProject is the selection-vector scan: per window, the first
// predicate filters its column into a selection vector, the remaining
// predicates refine it in place, and the survivors are gathered through the
// projection's columns in one column-at-a-time pass. Flat outputs land in
// bulk; partitioned outputs route the gathered rows through the scatter
// writer row-wise (the filter and gather still run batched).
func batchSelectProject(pool *Pool, col *collector, blocks []*storage.Block, preds []colConstPred, idx []int) {
	if len(blocks) == 0 {
		return
	}
	scan := func(b *storage.Block, buf *batchBuf, emitBulk func(rows []int32)) {
		n := b.Rows()
		if n == 0 {
			return
		}
		pool.observeBatch(n)
		projCols := buf.cols[:0]
		for _, c := range idx {
			projCols = append(projCols, b.Col(c))
		}
		buf.cols = projCols
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			var sel []int32
			if len(preds) == 0 {
				sel = buf.sel[:0]
				for i := 0; i < bn; i++ {
					sel = append(sel, int32(off+i))
				}
			} else {
				p0 := preds[0]
				sel = kernels.FilterCmp(b.Col(p0.col)[off:off+bn], p0.op, p0.val, int32(off), buf.sel[:0])
				for _, p := range preds[1:] {
					sel = kernels.RefineCmp(b.Col(p.col), p.op, p.val, sel)
				}
			}
			buf.sel = sel[:0]
			if len(sel) == 0 {
				continue
			}
			emitBulk(kernels.GatherRows(projCols, sel, buf.gather))
		}
	}
	if col.part == nil {
		pool.Run(len(blocks), func(task int) {
			buf := getBatchBuf()
			defer putBatchBuf(buf)
			scan(blocks[task], buf, col.sinkBulk(task))
		})
		return
	}
	var next atomic.Int64
	pool.RunWorkers(len(blocks), func(worker, _ int) {
		buf := getBatchBuf()
		defer putBatchBuf(buf)
		emit := col.sink(worker)
		w := len(idx)
		emitBulk := func(rows []int32) {
			for off := 0; off < len(rows); off += w {
				emit(rows[off : off+w])
			}
		}
		for {
			t := int(next.Add(1)) - 1
			if t >= len(blocks) || pool.Aborted() {
				return
			}
			scan(blocks[t], buf, emitBulk)
		}
	})
}

// batchScatterBlock routes one block's rows into w's per-partition open
// blocks a window at a time: gather the key columns, hash the whole window
// in one branch-free pass, then counting-sort the window's rows into
// partition-contiguous runs so each partition receives one chunked AppendBulk
// copy instead of a bounds-checked per-row Append. Rows wider than four
// columns take windows shrunk to fit the reorder scratch (see windowRows).
func batchScatterBlock(w *partWriter, data []int32, arity int, buf *batchBuf) {
	n := len(data) / arity
	if buf.counts == nil || len(buf.counts) < w.parts {
		buf.counts = make([]int32, w.parts)
	}
	counts := buf.counts[:w.parts]
	for off, bn := 0, 0; off < n; off += bn {
		bn = min(windowRows(arity), n-off)
		win := data[off*arity : (off+bn)*arity]
		kernels.HashRows(win, arity, w.keyCols, buf.hash)
		pid := buf.bidx[:bn]
		for i := range pid {
			pid[i] = int32(storage.PartitionOf(buf.hash[i], w.parts))
		}
		// Counting sort into partition-contiguous order.
		for i := range counts {
			counts[i] = 0
		}
		for _, p := range pid {
			counts[p]++
		}
		base := int32(0)
		for p := range counts {
			c := counts[p]
			counts[p] = base
			base += c
		}
		// Reorder with per-arity unrolled copies: an 8–16 byte memmove call
		// per row would dominate the whole pass.
		scat := buf.scat[:bn*arity]
		switch arity {
		case 1:
			for i, p := range pid {
				d := counts[p]
				counts[p]++
				scat[d] = win[i]
			}
		case 2:
			for i, p := range pid {
				d := int(counts[p]) * 2
				counts[p]++
				r := i * 2
				scat[d] = win[r]
				scat[d+1] = win[r+1]
			}
		case 3:
			for i, p := range pid {
				d := int(counts[p]) * 3
				counts[p]++
				r := i * 3
				scat[d] = win[r]
				scat[d+1] = win[r+1]
				scat[d+2] = win[r+2]
			}
		case 4:
			for i, p := range pid {
				d := int(counts[p]) * 4
				counts[p]++
				r := i * 4
				scat[d] = win[r]
				scat[d+1] = win[r+1]
				scat[d+2] = win[r+2]
				scat[d+3] = win[r+3]
			}
		default:
			for i, p := range pid {
				d := int(counts[p]) * arity
				counts[p]++
				for c, v := range win[i*arity : (i+1)*arity] {
					scat[d+c] = v
				}
			}
		}
		// counts[p] now holds partition p's end offset; starts are the
		// previous partition's end.
		prev := 0
		for p := 0; p < w.parts; p++ {
			end := int(counts[p])
			if end > prev {
				w.writeBulk(p, scat[prev*arity:end*arity])
			}
			prev = end
		}
	}
}

// route sorts a window of at most kernels.BatchRows arity-wide rows by the
// radix partition of their keys among parts, without moving them: it returns
// each row's partition, the row indices grouped by partition in partition
// order, and where each partition's run ends — partition p's rows are
// order[ends[p-1]:ends[p]]. All three are buf's scratch. A consumer that
// takes one partition's run at a time keeps that partition's table in cache
// while it folds or inserts the run, where rows in arrival order hit a
// different table nearly every time.
func (buf *batchBuf) route(rows []int32, arity int, keys []int, parts int) (pid []uint8, order, ends []int32) {
	n := len(rows) / arity
	if len(buf.counts) < parts {
		buf.counts = make([]int32, parts)
	}
	pid, order, ends = buf.pid[:n], buf.order[:n], buf.counts[:parts]
	clear(ends)
	kernels.HashRows(rows, arity, keys, buf.hash)
	for i, h := range buf.hash[:n] {
		p := storage.PartitionOf(h, parts)
		pid[i] = uint8(p) // parts <= storage.MaxPartitions = 256
		ends[p]++
	}
	var sum int32
	for p, c := range ends {
		ends[p] = sum
		sum += c
	}
	for i, p := range pid {
		order[ends[p]] = int32(i)
		ends[p]++
	}
	return pid, order, ends
}
