package exec

import (
	"sync"

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
		pid:    make([]uint8, n),
		order:  make([]int32, n),
	}
}}

func getBatchBuf() *batchBuf  { return batchBufPool.Get().(*batchBuf) }
func putBatchBuf(b *batchBuf) { batchBufPool.Put(b) }

// packWindow fills buf's key scratch for rows [off, off+bn) of a row-major
// run in one strided pass: arity ≤ 2 lands in buf.keys, arity 3–4 in
// buf.hi/buf.lo.
func packWindow(data []int32, arity, off, bn int, buf *batchBuf) {
	win := data[off*arity : (off+bn)*arity]
	if arity <= 2 {
		kernels.PackRows64(win, arity, buf.keys)
	} else {
		kernels.PackRows128(win, arity, buf.hi, buf.lo)
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
// tables).
func batchInsertBlocks(set *tupleSet, blocks []*storage.Block, arity int, ar *setArena, local bool, buf *batchBuf, emit func(rows []int32)) {
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
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, arity, off, bn, buf)
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
func batchBuildBlocks(set *tupleSet, blocks []*storage.Block, arity int, ar *setArena, buf *batchBuf) {
	if set.generic != nil {
		batchInsertBlocks(set, blocks, arity, ar, true, buf, nil)
		return
	}
	for _, b := range blocks {
		n := b.Rows()
		if n == 0 {
			continue
		}
		data := b.Data()
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, arity, off, bn, buf)
			if set.t64 != nil {
				set.t64.InsertBatchBuild(buf.keys[:bn], buf.bidx, &ar.a64)
			} else {
				set.t128.InsertBatchBuild(buf.lo[:bn], buf.hi[:bn], buf.bidx, &ar.a128)
			}
		}
	}
}

// batchAntiProbeBlocks bulk-emits the rows of blocks absent from set.
func batchAntiProbeBlocks(set *tupleSet, blocks []*storage.Block, arity int, buf *batchBuf, emit func(rows []int32)) {
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
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, arity, off, bn, buf)
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
		packWindow(rows, arity, off, bn, buf)
		if set.t64 != nil {
			set.t64.ProbeBatch(buf.keys[:bn], buf.bidx, buf.hits)
		} else {
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
func batchIntersect(bset, inter *tupleSet, blocks []*storage.Block, arity int, ar *setArena, local bool, buf *batchBuf) {
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
		for off := 0; off < n; off += kernels.BatchRows {
			bn := min(kernels.BatchRows, n-off)
			packWindow(data, arity, off, bn, buf)
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
