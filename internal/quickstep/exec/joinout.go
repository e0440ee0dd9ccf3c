package exec

import (
	"slices"
	"sync"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/kernels"
	"recstep/internal/quickstep/storage"
)

// The output half of every hash join. Each window column is resolved once per
// join to (probe row | build row, offset); a probe row's own values are read
// once and every match is written straight into a row-major window private to
// the worker, which is flushed in bulk: a block-sized copy for a flat output,
// the window-at-a-time counting-sort scatter for a partitioned one — or, when
// the probe side carries the output's partitioning through the projection, a
// block-sized copy into the partition the probe rows came from. When the
// output is set-valued and the worker holds a duplicate filter, expansion
// filters each row as it writes it, in one branch-free pass (expandInto); the
// rows a window held before the filter was borrowed, and a computed join's
// rows, pass the filter at the window's next check instead (dupFilter.compact).
//
// A join whose projections are plain columns and that tests nothing per match
// — every join a delta rule compiles to — writes its output columns into the
// window directly. A join with a residual predicate or a computed projection
// writes the combined-row columns those read instead, and one pass over the
// window (eval) tests the residual and evaluates the projections before the
// filter and the flush.
//
// A join-fed aggregate (JoinSpec.Agg) folds each window into its worker's
// aggregate table in place of the write to the collector (see joinAgg); its
// window holds the group columns and the aggregate arguments only.

// colSrc says where one output column comes from.
type colSrc struct {
	build bool // the build row, else the probe row
	off   int  // column within that row
}

// joinOutput is the output state of one HashJoin call.
type joinOutput struct {
	pool  *Pool
	col   *collector
	width int // output columns
	// stride is the width of the rows the expansion writes: width, or for a
	// computed join the combined-row columns it reads (at least width, so
	// eval can pack output rows down in place).
	stride  int
	winRows int
	src     []colSrc
	srcBuf  [4]colSrc // backs src up to four columns
	// resid and projs are a computed join's residual and projections over
	// the window's rows; both nil for a plain join.
	resid []expr.Cmp
	projs []expr.Expr
	// filter says the output is set-valued and narrow enough to pack; the
	// tuning points are read once so one call sees one setting.
	filter   bool
	activate int
	minHits  int
	// inPlace says the probe runs over a carried view whose partition p
	// yields only rows of output partition p (see probeView): a worker's
	// window then holds rows of one partition, its p, and is written there
	// whole.
	inPlace bool
	// agg, for a join-fed aggregate, holds the workers' aggregate tables:
	// flush folds a window into its worker's, col receives the merged groups.
	// It hangs here, not off joinWorker, which fills its cache lines exactly.
	agg     *joinAgg
	workers []joinWorker
}

// joinWorker is one worker's share of a joinOutput. Everything it points to
// is taken on first use: a join that matches nothing takes nothing. Workers
// sit side by side in one slice, so the fields fill whole cache lines (three,
// exactly).
type joinWorker struct {
	// probe is the scratch of the probe half (the window's partition hashes)
	// and lends its otherwise idle scat to the window; out is the scratch of
	// the partitioned flush, which needs a buffer of its own because it too
	// uses buf.hash and a window can flush in the middle of a probed one. A
	// flat output and an aggregate never take it.
	probe, out *batchBuf
	win        []int32
	n          int // rows in the window
	// passed counts the leading window rows the filter has already let
	// through (a filtered window keeps filling until it is worth flushing),
	// evald those eval has already made output rows of.
	passed, evald int
	row           []int32 // eval's output row scratch
	flat          bulkSink
	part          *partWriter
	p             int // the output partition of the window's rows, when in place

	filt    *dupFilter
	filtOff bool
	// dropped counts the rows expand's filter dropped since the last filter
	// check; they take window space until then (see expand).
	dropped int32
	emitted int // rows this worker has flushed in this join
	// seen and hits are the rows the borrowed filter has been shown and those
	// it dropped — the hit share the bypass rule judges.
	seen, hits int

	expanded, bypassed, inPlace int64
}

// scatterBatchMin is the window size from which a partitioned flush goes
// through the counting-sort scatter: below it the per-partition passes cost
// more than routing the rows one by one, and the join is spared the second
// scratch buffer.
const scatterBatchMin = kernels.BatchRows / 16

// windowRows is the row capacity of an output window of the given width
// inside a batchBuf's scat scratch: a full kernel batch up to four columns,
// as many whole rows as fit beyond that.
func windowRows(width int) int {
	if width <= 4 {
		return kernels.BatchRows
	}
	return 4 * kernels.BatchRows / width
}

// joinOutputs recycles joinOutput values, worker slots included: a fixpoint
// of few-row iterations runs thousands of joins that never fill a window, and
// their output state should cost them no allocation.
var joinOutputs = sync.Pool{New: func() any { return new(joinOutput) }}

// newJoinOutput resolves the window columns (columns of left ++ right, la of
// them left) against the physical sides. finish gives the value back.
func newJoinOutput(pool *Pool, col *collector, spec JoinSpec, la int) *joinOutput {
	jo := joinOutputs.Get().(*joinOutput)
	workers := jo.workers[:0]
	if cap(workers) < pool.Workers() {
		workers = make([]joinWorker, 0, pool.Workers())
	}
	width := len(spec.Projs)
	*jo = joinOutput{
		pool:     pool,
		col:      col,
		width:    width,
		stride:   width,
		filter:   spec.OutSet && spec.Agg == nil && width <= dupFilterWidth,
		activate: int(dupFilterActivate.Load()),
		minHits:  int(dupFilterMinHits.Load()),
		workers:  workers[:pool.Workers()],
	}
	cols, plain := colIndexes(spec.Projs)
	if !plain || len(spec.Residual) > 0 {
		cols = jo.computed(spec)
	}
	jo.winRows = windowRows(jo.stride)
	if jo.winRows == 0 {
		panic("exec: join row wider than an output window")
	}
	buildKeys, probeKeys := spec.RightKeys, spec.LeftKeys
	if spec.BuildLeft {
		buildKeys, probeKeys = probeKeys, buildKeys
	}
	jo.src = jo.srcBuf[:0]
	for _, c := range cols {
		left := c < la
		if !left {
			c -= la
		}
		s := colSrc{build: left == spec.BuildLeft, off: c}
		if s.build {
			s = buildColSrc(c, buildKeys, probeKeys)
		}
		jo.src = append(jo.src, s)
	}
	// finish left every slot empty.
	for i := range jo.workers {
		jo.workers[i].flat = bulkSink{c: col, slot: i}
	}
	if spec.Agg != nil {
		jo.agg = newJoinAgg(pool, spec.Agg)
	}
	return jo
}

// buildColSrc resolves build column c against the build table's layout (see
// buildTable): a key column is read from the probe row, whose key equals it,
// any other from the payload, where it sits behind the non-key columns before
// it.
func buildColSrc(c int, buildKeys, probeKeys []int) colSrc {
	if i := slices.Index(buildKeys, c); i >= 0 {
		return colSrc{off: probeKeys[i]}
	}
	off := c
	for k := range c {
		if slices.Contains(buildKeys, k) {
			off--
		}
	}
	return colSrc{build: true, off: off}
}

// computed sets a computed join up: the window holds the combined-row columns
// the residual and the projections read, in column order, padded to at least
// the output width, and resid/projs are rewritten to read them there. It
// returns those columns.
func (jo *joinOutput) computed(spec JoinSpec) []int {
	var cols []int
	for _, c := range spec.Residual {
		cols = append(append(cols, expr.Columns(c.L)...), expr.Columns(c.R)...)
	}
	for _, p := range spec.Projs {
		cols = append(cols, expr.Columns(p)...)
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)
	at := func(c int) int {
		i, _ := slices.BinarySearch(cols, c)
		return i
	}
	for _, c := range spec.Residual {
		jo.resid = append(jo.resid, expr.RemapCmp(c, at))
	}
	for _, p := range spec.Projs {
		jo.projs = append(jo.projs, expr.Remap(p, at))
	}
	for len(cols) < jo.width {
		cols = append(cols, 0) // padding: written, never read
	}
	jo.stride = len(cols)
	return cols
}

// probeView returns the probe side's carried view of which this join's
// output partitioning is the image through the projection: the view routed,
// at the output's fan-out, on the probe columns the output's key columns are
// copied from. PartitionHash then gives an output row the hash of the probe
// row it came from, so view partition p yields only rows of output partition
// p. Nil when the output is flat, the join computed, or no carried view
// qualifies.
func (jo *joinOutput) probeView(probe *storage.Relation) *storage.PartitionedView {
	part := jo.col.part
	if part == nil || jo.projs != nil {
		return nil
	}
	keys := make([]int, len(part.KeyCols))
	for i, c := range part.KeyCols {
		if jo.src[c].build {
			return nil
		}
		keys[i] = jo.src[c].off
	}
	v, _ := probe.CarriedView(keys, part.Parts)
	return v
}

// probeInPlace probes the view's blocks as (partition, block) tasks; a worker
// moving to another partition flushes its window first, so every flush
// writes one partition's rows into that partition.
func (jo *joinOutput) probeInPlace(jt *joinTable, view *storage.PartitionedView, probeKeys []int) {
	type task struct {
		p int
		b *storage.Block
	}
	var tasks []task
	for p := 0; p < view.Parts(); p++ {
		for _, b := range view.Blocks(p) {
			if b.Rows() > 0 {
				tasks = append(tasks, task{p, b})
			}
		}
	}
	jo.inPlace = true
	jo.pool.runTasksPerWorker(len(tasks), func(worker, t int) {
		w, tk := &jo.workers[worker], tasks[t]
		if w.p != tk.p {
			jo.drain(w)
			w.p = tk.p
		}
		jo.pool.observeBatch(tk.b.Rows())
		jo.probeBlock(w, jt, tk.b, probeKeys)
	})
}

// probeBlock joins one probe block against the build tables, a kernel
// window at a time: a partitioned build has the window's partition hashes
// computed in one pass, then each row finds its key's group and expands the
// group's run of build rows.
func (jo *joinOutput) probeBlock(w *joinWorker, jt *joinTable, b *storage.Block, probeKeys []int) {
	n := b.Rows()
	if n == 0 {
		return
	}
	if w.probe == nil {
		w.probe = getBatchBuf()
	}
	arity := b.Arity()
	data := b.Data()
	hash := w.probe.hash
	for off := 0; off < n; off += kernels.BatchRows {
		bn := min(kernels.BatchRows, n-off)
		if jt.parts > 1 {
			kernels.HashRows(data[off*arity:(off+bn)*arity], arity, probeKeys, hash)
		}
		// Unpartitioned, hash is stale scratch: PartitionOf(h, 1) is 0.
		for i, h := range hash[:bn] {
			r := (off + i) * arity
			pr := data[r : r+arity : r+arity]
			bt := jt.tables[storage.PartitionOf(h, jt.parts)]
			if run, n := bt.matches(pr, probeKeys); n > 0 {
				jo.expand(w, pr, run, n, bt.width)
			}
		}
	}
}

// expand writes one probe row's n matches — build payloads of width bw,
// row-major in run — into the worker's window, making room whenever it fills.
// A plain join with a borrowed filter filters the rows as it writes them, and
// counts the rows it dropped since the last filter check as window space
// taken: the window then fills, and the bypass rule is judged, at the same
// rows as when every row was written first and filtered at the check.
func (jo *joinOutput) expand(w *joinWorker, pr, run []int32, n, bw int) {
	if w.win == nil {
		w.win = w.probe.scat[:jo.winRows*jo.stride]
	}
	if jo.projs == nil {
		w.expanded += int64(n)
	}
	for n > 0 {
		k := min(jo.winRows-w.n-int(w.dropped), n)
		if k == 0 {
			jo.windowFull(w)
			continue
		}
		f := w.filt
		if jo.projs != nil {
			f = nil // the filter sees output rows, which eval makes
		}
		kept := jo.expandInto(w.win[w.n*jo.stride:], pr, run[:k*bw], k, bw, f)
		if f != nil {
			w.seen += k
			w.hits += k - kept
			w.dropped += int32(k - kept)
			w.passed = w.n + kept
		}
		w.n += kept
		n -= k
		run = run[k*bw:]
	}
}

// expandInto writes one output row per match — n build payloads of width ba,
// row-major — to the front of win, and returns how many rows it kept. The
// per-width cases keep the row in registers: the probe-side values are loaded
// once before the loop and the column-source tests inside it never change
// direction, so a match costs its build-row loads and its stores, read in
// order from one run. A build without payload (ba 0) has every column on the
// probe side and writes n copies of one row.
//
// With a filter f each row, packed as the table packs it, goes through f's
// table on its way out (keep64, keep128): the row is always stored at the
// write cursor, and the cursor moves past it only if the table did not hold
// it, so a repeat is overwritten by the next row. Without one every row is
// kept.
//
// Two output columns, one from each side, over a one-column payload — the
// shape of every join the bench workloads run (tc, csda, cspa and cc alike)
// — take a loop of their own per column order: it reads the payloads in
// order as one column's values and packs the probe value once per call, at
// about half the general loop's cost per row.
func (jo *joinOutput) expandInto(win, pr, matches []int32, n, ba int, f *dupFilter) int {
	var tab []uint64
	if f != nil {
		tab = f.tab
	}
	src := jo.src
	o := 0
	switch len(src) {
	case 1:
		s0 := src[0]
		var v0 int32
		if !s0.build {
			v0 = pr[s0.off]
		}
		win = win[:n]
		for j := 0; j < n; j++ {
			if s0.build {
				v0 = matches[j*ba+s0.off]
			}
			win[o] = v0
			o += keep64(tab, uint64(uint32(v0)))
		}
	case 2:
		s0, s1 := src[0], src[1]
		var v0, v1 int32
		if !s0.build {
			v0 = pr[s0.off]
		}
		if !s1.build {
			v1 = pr[s1.off]
		}
		win = win[:2*n]
		if ba == 1 && !s0.build && s1.build {
			hi := pack2(v0, 0)
			for _, v1 := range matches[:n] {
				win[2*o], win[2*o+1] = v0, v1
				o += keep64(tab, hi|uint64(uint32(v1)))
			}
			return o
		}
		if ba == 1 && s0.build && !s1.build {
			lo := pack2(0, v1)
			for _, v0 := range matches[:n] {
				win[2*o], win[2*o+1] = v0, v1
				o += keep64(tab, pack2(v0, 0)|lo)
			}
			return o
		}
		for j := 0; j < n; j++ {
			br := matches[j*ba:]
			if s0.build {
				v0 = br[s0.off]
			}
			if s1.build {
				v1 = br[s1.off]
			}
			win[2*o], win[2*o+1] = v0, v1
			o += keep64(tab, pack2(v0, v1))
		}
	case 3:
		s0, s1, s2 := src[0], src[1], src[2]
		var v0, v1, v2 int32
		if !s0.build {
			v0 = pr[s0.off]
		}
		if !s1.build {
			v1 = pr[s1.off]
		}
		if !s2.build {
			v2 = pr[s2.off]
		}
		win = win[:3*n]
		for j := 0; j < n; j++ {
			br := matches[j*ba:]
			if s0.build {
				v0 = br[s0.off]
			}
			if s1.build {
				v1 = br[s1.off]
			}
			if s2.build {
				v2 = br[s2.off]
			}
			win[3*o], win[3*o+1], win[3*o+2] = v0, v1, v2
			o += keep128(tab, uint64(uint32(v0)), pack2(v1, v2))
		}
	case 4:
		s0, s1, s2, s3 := src[0], src[1], src[2], src[3]
		var v0, v1, v2, v3 int32
		if !s0.build {
			v0 = pr[s0.off]
		}
		if !s1.build {
			v1 = pr[s1.off]
		}
		if !s2.build {
			v2 = pr[s2.off]
		}
		if !s3.build {
			v3 = pr[s3.off]
		}
		win = win[:4*n]
		for j := 0; j < n; j++ {
			br := matches[j*ba:]
			if s0.build {
				v0 = br[s0.off]
			}
			if s1.build {
				v1 = br[s1.off]
			}
			if s2.build {
				v2 = br[s2.off]
			}
			if s3.build {
				v3 = br[s3.off]
			}
			win[4*o], win[4*o+1], win[4*o+2], win[4*o+3] = v0, v1, v2, v3
			o += keep128(tab, pack2(v0, v1), pack2(v2, v3))
		}
	default: // wider than the filter packs: f is nil
		width := len(src)
		for j := 0; j < n; j++ {
			br := matches[j*ba:]
			row := win[j*width : (j+1)*width]
			for c, s := range src {
				if s.build {
					row[c] = br[s.off]
				} else {
					row[c] = pr[s.off]
				}
			}
		}
		o = n
	}
	return o
}

// windowFull makes room in a full window: the rows not yet filtered go
// through the duplicate filter, and the window is flushed unless the filter
// left it under half full — then it keeps filling, so that neither the
// filter pass nor the flush ever runs over a handful of rows.
func (jo *joinOutput) windowFull(w *joinWorker) {
	jo.eval(w)
	jo.borrowFilter(w)
	if w.filt != nil {
		jo.filterWindow(w)
		if w.n < jo.winRows/2 {
			return
		}
	}
	jo.flush(w)
}

// drain filters and flushes whatever the window holds. A window the filter
// emptied still counts the rows it dropped until their check.
func (jo *joinOutput) drain(w *joinWorker) {
	if w.n == 0 && w.dropped == 0 {
		return
	}
	jo.eval(w)
	jo.borrowFilter(w)
	if w.filt != nil {
		jo.filterWindow(w)
	}
	jo.flush(w)
}

// eval makes output rows of a computed join's window rows past evald: a row
// the residual holds on is projected and packed down behind the rows already
// evaluated, any other is dropped. Output row o lands at o*width, at or before
// the row i ≥ o it came from at i*stride (width ≤ stride), so the pass runs in
// place. A plain join's window already holds output rows.
func (jo *joinOutput) eval(w *joinWorker) {
	if jo.projs == nil || w.evald == w.n {
		return
	}
	if w.row == nil {
		w.row = make([]int32, jo.width)
	}
	o := w.evald
	for i := w.evald; i < w.n; i++ {
		r := w.win[i*jo.stride : (i+1)*jo.stride]
		if !expr.All(jo.resid, r) {
			continue
		}
		for j, p := range jo.projs {
			w.row[j] = p.Eval(r)
		}
		copy(w.win[o*jo.width:], w.row)
		o++
	}
	w.expanded += int64(o - w.evald)
	w.n, w.evald = o, o
}

// borrowFilter takes a filter for the worker once the rows it has emitted in
// this join, the window's included, reach the activation point: clearing a
// table costs about what emitting its slot count in rows does, so a join that
// stays under that never pays for one.
func (jo *joinOutput) borrowFilter(w *joinWorker) {
	if jo.filter && w.filt == nil && !w.filtOff && w.emitted+w.n >= jo.activate {
		w.filt = jo.pool.borrowDupFilter(jo.width)
	}
}

// filterWindow passes the window's new rows through the worker's filter and
// then applies the bypass rule: once the filter has been shown as many rows
// as earn it its borrowing, a hit share under the minimum means the repeats
// lie further apart than the table reaches, and the worker gives the filter
// up for the rest of the join. The share is the filter's whole record in this
// join, not one window's — a CSPA join emits thousands of new tuples in a row
// between stretches that are nearly all repeats.
func (jo *joinOutput) filterWindow(w *joinWorker) {
	if w.n > w.passed {
		kept := w.filt.compact(w.win, jo.width, w.passed, w.n)
		w.seen += w.n - w.passed
		w.hits += w.n - kept
		w.n, w.evald = kept, kept
	}
	w.passed, w.dropped = w.n, 0
	if w.seen >= jo.activate && w.hits*kernels.BatchRows < jo.minHits*w.seen {
		jo.pool.returnDupFilter(w.filt)
		w.filt, w.filtOff = nil, true
	}
}

// flush hands the window's rows to the collector, or folds them into the
// worker's aggregate table (the flat sink's slot is the worker's).
func (jo *joinOutput) flush(w *joinWorker) {
	if w.n == 0 {
		return
	}
	rows := w.win[:w.n*jo.width]
	if jo.agg != nil {
		jo.agg.fold(w.flat.slot, rows, jo.width)
	} else if jo.col.part == nil {
		w.flat.write(rows)
	} else {
		if w.part == nil {
			w.part = jo.col.partSink(w.flat.slot)
		}
		switch {
		case jo.inPlace:
			w.part.writeBulk(w.p, rows)
			w.inPlace += int64(w.n)
		case w.n >= scatterBatchMin:
			if w.out == nil {
				w.out = getBatchBuf()
			}
			batchScatterBlock(w.part, rows, jo.width, w.out)
		default:
			for off := 0; off < len(rows); off += jo.width {
				w.part.write(rows[off : off+jo.width])
			}
		}
	}
	w.emitted += w.n
	w.n, w.passed, w.evald = 0, 0, 0
	if w.filtOff {
		w.bypassed++
	}
}

// finish runs on the calling goroutine once every worker has returned: the
// partial windows are filtered and flushed (unless the run is aborting — its
// output is discarded and a worker may have stopped mid-window), and every
// worker's scratch, filter and counts go back where they came from. It
// returns a join-fed aggregate's tables, for the caller to merge.
func (jo *joinOutput) finish() *joinAgg {
	aborted := jo.pool.Aborted()
	var expanded, suppressed, bypassed, inPlace int64
	for i := range jo.workers {
		w := &jo.workers[i]
		if !aborted {
			jo.drain(w)
		}
		if w.filt != nil {
			jo.pool.returnDupFilter(w.filt)
		}
		expanded += w.expanded
		suppressed += int64(w.hits)
		bypassed += w.bypassed
		inPlace += w.inPlace
		if w.probe != nil {
			putBatchBuf(w.probe)
		}
		if w.out != nil {
			putBatchBuf(w.out)
		}
		*w = joinWorker{}
	}
	c := &jo.pool.Copy
	c.JoinRowsExpanded.Add(expanded)
	c.DupSuppressed.Add(suppressed)
	c.DupFilterBypassed.Add(bypassed)
	c.OutputInPlace.Add(inPlace)
	jo.col.inPlace = inPlace
	agg := jo.agg
	*jo = joinOutput{workers: jo.workers}
	joinOutputs.Put(jo)
	return agg
}
