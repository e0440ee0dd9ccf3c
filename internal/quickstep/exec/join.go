package exec

import (
	"fmt"
	"strconv"

	"recstep/internal/obs"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/gscht"
	"recstep/internal/quickstep/storage"
)

// JoinSpec describes one binary hash join. The logical output row is the
// concatenation left-row ++ right-row regardless of which side physically
// builds the hash table; Residual predicates and Projs are evaluated over
// that combined layout (left columns first).
type JoinSpec struct {
	LeftKeys, RightKeys []int
	// BuildLeft selects the physical build side. The optimizer picks the
	// smaller side using the latest ANALYZE statistics — the decision OOF
	// keeps correct across iterations as delta sizes shift.
	BuildLeft bool
	// Partitions selects the radix fan-out of the build phase: the build
	// side is hash-partitioned on its key columns and each partition's table
	// is built by one worker with no shared state. <=1 builds one table.
	Partitions int
	// CacheBuild keeps the build table alive on the build relation, and
	// reuses the one already there: set by the planner for a build side that
	// does not change between the iterations of a fixpoint (a base relation,
	// a lower stratum), once rebuilding or rescanning it every iteration has
	// cost more than holding the table. A cached table fixes its own fan-out;
	// Partitions then applies only to the build that populates the cache.
	CacheBuild bool
	Residual   []expr.Cmp
	Projs      []expr.Expr
	OutName    string
	OutCols    []string
	// OutPartitioning, when set, makes the probe phase emit its output rows
	// scattered directly into radix partitions of the *output* layout — the
	// fused scatter. The result relation carries the partitioning, so the
	// next consumer keyed the same way (the fused delta step, a downstream
	// build) skips its own re-partition pass entirely.
	OutPartitioning *storage.Partitioning
	// OutSet says the consumer of the output treats it as a set — it removes
	// duplicates before anything else reads the rows — so the join may drop a
	// row equal to one this call has already emitted (see dupfilter.go). It
	// need not: the mark permits, the join decides from what it observes.
	OutSet bool
}

// blockShift packs a (block, row) build-row locator into one int32:
// block index in the high bits, row-in-block in the low blockShift bits.
// Partition scatter already copied every build row once; indexing the
// scattered blocks in place avoids paying a second flattening copy.
const blockShift = 14

// Compile-time guards: the locator layout assumes blocks hold exactly
// 1<<blockShift rows.
var (
	_ [storage.DefaultBlockRows - 1<<blockShift]struct{}
	_ [1<<blockShift - storage.DefaultBlockRows]struct{}
)

// packCols64 packs up to two key columns of a row into a 64-bit key.
func packCols64(row []int32, cols []int) uint64 {
	switch len(cols) {
	case 1:
		return uint64(uint32(row[cols[0]]))
	case 2:
		return uint64(uint32(row[cols[0]]))<<32 | uint64(uint32(row[cols[1]]))
	}
	panic("exec: packCols64 supports 1 or 2 key columns")
}

// packCols128 packs three or four key columns into a 128-bit compact key,
// reusing the gscht key layout so no string materializes on the hot path.
func packCols128(row []int32, cols []int) gscht.Key128 {
	switch len(cols) {
	case 3:
		return gscht.Key128{
			Hi: uint64(uint32(row[cols[0]])),
			Lo: uint64(uint32(row[cols[1]]))<<32 | uint64(uint32(row[cols[2]])),
		}
	case 4:
		return gscht.Key128{
			Hi: uint64(uint32(row[cols[0]]))<<32 | uint64(uint32(row[cols[1]])),
			Lo: uint64(uint32(row[cols[2]]))<<32 | uint64(uint32(row[cols[3]])),
		}
	}
	panic("exec: packCols128 supports 3 or 4 key columns")
}

// packColsString packs any number of key columns into a string key (the
// fallback for joins on more than four key columns, which no benchmark
// program produces).
func packColsString(row []int32, cols []int, buf []byte) string {
	buf = buf[:0]
	for _, c := range cols {
		v := uint32(row[c])
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// buildTable is a chaining hash table over (a partition of) the build side
// of a join, mapping join-key values to build row locations. Key packing
// picks the narrowest compact form: 64-bit for ≤2 columns, 128-bit for 3–4,
// string beyond. Both the serial and the partitioned path index storage
// blocks in place by (block, row) locator — no path flattens the build side
// into a row-major copy.
type buildTable struct {
	arity  int
	blocks []*storage.Block // indexed blocks: relation snapshot or scattered partition
	keys   []int
	by64   map[uint64][]int32
	by128  map[gscht.Key128][]int32
	byS    map[string][]int32
}

// initMaps sizes the key→locations map for n build rows.
func (bt *buildTable) initMaps(n int) {
	switch {
	case len(bt.keys) <= 2:
		bt.by64 = make(map[uint64][]int32, n)
	case len(bt.keys) <= 4:
		bt.by128 = make(map[gscht.Key128][]int32, n)
	default:
		bt.byS = make(map[string][]int32, n)
	}
}

// insert records one build row under its packed key.
func (bt *buildTable) insert(row []int32, loc int32, buf []byte) {
	switch {
	case bt.by64 != nil:
		k := packCols64(row, bt.keys)
		bt.by64[k] = append(bt.by64[k], loc)
	case bt.by128 != nil:
		k := packCols128(row, bt.keys)
		bt.by128[k] = append(bt.by128[k], loc)
	default:
		k := packColsString(row, bt.keys, buf)
		bt.byS[k] = append(bt.byS[k], loc)
	}
}

// buildHashBlocks indexes a block list in place by (block, row) locator.
// This is the partitioned single-threaded unit of work — one call per
// partition on data the worker owns exclusively — and, over a relation's
// full block snapshot, the serial shared-table build.
func buildHashBlocks(blocks []*storage.Block, arity, rows int, keys []int) *buildTable {
	bt := &buildTable{arity: arity, blocks: blocks, keys: keys}
	bt.initMaps(rows)
	buf := make([]byte, 4*len(keys))
	for bi, b := range blocks {
		n := b.Rows()
		for i := 0; i < n; i++ {
			bt.insert(b.Row(i), int32(bi<<blockShift|i), buf)
		}
	}
	return bt
}

// buildHash builds the serial shared table over the whole relation — the
// Partitions <= 1 path, mirroring contention on QuickStep's shared join hash
// table (the scaling limiter the paper identifies past the physical core
// count). The relation's blocks are indexed in place, with no flattening
// copy first.
func buildHash(r *storage.Relation, keys []int) *buildTable {
	return buildHashBlocks(r.Blocks(), r.Arity(), r.NumTuples(), keys)
}

func (bt *buildTable) lookup(probeRow []int32, probeKeys []int, buf []byte) []int32 {
	switch {
	case bt.by64 != nil:
		return bt.by64[packCols64(probeRow, probeKeys)]
	case bt.by128 != nil:
		return bt.by128[packCols128(probeRow, probeKeys)]
	default:
		return bt.byS[packColsString(probeRow, probeKeys, buf)]
	}
}

// outCollector picks an operator's output collector: partition-routing when
// the caller requested fused scatter (sized per worker — see scatterRun),
// flat otherwise (sized per block task).
func outCollector(pool *Pool, part *storage.Partitioning, arity, numBlocks int) *collector {
	if part == nil {
		return newCollector(pool, storage.CatIntermediate, arity, numBlocks)
	}
	sinks := pool.Workers()
	if sinks > numBlocks {
		sinks = numBlocks
	}
	if sinks < 1 {
		sinks = 1
	}
	return newPartCollector(pool, storage.CatIntermediate, arity, sinks, *part, &pool.Copy)
}

// joinTable routes probe rows to the hash table holding their key range —
// one shared table on the serial path, one private table per radix partition
// on the parallel path.
type joinTable struct {
	parts  int
	single *buildTable   // parts == 1
	tables []*buildTable // parts > 1, indexed by partition
}

// buildTableBytesPerRow is the heap cost of one build row in a Go-map build
// table: the map slot (key, slice header, overhead) plus the locator list's
// backing array — about six times the 8 bytes of the binary tuple it indexes.
const buildTableBytesPerRow = 48

// Release implements storage.Attachment. A join table is plain heap data
// (maps over locators into the relation's own blocks); the collector
// reclaims it.
func (jt *joinTable) Release() {}

// Bytes implements storage.Attachment: none of a join table is
// pool-accounted, so the memory budget neither sees it nor gets anything
// back when it is dropped. What it costs the heap is BuildTableBytes.
func (jt *joinTable) Bytes() int64 { return 0 }

// BuildTableBytes estimates the heap footprint of a cached build table over
// rows build rows. The budget does not cover it; the planner only refuses to
// start keeping one while the pool has less room than this left.
func BuildTableBytes(rows int) int64 { return int64(rows) * buildTableBytesPerRow }

// BuildCacheKey names, among a relation's attachments and rescan tallies,
// the build table keyed on the given columns. It runs once or twice per join
// per iteration, on the path where nothing else is left to pay: no fmt.
func BuildCacheKey(keys []int) string {
	b := append(make([]byte, 0, 16), "build"...)
	for _, k := range keys {
		b = strconv.AppendInt(append(b, ':'), int64(k), 10)
	}
	return string(b)
}

// joinBuild returns the join's build table: the cached one when the spec
// allows caching and the build relation still holds a current one, a fresh
// build (attached for the next join when caching) otherwise. The table
// addresses rows by block position, so the attachment is layout-bound, and a
// hit pins the build relation's partitions for this epoch the way the block
// reads of a rebuild would have.
func joinBuild(pool *Pool, build *storage.Relation, keys []int, spec JoinSpec) *joinTable {
	if !spec.CacheBuild {
		return buildJoinTable(pool, build, keys, spec.Partitions)
	}
	key := BuildCacheKey(keys)
	if a, ok := build.PinAttachment(key); ok {
		pool.Copy.CachedBuildHits.Add(1)
		return a.(*joinTable)
	}
	v := build.Version() // before the build snapshots the blocks
	jt := buildJoinTable(pool, build, keys, spec.Partitions)
	build.Attach(key, jt, v, true)
	return jt
}

// buildJoinTable constructs the build side of a join. With parts > 1 the
// relation is radix-partitioned on the key columns and each
// partition's table is built by one worker over data it owns exclusively —
// no latches, no shared map, no CAS retries. When the relation already
// carries (or has cached) a partitioning on exactly the join keys — the
// join-key-carried fast path — the tables are built straight over the
// carried partition blocks and no tuple moves; the build-scatter counters
// record which of the two regimes each build hit. Per-partition builds run
// partition-affine, so across iterations the same worker re-builds over the
// same partition's blocks.
func buildJoinTable(pool *Pool, r *storage.Relation, keys []int, parts int) *joinTable {
	parts = storage.NormalizePartitions(parts)
	if parts <= 1 {
		defer pool.phase(obs.PhaseBuild, -1)()
		return &joinTable{parts: 1, single: buildHash(r, keys)}
	}
	view, scattered := partitionRelation(pool, r, keys, parts, false)
	if scattered {
		pool.Copy.BuildScatters.Add(1)
	} else {
		pool.Copy.BuildScattersAvoided.Add(1)
	}
	pool.Copy.NoteBuild(r.Name(), keys, scattered)
	jt := &joinTable{parts: parts, tables: make([]*buildTable, parts)}
	arity := r.Arity()
	pool.RunPartitions(parts, func(p int) {
		defer pool.phase(obs.PhaseBuild, p)()
		jt.tables[p] = buildHashBlocks(view.Blocks(p), arity, view.Rows(p), keys)
	})
	return jt
}

// lookup returns the matches for a probe row plus the table that can
// materialize them (row indices are partition-local).
func (jt *joinTable) lookup(probeRow []int32, probeKeys []int, buf []byte) (*buildTable, []int32) {
	bt := jt.single
	if jt.parts > 1 {
		bt = jt.tables[storage.PartitionOf(storage.PartitionHash(probeRow, probeKeys), jt.parts)]
	}
	return bt, bt.lookup(probeRow, probeKeys, buf)
}

// HashJoin executes one equi-join. With no key columns it degrades to a
// (filtered) cross product.
func HashJoin(pool *Pool, left, right *storage.Relation, spec JoinSpec) *storage.Relation {
	if len(spec.LeftKeys) != len(spec.RightKeys) {
		panic(fmt.Sprintf("exec: join key arity mismatch %d vs %d", len(spec.LeftKeys), len(spec.RightKeys)))
	}
	if len(spec.Projs) == 0 {
		panic("exec: join requires at least one output projection")
	}
	if len(spec.LeftKeys) == 0 {
		return crossJoin(pool, left, right, spec)
	}
	la := left.Arity()

	var build, probe *storage.Relation
	var buildKeys, probeKeys []int
	if spec.BuildLeft {
		build, probe = left, right
		buildKeys, probeKeys = spec.LeftKeys, spec.RightKeys
	} else {
		build, probe = right, left
		buildKeys, probeKeys = spec.RightKeys, spec.LeftKeys
	}
	jt := joinBuild(pool, build, buildKeys, spec)

	blocks := probe.Blocks()
	pool.Copy.JoinProbeRows.Add(int64(probe.NumTuples()))
	// One sink per worker: the probe hands them out by worker slot, and its
	// tasks may be more than the probe's blocks (a carried view's blocks).
	col := outCollector(pool, spec.OutPartitioning, len(spec.Projs), pool.Workers())
	endProbe := pool.phase(obs.PhaseProbe, -1)
	jo := newJoinOutput(pool, col, spec, la)
	if view := jo.probeView(probe); view != nil {
		jo.probeInPlace(jt, view, probeKeys)
	} else {
		pool.runTasksPerWorker(len(blocks), func(worker, t int) {
			pool.observeBatch(blocks[t].Rows())
			jo.probeBlock(&jo.workers[worker], jt, blocks[t], probeKeys)
		})
	}
	jo.finish()
	endProbe()
	return col.into(spec.OutName, spec.OutCols)
}

// crossJoin computes the filtered Cartesian product, parallel over left
// blocks. Needed for rules like ntc(x,y) :- node(x), node(y), ¬tc(x,y).
func crossJoin(pool *Pool, left, right *storage.Relation, spec JoinSpec) *storage.Relation {
	la, ra := left.Arity(), right.Arity()
	rightRows := right.Rows()
	nRight := len(rightRows) / ra
	blocks := left.Blocks()
	col := outCollector(pool, spec.OutPartitioning, len(spec.Projs), len(blocks))
	scatterRun(pool, col, blocks, func(b *storage.Block, emit func(row []int32)) {
		combined := make([]int32, la+ra)
		outRow := make([]int32, len(spec.Projs))
		n := b.Rows()
		for i := 0; i < n; i++ {
			copy(combined[:la], b.Row(i))
			for j := 0; j < nRight; j++ {
				copy(combined[la:], rightRows[j*ra:(j+1)*ra])
				if !expr.All(spec.Residual, combined) {
					continue
				}
				for k, p := range spec.Projs {
					outRow[k] = p.Eval(combined)
				}
				emit(outRow)
			}
		}
	})
	return col.into(spec.OutName, spec.OutCols)
}

// AntiJoin emits the projection of each left row with no right match on the
// key columns. It implements stratified negation (the negated atom's bound
// columns are the keys). Residual and Projs are evaluated over the left row.
// parts radix-partitions the build over the right side as in HashJoin.
func AntiJoin(pool *Pool, left, right *storage.Relation, leftKeys, rightKeys []int, residual []expr.Cmp, projs []expr.Expr, parts int, outName string, outCols []string) *storage.Relation {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		panic("exec: anti join requires matching non-empty key lists")
	}
	jt := buildJoinTable(pool, right, rightKeys, parts)
	blocks := left.Blocks()
	col := newCollector(pool, storage.CatIntermediate, len(projs), len(blocks))
	endProbe := pool.phase(obs.PhaseProbe, -1)
	pool.Run(len(blocks), func(task int) {
		b := blocks[task]
		emit := col.sink(task)
		outRow := make([]int32, len(projs))
		keyBuf := make([]byte, 4*len(leftKeys))
		n := b.Rows()
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if !expr.All(residual, row) {
				continue
			}
			if _, matches := jt.lookup(row, leftKeys, keyBuf); len(matches) != 0 {
				continue
			}
			for j, p := range projs {
				outRow[j] = p.Eval(row)
			}
			emit(outRow)
		}
	})
	endProbe()
	return col.into(outName, outCols)
}
