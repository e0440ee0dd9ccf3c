package exec

import (
	"fmt"
	"slices"
	"strconv"

	"recstep/internal/obs"
	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// JoinSpec describes one binary hash join. The logical output row is the
// concatenation left-row ++ right-row regardless of which side physically
// builds the hash table; Residual predicates and Projs are evaluated over
// that combined layout (left columns first).
type JoinSpec struct {
	LeftKeys, RightKeys []int
	// BuildLeft selects the physical build side. The optimizer builds a side
	// the running fixpoint never writes, and otherwise the smaller side by
	// the latest ANALYZE statistics — the decision OOF keeps correct across
	// iterations as delta sizes shift.
	BuildLeft bool
	// Partitions selects the radix fan-out of the build phase: the build
	// side is hash-partitioned on its key columns and each partition's table
	// is built by one worker with no shared state. <=1 builds one table.
	Partitions int
	// CacheBuild keeps the build table alive on the build relation, and
	// reuses the one already there: set by the planner for a build side that
	// does not change between the iterations of a fixpoint (an EDB, a lower
	// stratum), so that every later iteration probes it with ∆ instead of
	// rebuilding it or probing all of it. A cached table fixes its own
	// fan-out; Partitions then applies only to the build that populates the
	// cache.
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
	// A join-fed aggregate ignores it: COUNT and SUM must see the whole bag.
	OutSet bool
	// Agg, when set, makes the join a join-fed aggregate: it returns the
	// groups of Agg over its output rows and never materializes the join. It
	// is a pointer to keep JoinSpec narrow: the spec is copied by value down
	// the join's calls, and a query's branch goroutine whose frames outgrow
	// its stack copies the stack once per query, which a fixpoint of few-row
	// iterations pays every iteration.
	Agg *GroupAgg
}

// buildTable indexes (a partition of) the build side of a join: the non-key
// columns of its rows (their payload), copied row-major into one array grouped
// by join key, and a GroupTable over the keys. Group g's rows are
// rows[start[g]*width : start[g+1]*width], so a probe finds its key's group
// and reads the matches as one contiguous run. A build key equals the probe
// row's key, so the join reads key columns from the probe row (newJoinOutput)
// and the table never stores them: an all-key build keeps only each group's
// row count. One layout serves every key width, and the table points into no
// block of the relation it was built from: a cached one outlives the
// coalescing and the spilling of that relation's blocks.
type buildTable struct {
	width  int // payload columns per row
	groups *GroupTable
	start  []int32
	rows   []int32
}

// payloadCols returns, in order, the columns of an arity-wide row that are not
// among keys: the columns a build table stores.
func payloadCols(arity int, keys []int) []int {
	var cols []int
	for c := 0; c < arity; c++ {
		if !slices.Contains(keys, c) {
			cols = append(cols, c)
		}
	}
	return cols
}

// buildHashBlocks builds the table over the rows held in blocks: each row's
// key goes into the group table while its group's rows are counted, then a
// counting sort copies each row's payload columns into its group's run,
// finding the group again rather than remembering it per row. This is the
// partitioned single-threaded unit of work — one call per partition on data
// the worker owns exclusively — and, over a relation's full block snapshot,
// the serial shared-table build.
func buildHashBlocks(blocks []*storage.Block, arity int, keys, payload []int) *buildTable {
	groups := NewGroupTable(len(keys))
	// start[g+1] counts group g's rows; it grows with the group table, so it
	// reallocates only when the table doubles.
	start := make([]int32, 1, groups.Cap()+1)
	for _, b := range blocks {
		data := b.Data()
		for off := 0; off < len(data); off += arity {
			g, created := groups.InsertRow(data[off:off+arity], keys)
			if created {
				start = append(growTo(start, groups.Cap()+1), 0)
			}
			start[g+1]++
		}
	}
	// The prefix sum makes start[g] the first row of group g, the cursor the
	// copy advances to g's end.
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	bt := &buildTable{width: len(payload), groups: groups, start: start}
	if bt.width == 0 {
		return bt
	}
	bt.rows = make([]int32, int(start[len(start)-1])*bt.width)
	for _, b := range blocks {
		data := b.Data()
		for off := 0; off < len(data); off += arity {
			row := data[off : off+arity]
			g := groups.Find(row, keys)
			dst := bt.rows[int(start[g])*bt.width:][:bt.width]
			start[g]++
			for i, c := range payload {
				dst[i] = row[c]
			}
		}
	}
	// Each cursor now sits on the next group's first row: shift them back.
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
	return bt
}

// matches returns the build rows whose key equals row's cols values: their
// payloads as one row-major run, and how many there are (0 when none).
func (bt *buildTable) matches(row []int32, cols []int) ([]int32, int) {
	g := bt.groups.Find(row, cols)
	if g < 0 {
		return nil, 0
	}
	lo, hi := int(bt.start[g]), int(bt.start[g+1])
	return bt.rows[lo*bt.width : hi*bt.width], hi - lo
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
// on the parallel path. A probe row goes to tables[PartitionOf(h, parts)],
// h its partition hash; with one table that is tables[0] whatever h is.
type joinTable struct {
	parts  int
	tables []*buildTable
	one    [1]*buildTable // backs tables for a serial build: one allocation less per join
}

// Release implements storage.Attachment. A join table is plain heap data
// (copies of the build rows and their index); the collector reclaims it.
func (jt *joinTable) Release() {}

// Bytes implements storage.Attachment: none of a join table is
// pool-accounted, so the memory budget neither sees it nor gets anything
// back when it is dropped. What it costs the heap is BuildTableBytes.
func (jt *joinTable) Bytes() int64 { return 0 }

// BuildTableBytes estimates the heap a build table over rows build rows of
// the given arity, keyed on keys of its columns, allocates: the payload copy
// (4 bytes a non-key column a row) and the group table at one group per row,
// growth included — the slot arrays (about 20 bytes a group), the key arena
// (about 12 a key column) and the group offsets (about 12). The budget does
// not cover it; the planner only refuses to start keeping one while the pool
// has less room than this left.
func BuildTableBytes(rows, arity, keys int) int64 {
	return int64(rows) * int64(4*(arity-keys)+12*keys+32)
}

// BuildCacheKey names, among a relation's attachments, the build table keyed
// on the given columns. It runs once or twice per join per iteration, on the
// path where nothing else is left to pay: no fmt.
func BuildCacheKey(keys []int) string {
	b := append(make([]byte, 0, 16), "build"...)
	for _, k := range keys {
		b = strconv.AppendInt(append(b, ':'), int64(k), 10)
	}
	return string(b)
}

// joinBuild returns the join's build table: the cached one when the spec
// allows caching and the build relation still holds a current one, a fresh
// build (attached for the next join when caching) otherwise. The table holds
// its own copy of the rows, so a hit reads none of the build relation's
// blocks.
func joinBuild(pool *Pool, build *storage.Relation, keys []int, spec JoinSpec) *joinTable {
	if !spec.CacheBuild {
		return buildJoinTable(pool, build, keys, payloadCols(build.Arity(), keys), spec.Partitions)
	}
	key := BuildCacheKey(keys)
	if a, ok := build.Attachment(key); ok {
		pool.Copy.CachedBuildHits.Add(1)
		return a.(*joinTable)
	}
	v := build.Version() // before the build snapshots the blocks
	jt := buildJoinTable(pool, build, keys, payloadCols(build.Arity(), keys), spec.Partitions)
	build.Attach(key, jt, v)
	return jt
}

// buildJoinTable constructs the build side of a join, storing the payload
// columns of each row (payloadCols for a join, none for an anti join, which
// only asks whether a key is there). With parts <= 1 it is
// one table over the whole relation, mirroring QuickStep's shared join hash
// table (the scaling limiter the paper identifies past the physical core
// count). With parts > 1 the relation is radix-partitioned on the key
// columns and each partition's table is built by one worker over data it
// owns exclusively — no latches, no shared map, no CAS retries. When the relation already
// carries (or has cached) a partitioning on exactly the join keys — the
// join-key-carried fast path — the tables are built straight over the
// carried partition blocks and no tuple moves; the build-scatter counters
// record which of the two regimes each build hit. Per-partition builds run
// partition-affine, so across iterations the same worker re-builds over the
// same partition's blocks.
func buildJoinTable(pool *Pool, r *storage.Relation, keys, payload []int, parts int) *joinTable {
	parts = storage.NormalizePartitions(parts)
	arity := r.Arity()
	if parts <= 1 {
		defer pool.phase(obs.PhaseBuild, -1)()
		jt := &joinTable{parts: 1}
		jt.one[0] = buildHashBlocks(r.Blocks(), arity, keys, payload)
		jt.tables = jt.one[:]
		return jt
	}
	view, scattered := partitionRelation(pool, r, keys, parts, false)
	if scattered {
		pool.Copy.BuildScatters.Add(1)
	} else {
		pool.Copy.BuildScattersAvoided.Add(1)
	}
	pool.Copy.NoteBuild(r.Name(), keys, scattered)
	jt := &joinTable{parts: parts, tables: make([]*buildTable, parts)}
	pool.RunPartitions(parts, func(p int) {
		defer pool.phase(obs.PhaseBuild, p)()
		jt.tables[p] = buildHashBlocks(view.Blocks(p), arity, keys, payload)
	})
	return jt
}

// HashJoin executes one equi-join, or with spec.Agg a join-fed aggregate.
// With no key columns it degrades to a (filtered) cross product.
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
	var col *collector
	if spec.Agg != nil {
		// One sink per group-hash split: the merge emits split p into sink p.
		col = newCollector(pool, storage.CatIntermediate, spec.Agg.width(), spec.Agg.splits())
	} else {
		// One sink per worker: the probe hands them out by worker slot, and
		// its tasks may be more than the probe's blocks (a carried view's).
		col = outCollector(pool, spec.OutPartitioning, len(spec.Projs), pool.Workers())
	}
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
	agg := jo.finish()
	endProbe()
	if agg != nil && !pool.Aborted() {
		agg.merge(pool, col)
	}
	return col.into(spec.OutName, spec.OutCols)
}

// crossJoin computes the filtered Cartesian product, parallel over left
// blocks. Needed for rules like ntc(x,y) :- node(x), node(y), ¬tc(x,y). A
// join-fed aggregate over one (cnt(x, COUNT(y)) :- a(x), b(y)) aggregates the
// materialized product.
func crossJoin(pool *Pool, left, right *storage.Relation, spec JoinSpec) *storage.Relation {
	la, ra := left.Arity(), right.Arity()
	rightRows := right.Rows()
	nRight := len(rightRows) / ra
	blocks := left.Blocks()
	col := outCollector(pool, spec.OutPartitioning, len(spec.Projs), len(blocks))
	scatterRun(pool, col, blocks, func(b *storage.Block, emit func(row []int32)) {
		combined := make([]int32, la+ra)
		outRow := make([]int32, len(spec.Projs))
		var emitted int64
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
				emitted++
			}
		}
		pool.Copy.JoinRowsExpanded.Add(emitted)
	})
	out := col.into(spec.OutName, spec.OutCols)
	if a := spec.Agg; a != nil {
		agg := HashAggregatePartitioned(pool, out, a.GroupBy, a.Aggs, a.Parts, spec.OutName, spec.OutCols)
		out.Release()
		return agg
	}
	return out
}

// AntiJoin emits the projection of each left row with no right match on the
// key columns. It implements stratified negation (the negated atom's bound
// columns are the keys). Residual and Projs are evaluated over the left row.
// parts radix-partitions the build over the right side as in HashJoin.
func AntiJoin(pool *Pool, left, right *storage.Relation, leftKeys, rightKeys []int, residual []expr.Cmp, projs []expr.Expr, parts int, outName string, outCols []string) *storage.Relation {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		panic("exec: anti join requires matching non-empty key lists")
	}
	jt := antiJoinTable(pool, right, rightKeys, parts)
	blocks := left.Blocks()
	col := newCollector(pool, storage.CatIntermediate, len(projs), len(blocks))
	endProbe := pool.phase(obs.PhaseProbe, -1)
	pool.Run(len(blocks), func(task int) {
		b := blocks[task]
		emit := col.sink(task)
		outRow := make([]int32, len(projs))
		n := b.Rows()
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if !expr.All(residual, row) {
				continue
			}
			var h uint64
			if jt.parts > 1 {
				h = storage.PartitionHash(row, leftKeys)
			}
			if jt.tables[storage.PartitionOf(h, jt.parts)].groups.Find(row, leftKeys) >= 0 {
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

// antiJoinTable builds an anti join's right side keys-only: the probe asks
// only whether a key is there, so no row's columns are copied and the table
// is placed in one pass, as an all-key build's is.
func antiJoinTable(pool *Pool, right *storage.Relation, keys []int, parts int) *joinTable {
	return buildJoinTable(pool, right, keys, nil, parts)
}
