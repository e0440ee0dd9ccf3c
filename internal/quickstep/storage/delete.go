package storage

// Tuple deletion. Incremental maintenance removes deleted base rows from
// resident relations in place. Deletion is the third flat-mutation kind
// next to Append and AdoptBlock, but unlike those it preserves a carried
// partitioned view when one exists: only the partitions that actually lose
// tuples are compacted (their blocks rewritten), every other partition keeps
// its blocks — and with them the spill/fault bookkeeping and the block
// sharing AppendRelation set up. Blocks shared with other relations are
// released, not freed: the other holders' references keep the data alive.

// tombstoneSet is the staged set of tuples one DeleteRows call removes — a
// plain Go map keyed on the packed tuple. Update deltas are small (that is
// the point of incremental maintenance), so a hash set per call beats
// maintaining a persistent index.
type tombstoneSet struct {
	arity int
	m     map[string]struct{}
}

func newTombstoneSet(arity int, rows [][]int32) *tombstoneSet {
	t := &tombstoneSet{arity: arity, m: make(map[string]struct{}, len(rows))}
	for _, row := range rows {
		if len(row) != arity {
			panic("storage: tombstone arity mismatch")
		}
		t.m[packTuple(row)] = struct{}{}
	}
	return t
}

func (t *tombstoneSet) has(row []int32) bool {
	_, ok := t.m[packTuple(row)]
	return ok
}

// packTuple encodes a tuple as a byte string key (4 bytes per column,
// little-endian). Allocation-free for map lookups on Go's string-keyed maps
// would need unsafe; deletion volumes are update-sized, so the copies are
// noise.
func packTuple(row []int32) string {
	buf := make([]byte, 4*len(row))
	for i, v := range row {
		u := uint32(v)
		buf[4*i] = byte(u)
		buf[4*i+1] = byte(u >> 8)
		buf[4*i+2] = byte(u >> 16)
		buf[4*i+3] = byte(u >> 24)
	}
	return string(buf)
}

// DeleteRows removes every occurrence of each given tuple from the relation,
// returning how many rows were removed. Tuples not present are ignored.
// Spilled partitions are faulted back in first; a sticky fault-read error
// poisons the call (the relation's data is partly unreachable, so a delete
// could not be applied consistently) and is returned without mutating
// anything. When the relation carries a live partitioned view, only the
// partitions containing deleted tuples are compacted and the view survives;
// otherwise the affected flat blocks are rewritten and cached views drop.
func (r *Relation) DeleteRows(rows [][]int32) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	tomb := newTombstoneSet(len(r.colNames), rows)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealLocked()
	r.faultAllLocked()
	if r.faultErr != nil {
		return 0, r.faultErr
	}
	if r.live != nil {
		return r.deletePartitionedLocked(tomb), nil
	}
	return r.deleteFlatLocked(tomb), nil
}

// deletePartitionedLocked compacts only the carried view's affected
// partitions. The flat block list is rebuilt from the view afterwards (the
// carried view aliases the flat contents by construction, so the view *is*
// the authoritative block set once spilled partitions are resident).
func (r *Relation) deletePartitionedLocked(tomb *tombstoneSet) int {
	live := r.live
	affected := make(map[int]bool)
	for key := range tomb.m {
		row := unpackTuple(key, tomb.arity)
		affected[PartitionOf(PartitionHash(row, live.keyCols), live.parts)] = true
	}
	removed := 0
	for p := range affected {
		kept, dropped, hit := compactBlocks(r.lc, r.cat, tomb, live.blocks[p])
		if !hit {
			continue
		}
		removed += dropped
		// Retired, not released: a concurrent scan may hold the old list.
		r.retired = append(r.retired, live.blocks[p]...)
		live.blocks[p] = kept
		live.rows[p] -= dropped
	}
	if removed == 0 {
		return 0
	}
	flat := make([]*Block, 0, len(r.blocks))
	for p := 0; p < live.parts; p++ {
		flat = append(flat, live.blocks[p]...)
	}
	r.blocks = flat
	r.open = nil
	r.rows -= removed
	// Cached views are stale now; the carried view itself was compacted in
	// place and stays.
	r.retired = append(r.retired, r.ownedView...)
	r.ownedView = nil
	r.partViews = map[string]*PartitionedView{partitionKey(live.keyCols, live.parts): live}
	r.gen++
	return removed
}

// deleteFlatLocked rewrites the affected blocks of an uncarried relation and
// invalidates every cached view.
func (r *Relation) deleteFlatLocked(tomb *tombstoneSet) int {
	kept, dropped, hit := compactBlocks(r.lc, r.cat, tomb, r.blocks)
	if !hit {
		return 0
	}
	// Retired, not released: a concurrent scan may hold the old list.
	r.retired = append(r.retired, r.blocks...)
	r.blocks = kept
	r.open = nil
	r.rows -= dropped
	r.invalidatePartitionsLocked()
	return dropped
}

// compactBlocks returns a replacement block list with every tombstoned row
// removed, retaining untouched blocks as-is (no copy, one extra reference
// each — the caller retires its references to the *old* list wholesale).
// hit reports whether any block contained a tombstoned row; when false the
// inputs are untouched and no references moved.
func compactBlocks(lc Lifecycle, cat Category, tomb *tombstoneSet, blocks []*Block) (kept []*Block, dropped int, hit bool) {
	for _, b := range blocks {
		if blockHasTombstone(b, tomb) {
			hit = true
			break
		}
	}
	if !hit {
		return nil, 0, false
	}
	var survivors []int32
	for _, b := range blocks {
		if !blockHasTombstone(b, tomb) {
			b.Retain()
			kept = append(kept, b)
			continue
		}
		n := b.Rows()
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if tomb.has(row) {
				dropped++
			} else {
				survivors = append(survivors, row...)
			}
		}
	}
	kept = append(kept, BlocksFromRows(lc, cat, tomb.arity, survivors)...)
	return kept, dropped, true
}

func blockHasTombstone(b *Block, tomb *tombstoneSet) bool {
	n := b.Rows()
	for i := 0; i < n; i++ {
		if tomb.has(b.Row(i)) {
			return true
		}
	}
	return false
}

// unpackTuple reverses packTuple.
func unpackTuple(key string, arity int) []int32 {
	row := make([]int32, arity)
	for i := range row {
		u := uint32(key[4*i]) | uint32(key[4*i+1])<<8 | uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24
		row[i] = int32(u)
	}
	return row
}
