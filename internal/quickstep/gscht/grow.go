package gscht

// In-place growth. A table that outlives the pass that built it — the
// resident set-difference index kept on a full relation across fixpoint
// iterations — cannot be sized once from an estimate: R keeps growing under
// it. Grow doubles the bucket array and re-links the existing slab nodes
// into it. Nodes never move and no key is copied: the compact key stored in
// a node is re-mixed under the wider mask and the node's link field is
// rewritten, so growth costs one pass over the chains and the old bucket
// array goes back to the lifecycle pool.
//
// Growth is a quiescent-point operation: no insert or probe may run
// concurrently. Between grows the table is exactly as concurrent as before.

// NeedsGrow reports whether the table holds more keys than buckets — the
// load at which chains stop being length ≤ 1 on average.
func (t *Table64) NeedsGrow() bool { return t.Len() > len(t.buckets) }

// Grow doubles the bucket array, re-linking every node. Quiescent only.
func (t *Table64) Grow() {
	old := t.buckets
	n := 2 * len(old)
	nb := allocInt32s(t.lc, t.cat, n)
	clear(nb)
	mask := uint64(n - 1)
	sp := t.spine()
	for _, head := range old {
		for h := head; h != 0; {
			chunk, o := nodeAt64(sp, h-1)
			next := chunk[o+2]
			key := uint64(uint32(chunk[o])) | uint64(uint32(chunk[o+1]))<<32
			bi := (fibMix(key) >> 16) & mask
			chunk[o+2] = nb[bi]
			nb[bi] = h
			h = next
		}
	}
	t.buckets, t.mask = nb, mask
	freeInt32s(t.lc, t.cat, old)
}

// chunks is the number of node slabs allocated so far.
func (s *slabs) chunks() int {
	if sp := s.spine.Load(); sp != nil {
		return len(*sp)
	}
	return 0
}

// Bytes returns the table's resident footprint: bucket array plus node slabs.
func (t *Table64) Bytes() int64 {
	return 4 * (int64(len(t.buckets)) + int64(t.nodes.chunks())*chunkInt32s)
}

// NeedsGrow is Table64.NeedsGrow for 128-bit tables.
func (t *Table128) NeedsGrow() bool { return t.Len() > len(t.buckets) }

// Grow is Table64.Grow for 128-bit tables.
func (t *Table128) Grow() {
	old := t.buckets
	n := 2 * len(old)
	nb := allocInt32s(t.lc, t.cat, n)
	clear(nb)
	mask := uint64(n - 1)
	for _, head := range old {
		for h := head; h != 0; {
			chunk, o := t.node(h - 1)
			next := chunk[o+4]
			lo := uint64(uint32(chunk[o])) | uint64(uint32(chunk[o+1]))<<32
			hi := uint64(uint32(chunk[o+2])) | uint64(uint32(chunk[o+3]))<<32
			bi := (fibMix(lo^fibMix(hi)) >> 16) & mask
			chunk[o+4] = nb[bi]
			nb[bi] = h
			h = next
		}
	}
	t.buckets, t.mask = nb, mask
	freeInt32s(t.lc, t.cat, old)
}

// Buckets returns the bucket count.
func (t *Table128) Buckets() int { return len(t.buckets) }

// Bytes returns the table's resident footprint.
func (t *Table128) Bytes() int64 {
	return 4 * (int64(len(t.buckets)) + int64(t.nodes.chunks())*chunkInt32s)
}
