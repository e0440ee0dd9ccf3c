package storage

import (
	"reflect"
	"testing"
)

// flatDelta is one iteration's unpartitioned ∆R: a single compacted block of
// n rows, the way the fused delta step at fan-out ≤ 1 hands it over.
func flatDelta(lc Lifecycle, iter, n int) (*Relation, []int32) {
	b := NewBlockIn(lc, CatDelta, 2, 64)
	var rows []int32
	for i := 0; i < n; i++ {
		row := []int32{int32(iter), int32(i)}
		b.Append(row)
		rows = append(rows, row...)
	}
	b.Compact()
	d := NewRelation("delta", NumberedColumns(2))
	d.SetLifecycle(lc, CatDelta)
	d.AdoptBlock(b)
	return d, rows
}

// A relation that never carries a view (fan-out ≤ 1) takes one small block
// per iteration. Coalescing must bound its block count and footprint the way
// it does per partition, under the same rules: shared blocks are left alone,
// rewritten blocks are released exactly once (the poison allocator panics on
// a double free and corrupts any stale reader), contents stay intact.
func TestCoalesceFlatRelation(t *testing.T) {
	lc := newPoisonLifecycle()
	r := NewRelation("r", NumberedColumns(2))
	r.SetLifecycle(lc, CatIDB)

	const iters, perIter = 2000, 7
	var want []int32
	var prev *Relation
	maxBlocks := 0
	for iter := 0; iter < iters; iter++ {
		delta, rows := flatDelta(lc, iter, perIter)
		want = append(want, rows...)
		r.AppendRelation(delta)
		if prev != nil {
			prev.Release() // engine order: last iteration's ∆R dies now
		}
		prev = delta
		r.ReclaimRetired()
		r.CoalescePartitions()
		if _, ok := r.Partitioning(); ok {
			t.Fatal("flat relation acquired a carried view")
		}
		if n := len(r.Blocks()); n > maxBlocks {
			maxBlocks = n
		}
	}
	// ∆R of the last iteration is still shared with the delta table.
	shared := prev.Blocks()[0]
	if shared.Refs() != 2 {
		t.Fatalf("newest ∆R block has %d refs, want 2 (R and the delta table)", shared.Refs())
	}
	found := false
	for _, b := range r.Blocks() {
		found = found || b == shared
	}
	if !found {
		t.Fatal("coalescing rewrote a block the delta table still shares")
	}
	prev.Release()

	// 14 000 rows: 13 full chunks plus at most one run of small blocks, where
	// uncoalesced it would be 2000 minimum-class blocks.
	if limit := iters*perIter/coalesceSmallRows + 2*coalesceMinRun; maxBlocks > limit {
		t.Fatalf("flat list reached %d blocks, want ≤ %d", maxBlocks, limit)
	}
	var capBytes int64
	full := 0
	for _, b := range r.Blocks() {
		capBytes += b.CapBytes()
		if b.Rows() == coalesceSmallRows {
			full++
			if b.CapBytes() != coalesceSmallRows*2*4 {
				t.Fatalf("full chunk occupies %d bytes, want its %d exactly", b.CapBytes(), coalesceSmallRows*2*4)
			}
		}
	}
	if full != iters*perIter/coalesceSmallRows {
		t.Fatalf("%d full chunks, want %d", full, iters*perIter/coalesceSmallRows)
	}
	if data := int64(len(want)) * 4; capBytes > data*5/4 {
		t.Fatalf("R occupies %d bytes for %d bytes of tuples", capBytes, data)
	}
	wantRel := NewRelation("want", NumberedColumns(2))
	wantRel.AppendRows(want)
	if !reflect.DeepEqual(r.SortedRows(), wantRel.SortedRows()) {
		t.Fatal("flat coalescing corrupted relation contents")
	}
	r.Release()
	if n := lc.outstanding(); n != 0 {
		t.Fatalf("%d arrays leaked", n)
	}
}

// fakeAttachment counts its releases.
type fakeAttachment struct {
	bytes    int64
	released int
}

func (f *fakeAttachment) Release()     { f.released++ }
func (f *fakeAttachment) Bytes() int64 { return f.bytes }

func TestAttachmentVersionGuards(t *testing.T) {
	r := fillRelation(nil, "r", 100, 1)
	keys, table := &fakeAttachment{bytes: 10}, &fakeAttachment{bytes: 20}
	if !r.Attach("keys", keys, r.Version()) || !r.Attach("table", table, r.Version()) {
		t.Fatal("attach at the current version refused")
	}
	if a, ok := r.Attachment("keys"); !ok || a != Attachment(keys) {
		t.Fatal("current attachment not served")
	}

	// A physical rewrite changes nothing an attachment derived.
	for i := 0; i < coalesceMinRun; i++ {
		r.AdoptBlock(BlockFromRows(2, []int32{int32(-i), 0}))
	}
	keys2 := &fakeAttachment{bytes: 10}
	table2 := &fakeAttachment{bytes: 20}
	v := r.Version()
	r.Attach("keys", keys2, v)
	r.Attach("table", table2, v)
	r.CoalescePartitions()
	for _, key := range []string{"keys", "table"} {
		if _, ok := r.Attachment(key); !ok {
			t.Fatalf("%s died with a block rewrite", key)
		}
	}

	// A stale version is refused, and custody stays with the caller.
	stale := r.Version()
	r.Append([]int32{9, 9})
	late := &fakeAttachment{}
	if r.Attach("late", late, stale) {
		t.Fatal("attachment derived before a mutation was accepted after it")
	}
	if _, ok := r.Attachment("keys"); ok {
		t.Fatal("attachment survived a mutation it did not see")
	}

	// Everything the relation gave up on is released exactly once — replaced
	// or found stale at a lookup, or at the next sweep; the refused one never.
	r.ReclaimRetired()
	for name, f := range map[string]*fakeAttachment{"keys": keys, "table": table, "keys2": keys2, "table2": table2} {
		if f.released != 1 {
			t.Fatalf("%s released %d times, want 1", name, f.released)
		}
	}
	if late.released != 0 {
		t.Fatal("refused attachment released by the relation")
	}
}

// The incremental protocol of the resident set-difference index: take it,
// extend it with ∆R, hand it back with the append.
func TestAppendRelationAttaching(t *testing.T) {
	r := fillRelation(nil, "r", 50, 1)
	idx := &fakeAttachment{bytes: 8}
	other := &fakeAttachment{bytes: 1}
	r.Attach("idx", idx, r.Version())
	r.Attach("other", other, r.Version())

	for i := 0; i < 3; i++ {
		a, ok := r.TakeAttachment("idx")
		if !ok || a != Attachment(idx) {
			t.Fatalf("round %d: index not served back", i)
		}
		if _, ok := r.Attachment("idx"); ok {
			t.Fatal("a taken attachment is still reachable")
		}
		if got := r.TryEvictAttachments(); i == 0 && (got != 1 || other.released != 1) {
			t.Fatalf("reclaimer freed %d bytes, want only the attachment still attached (1)", got)
		}
		v := r.Version()
		if !r.AppendRelationAttaching(fillRelation(nil, "d", 10, 1000*(i+1)), "idx", idx, v) {
			t.Fatalf("round %d: index refused by an unchanged relation", i)
		}
	}
	if r.NumTuples() != 80 {
		t.Fatalf("R holds %d tuples, want 80", r.NumTuples())
	}

	// A mutation between take and hand-back is detected: the append happens,
	// the index stays with the caller.
	r.TakeAttachment("idx")
	v := r.Version()
	r.Append([]int32{1, 1})
	if r.AppendRelationAttaching(fillRelation(nil, "d", 10, 9000), "idx", idx, v) {
		t.Fatal("index accepted although the relation changed under it")
	}
	if r.NumTuples() != 91 {
		t.Fatalf("R holds %d tuples, want 91: a refused index must not refuse the append", r.NumTuples())
	}
	if _, ok := r.Attachment("idx"); ok {
		t.Fatal("refused index is attached")
	}

	r.Release()
	if idx.released != 0 {
		t.Fatal("relation released an attachment it had refused")
	}
	if other.released != 1 {
		t.Fatalf("dropped attachment released %d times, want 1", other.released)
	}
}

// Eviction releases only what gives the budget bytes back; a heap-backed
// attachment stays until the relation drops everything.
func TestDropAttachments(t *testing.T) {
	r := fillRelation(nil, "r", 10, 1)
	a := &fakeAttachment{bytes: 64}
	heap := &fakeAttachment{}
	r.Attach("a", a, r.Version())
	r.Attach("heap", heap, r.Version())
	if got := r.EvictAttachments(); got != 64 || a.released != 1 || heap.released != 0 {
		t.Fatalf("EvictAttachments freed %d bytes, released the pool one %d and the heap one %d times; want 64, once, never",
			got, a.released, heap.released)
	}
	if _, ok := r.Attachment("heap"); !ok {
		t.Fatal("eviction dropped a heap-backed attachment")
	}
	if got := r.DropAttachments(); got != 0 || heap.released != 1 {
		t.Fatalf("DropAttachments freed %d bytes, released the heap one %d times; want 0, once", got, heap.released)
	}
	if r.DropAttachments() != 0 {
		t.Fatal("second drop found something")
	}
}

// countingPager is the least a Pager can be: an epoch clock and a spill that
// keeps nothing.
type countingPager struct {
	epoch  int64
	spills int
}

func (p *countingPager) Epoch() int64 { return p.epoch }
func (p *countingPager) SpillBlocks(int, []*Block) (any, int64, error) {
	p.spills++
	return p.spills, 0, nil
}
func (p *countingPager) FaultBlocks(any, Lifecycle, Category, int) ([]*Block, error) {
	return nil, nil
}
func (p *countingPager) DropSpill(any) {}

// A spill evicts a partition's blocks without changing the relation's
// contents: the attachments stay current, and the relation keeps serving them.
func TestAttachmentsSurvivePartitionSpill(t *testing.T) {
	lc := newPoisonLifecycle()
	rows := make([]int32, 0, 400)
	for i := int32(0); i < 200; i++ {
		rows = append(rows, i, i+1)
	}
	r := NewRelation("r", NumberedColumns(2))
	r.SetLifecycle(lc, CatDelta)
	r.AdoptPartitioned(scatterRows(lc, CatDelta, rows, []int{0}, 4))
	pg := &countingPager{}
	r.EnableSpill(pg)
	table := &fakeAttachment{}
	r.Attach("table", table, r.Version())

	// Two epochs on, every partition is cold, and a lookup does not warm one.
	pg.epoch = 2
	if _, ok := r.Attachment("table"); !ok {
		t.Fatal("current attachment not served")
	}
	if _, ok := r.SpillPartition(0, pg); !ok || pg.spills != 1 {
		t.Fatal("cold partition refused to spill")
	}
	if a, ok := r.Attachment("table"); !ok || a != Attachment(table) {
		t.Fatal("attachment lost to a partition spill")
	}
	if table.released != 0 {
		t.Fatalf("current attachment released %d times by a spill", table.released)
	}
}
