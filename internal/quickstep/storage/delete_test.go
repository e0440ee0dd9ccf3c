package storage

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// Flat-path deletion: affected blocks are rewritten, absent tuples are
// ignored, and releasing the relation afterwards frees every array exactly
// once (the poison lifecycle panics on double free).
func TestDeleteRowsFlat(t *testing.T) {
	lc := newPoisonLifecycle()
	r := fillRelation(lc, "r", 500, 1)

	removed, err := r.DeleteRows([][]int32{
		{1, 1},     // row 0 (seed 1, i 0)
		{3, 5},     // row 2
		{900, 900}, // absent: ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d rows, want 2", removed)
	}
	if r.NumTuples() != 498 {
		t.Fatalf("NumTuples() = %d, want 498", r.NumTuples())
	}
	r.ForEach(func(tu []int32) {
		if (tu[0] == 1 && tu[1] == 1) || (tu[0] == 3 && tu[1] == 5) {
			t.Fatalf("deleted tuple %v still present", tu)
		}
	})

	// A delete hitting nothing must not touch the block list.
	gen := r.Generation()
	removed, err = r.DeleteRows([][]int32{{901, 901}})
	if err != nil || removed != 0 {
		t.Fatalf("phantom delete: removed=%d err=%v", removed, err)
	}
	if r.Generation() != gen {
		t.Fatal("phantom delete bumped the relation generation")
	}

	r.Release()
	if n := lc.outstanding(); n != 0 {
		t.Fatalf("%d arrays leaked after release", n)
	}
}

// Partitioned-path deletion: a relation carrying a live partitioned view
// keeps the view; only the partitions containing deleted tuples are
// compacted, and the partitioning descriptor survives for later carried
// merges.
func TestDeleteRowsPartitionedKeepsView(t *testing.T) {
	lc := newPoisonLifecycle()
	parts := 8
	blocks := make([][]*Block, parts)
	for p := 0; p < parts; p++ {
		blocks[p] = []*Block{NewBlockIn(lc, CatDelta, 2, 16)}
	}
	// Scatter on the first column: all rows of one source value land in the
	// partition its hash selects.
	for v := int32(0); v < 32; v++ {
		p := PartitionOf(PartitionHash([]int32{v, 0}, []int{0}), parts)
		for i := int32(0); i < 10; i++ {
			blocks[p][0].Append([]int32{v, i})
		}
	}
	r := NewRelation("r", NumberedColumns(2))
	r.SetLifecycle(lc, CatIDB)
	r.AdoptPartitioned(NewPartitionedView([]int{0}, parts, blocks))
	before := r.NumTuples()
	if before == 0 {
		t.Fatal("fixture produced no tuples")
	}

	// Delete every tuple of one source value: exactly one partition is hit.
	victim := int32(3)
	var del [][]int32
	r.ForEach(func(tu []int32) {
		if tu[0] == victim {
			del = append(del, append([]int32(nil), tu...))
		}
	})
	if len(del) == 0 {
		t.Fatal("no victim tuples in fixture")
	}
	removed, err := r.DeleteRows(del)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(del) {
		t.Fatalf("removed %d rows, want %d", removed, len(del))
	}
	if r.NumTuples() != before-len(del) {
		t.Fatalf("NumTuples() = %d, want %d", r.NumTuples(), before-len(del))
	}
	if _, ok := r.Partitioning(); !ok {
		t.Fatal("carried partitioned view dropped by partition-local delete")
	}
	r.ForEach(func(tu []int32) {
		if tu[0] == victim {
			t.Fatalf("deleted tuple %v still present", tu)
		}
	})

	r.Release()
	if n := lc.outstanding(); n != 0 {
		t.Fatalf("%d arrays leaked after release", n)
	}
}

// Deleting from a relation that shares blocks with another (AppendRelation
// aliasing) must release — not free — the shared blocks: the other holder's
// contents stay intact.
func TestDeleteRowsSharedBlocksReleaseNotFree(t *testing.T) {
	lc := newPoisonLifecycle()
	src := fillRelation(lc, "src", 1000, 1)
	want := src.SortedRows()

	dst := NewRelation("dst", NumberedColumns(2))
	dst.SetLifecycle(lc, CatIntermediate)
	dst.AppendRelation(src)

	removed, err := dst.DeleteRows([][]int32{{1, 1}, {2, 3}})
	if err != nil || removed != 2 {
		t.Fatalf("removed=%d err=%v, want 2 removed", removed, err)
	}
	if got := src.SortedRows(); !reflect.DeepEqual(got, want) {
		t.Fatal("delete on the sharing relation mutated the source's contents")
	}

	src.Release()
	dst.Release()
	if n := lc.outstanding(); n != 0 {
		t.Fatalf("%d arrays leaked after releasing both relations", n)
	}
}

// Concurrent scans during deletion: DeleteRows holds the relation lock, so
// readers observe either the pre- or post-delete block list, never a torn
// one. Run under -race.
func TestDeleteRowsConcurrentScan(t *testing.T) {
	lc := newPoisonLifecycle()
	r := fillRelation(lc, "r", 2000, 1)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 0
				r.ForEach(func([]int32) { n++ })
				if n > 2000 || n < 1990 {
					t.Errorf("scan saw %d tuples", n)
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if _, err := r.DeleteRows([][]int32{{int32(1 + i), int32(1 + 2*i)}}); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()

	r.Release()
	if n := lc.outstanding(); n != 0 {
		t.Fatalf("%d arrays leaked after release", n)
	}
}

// A scan holds the block list it snapshotted, not the relation's lock, so the
// blocks a deletion rewrites must outlive the call: DeleteRows retires them
// and the next quiescent ReclaimRetired recycles them, exactly once. (This is
// what TestDeleteRowsConcurrentScan catches only some of the time.)
func TestDeleteRowsRetiresReplacedBlocks(t *testing.T) {
	check := func(t *testing.T, lc *poisonLifecycle, r *Relation, held []*Block, victim []int32) {
		t.Helper()
		var hit *Block
		for _, b := range held {
			for i := 0; i < b.Rows(); i++ {
				if reflect.DeepEqual(b.Row(i), victim) {
					hit = b
				}
			}
		}
		if hit == nil {
			t.Fatalf("fixture: %v not in the held blocks", victim)
		}
		want := append([]int32(nil), hit.Data()...)
		rows := r.NumTuples()
		if n, err := r.DeleteRows([][]int32{victim}); err != nil || n != 1 {
			t.Fatalf("removed=%d err=%v, want 1 removed", n, err)
		}
		if !reflect.DeepEqual(hit.Data(), want) {
			t.Fatal("block rewritten by the deletion was recycled under a reader holding it")
		}
		live := lc.outstanding()
		r.ReclaimRetired()
		if lc.outstanding() >= live {
			t.Fatal("ReclaimRetired did not recycle the rewritten block")
		}
		if reflect.DeepEqual(hit.Data(), want) {
			t.Fatal("rewritten block still intact after the quiescent reclaim: it leaked")
		}
		if got := r.NumTuples(); got != rows-1 {
			t.Fatalf("%d tuples after deleting one of %d", got, rows)
		}
		r.ForEach(func(row []int32) {
			if reflect.DeepEqual(row, victim) || row[0] == -0x5EED {
				t.Fatalf("scan after the reclaim saw %v", row)
			}
		})
		r.Release()
		if n := lc.outstanding(); n != 0 {
			t.Fatalf("%d arrays leaked after release", n)
		}
	}
	t.Run("flat", func(t *testing.T) {
		lc := newPoisonLifecycle()
		r := fillRelation(lc, "r", 2000, 1)
		check(t, lc, r, r.Blocks(), []int32{8, 15})
	})
	t.Run("partitioned", func(t *testing.T) {
		lc := newPoisonLifecycle()
		rows := make([]int32, 0, 400)
		for i := int32(0); i < 200; i++ {
			rows = append(rows, i, i+1)
		}
		r := NewRelation("r", NumberedColumns(2))
		r.SetLifecycle(lc, CatIDB)
		r.AdoptPartitioned(scatterRows(lc, CatIDB, rows, []int{0}, 4))
		view, ok := r.CarriedView([]int{0}, 4)
		if !ok {
			t.Fatal("fixture carries no view")
		}
		victim := []int32{17, 18}
		p := PartitionOf(PartitionHash(victim, []int{0}), 4)
		check(t, lc, r, view.Blocks(p), victim)
	})
}

// packTuple/unpackTuple must roundtrip any tuple, including negative values.
func TestPackTupleRoundtrip(t *testing.T) {
	f := func(a, b, c int32) bool {
		row := []int32{a, b, c}
		return reflect.DeepEqual(unpackTuple(packTuple(row), 3), row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
