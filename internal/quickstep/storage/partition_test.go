package storage

import "testing"

func TestNormalizePartitions(t *testing.T) {
	cases := [][2]int{
		{0, 1}, {1, 1}, {-3, 1},
		{2, 2}, {3, 4}, {16, 16}, {17, 32},
		{256, 256}, {1000, 256}, {1 << 20, 256},
	}
	for _, c := range cases {
		if got := NormalizePartitions(c[0]); got != c[1] {
			t.Fatalf("NormalizePartitions(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestPartitionOfRangeAndStability(t *testing.T) {
	row := []int32{42, -7, 1 << 20}
	cols := []int{0, 1, 2}
	h := PartitionHash(row, cols)
	if h != PartitionHash(row, cols) {
		t.Fatal("PartitionHash is not deterministic")
	}
	for _, parts := range []int{1, 16, 64, 256} {
		p := PartitionOf(h, parts)
		if p < 0 || p >= parts {
			t.Fatalf("PartitionOf(%d) = %d out of range", parts, p)
		}
	}
	// Equal key values on different columns must land together: build and
	// probe sides address their keys through different column lists.
	probe := []int32{0, 42, -7, 1 << 20}
	if PartitionHash(probe, []int{1, 2, 3}) != h {
		t.Fatal("hash differs for identical key values at different positions")
	}
}

func TestPartitionHashSpreads(t *testing.T) {
	// Sequential keys (the worst structured case) should not collapse onto
	// a few partitions.
	const parts = 16
	var counts [parts]int
	for i := 0; i < 1600; i++ {
		counts[PartitionOf(PartitionHash([]int32{int32(i)}, []int{0}), parts)]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d received no sequential keys", p)
		}
	}
}

// A scatter copy an operator made of a relation is retired on it: its blocks
// stay readable until the relation's next ReclaimRetired, which releases
// each exactly once, and a mutation in between frees none of them.
func TestRetireViewReleasesAtReclaim(t *testing.T) {
	lc := newPoisonLifecycle()
	r := fillRelation(lc, "r", 100, 1)
	before := lc.outstanding()
	v := scatterRows(lc, CatIntermediate, r.Rows(), []int{0}, 4)
	copies := lc.outstanding() - before
	r.RetireView(v)
	r.Append([]int32{7, 7})
	if got := lc.outstanding() - before; got < copies {
		t.Fatalf("%d of the view's %d blocks freed before ReclaimRetired", copies-got, copies)
	}
	for p := 0; p < v.Parts(); p++ {
		for _, b := range v.Blocks(p) {
			for _, x := range b.Data() {
				if x == -0x5EED {
					t.Fatal("retired view read freed data")
				}
			}
		}
	}
	r.ReclaimRetired()
	r.Release()
	if n := lc.outstanding(); n != 0 {
		t.Fatalf("%d arrays outstanding after reclaim and release", n)
	}
}

func TestPartitionedViewCounts(t *testing.T) {
	b0 := BlockFromRows(2, []int32{1, 2, 3, 4})
	b1 := BlockFromRows(2, []int32{5, 6})
	v := NewPartitionedView([]int{0}, 2, [][]*Block{{b0}, {b1}})
	if v.Rows(0) != 2 || v.Rows(1) != 1 || v.NumTuples() != 3 {
		t.Fatalf("view counts = %d/%d/%d", v.Rows(0), v.Rows(1), v.NumTuples())
	}
	if len(v.Blocks(0)) != 1 || v.KeyCols()[0] != 0 {
		t.Fatal("view accessors broken")
	}
}

// scatterInto builds a correctly-routed partitioned view of row-major data.
func scatterInto(arity, parts int, rows []int32) *PartitionedView {
	keyCols := AllCols(arity)
	blocks := make([][]*Block, parts)
	for off := 0; off < len(rows); off += arity {
		row := rows[off : off+arity]
		p := PartitionOf(PartitionHash(row, keyCols), parts)
		if len(blocks[p]) == 0 {
			blocks[p] = []*Block{NewBlock(arity)}
		}
		blocks[p][0].Append(row)
	}
	return NewPartitionedView(keyCols, parts, blocks)
}

func TestCarriedPartitioningSurvivesCompatibleAppend(t *testing.T) {
	const parts = 4
	want := Partitioning{KeyCols: AllCols(2), Parts: parts}

	r := NewRelation("r", NumberedColumns(2))
	r.AdoptPartitioned(scatterInto(2, parts, []int32{1, 2, 3, 4, 5, 6}))
	if got, ok := r.Partitioning(); !ok || !got.Equal(want) {
		t.Fatalf("adopt did not carry %v", want)
	}
	if r.NumTuples() != 3 {
		t.Fatalf("adopted relation holds %d tuples, want 3", r.NumTuples())
	}

	// Compatible append: carried partitioning survives, views merge.
	d := NewRelation("d", NumberedColumns(2))
	d.AdoptPartitioned(scatterInto(2, parts, []int32{7, 8, 9, 10}))
	r.AppendRelation(d)
	if got, ok := r.Partitioning(); !ok || !got.Equal(want) {
		t.Fatal("compatible append dropped the carried partitioning")
	}
	v, ok := r.CarriedView(AllCols(2), parts)
	if !ok || v.NumTuples() != 5 {
		t.Fatalf("merged carried view holds %d tuples, want 5", v.NumTuples())
	}

	// Incompatible append (different fan-out): partitioning is dropped.
	d2 := NewRelation("d2", NumberedColumns(2))
	d2.AdoptPartitioned(scatterInto(2, 8, []int32{11, 12}))
	r.AppendRelation(d2)
	if _, ok := r.Partitioning(); ok {
		t.Fatal("incompatible append kept a stale carried partitioning")
	}
	if r.NumTuples() != 6 {
		t.Fatalf("relation holds %d tuples, want 6", r.NumTuples())
	}

	// A flat mutation must always drop the carried partitioning.
	e := NewRelation("e", NumberedColumns(2))
	e.AdoptPartitioned(scatterInto(2, parts, []int32{1, 2}))
	e.Append([]int32{9, 9})
	if _, ok := e.Partitioning(); ok {
		t.Fatal("flat append kept the carried partitioning")
	}
}

func TestEmptyRelationAdoptsAppendedPartitioning(t *testing.T) {
	const parts = 4
	d := NewRelation("d", NumberedColumns(2))
	d.AdoptPartitioned(scatterInto(2, parts, []int32{1, 2, 3, 4}))
	r := NewRelation("r", NumberedColumns(2))
	r.AppendRelation(d)
	if got, ok := r.Partitioning(); !ok || !got.Equal(Partitioning{KeyCols: AllCols(2), Parts: parts}) {
		t.Fatal("append into empty relation did not adopt the source partitioning")
	}
}

func TestStoreCarriedViewRefusesStaleGeneration(t *testing.T) {
	r := NewRelation("r", NumberedColumns(2))
	r.Append([]int32{1, 2})
	gen := r.Generation()
	v := scatterInto(2, 2, []int32{1, 2})
	r.Append([]int32{3, 4}) // advances the generation
	r.StoreCarriedView(v, gen)
	if _, ok := r.Partitioning(); ok {
		t.Fatal("stale carried-view promotion must be refused")
	}
	gen = r.Generation()
	v2 := scatterInto(2, 2, []int32{1, 2, 3, 4})
	r.StoreCarriedView(v2, gen)
	if _, ok := r.Partitioning(); !ok {
		t.Fatal("current-generation carried-view promotion must stick")
	}
}

// scatterRows builds a partitioned view by routing each two-column row of
// rows to its radix partition of (keyCols, parts), allocating through lc.
func scatterRows(lc Lifecycle, cat Category, rows []int32, keyCols []int, parts int) *PartitionedView {
	blocks := make([][]*Block, parts)
	open := make([]*Block, parts)
	for off := 0; off < len(rows); off += 2 {
		row := rows[off : off+2]
		p := PartitionOf(PartitionHash(row, keyCols), parts)
		if open[p] == nil || open[p].Full() {
			open[p] = NewBlockIn(lc, cat, 2, 0)
			blocks[p] = append(blocks[p], open[p])
		}
		open[p].Append(row)
	}
	return NewPartitionedView(keyCols, parts, blocks)
}
