package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// deltaInputs builds a duplicate-heavy join-output stand-in tmp and a full
// relation R overlapping roughly half of tmp's distinct tuples.
func deltaInputs(n int, seed int64) (tmp, full *storage.Relation) {
	rng := rand.New(rand.NewSource(seed))
	tmp = storage.NewRelation("tmp", storage.NumberedColumns(2))
	full = storage.NewRelation("r", storage.NumberedColumns(2))
	tmpRows := make([]int32, 0, 2*n)
	fullRows := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		x, y := int32(rng.Intn(n/4+1)), int32(rng.Intn(n/4+1))
		tmpRows = append(tmpRows, x, y)
		if rng.Intn(3) == 0 {
			tmpRows = append(tmpRows, x, y) // in-tmp duplicate
		}
		if rng.Intn(2) == 0 {
			fullRows = append(fullRows, x, y) // overlap with R
		} else {
			fullRows = append(fullRows, int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
	}
	tmp.AppendRows(tmpRows)
	full.AppendRows(fullRows)
	return tmp, full
}

// wtp is the whole-tuple partitioning descriptor at the given fan-out
// (empty key columns select all columns inside DeltaStep).
func wtp(parts int) storage.Partitioning { return storage.Partitioning{Parts: parts} }

// staged runs the pipeline DeltaStep replaces: Dedup then SetDifference.
func stagedDelta(pool *Pool, tmp, full *storage.Relation, algo DiffAlgorithm, parts int) *storage.Relation {
	rdelta := Dedup(pool, tmp, DedupGSCHT, tmp.NumTuples(), "rdelta")
	return SetDifferencePartitioned(pool, rdelta, full, algo, parts, "delta")
}

// The fused delta step must produce exactly the staged pipeline's output for
// every algorithm flavour and fan-out, including the degenerate ones.
func TestDeltaStepMatchesStaged(t *testing.T) {
	pool := NewPool(4)
	tmp, full := deltaInputs(4000, 11)
	want := stagedDelta(NewPool(1), tmp, full, OPSD, 1).SortedRows()
	for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
		for _, parts := range []int{1, 4, 16, 64} {
			t.Run(fmt.Sprintf("%s/parts-%d", algo, parts), func(t *testing.T) {
				got := DeltaStep(pool, tmp, full, algo, wtp(parts), tmp.NumTuples(), "delta").SortedRows()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fused delta (%d rows) diverges from staged (%d rows)",
						len(got)/2, len(want)/2)
				}
			})
		}
	}
}

func TestDeltaStepDegenerateInputs(t *testing.T) {
	pool := NewPool(2)
	empty := storage.NewRelation("e", storage.NumberedColumns(2))
	tmp, full := deltaInputs(500, 3)

	if got := DeltaStep(pool, empty, full, OPSD, wtp(16), 0, "d"); got.NumTuples() != 0 {
		t.Fatalf("empty tmp produced %d tuples", got.NumTuples())
	}
	// Empty R degenerates to pure dedup.
	got := DeltaStep(pool, tmp, empty, TPSD, wtp(16), 0, "d").SortedRows()
	want := Dedup(NewPool(1), tmp, DedupSort, 0, "d").SortedRows()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("delta step over empty R does not match pure dedup")
	}
}

// With parts > 1 the result must carry the whole-tuple partitioning, and
// appending it to a relation carrying the same partitioning must keep that
// relation partition-native — the property that lets R ← R ⊎ ∆R skip every
// future re-scatter.
func TestDeltaStepCarriesPartitioning(t *testing.T) {
	pool := NewPool(4)
	tmp, full := deltaInputs(3000, 7)
	const parts = 16
	delta := DeltaStep(pool, tmp, full, OPSD, wtp(parts), tmp.NumTuples(), "delta")
	p, ok := delta.Partitioning()
	if !ok {
		t.Fatal("fused delta does not carry a partitioning")
	}
	want := storage.Partitioning{KeyCols: storage.AllCols(2), Parts: parts}
	if !p.Equal(want) {
		t.Fatalf("delta carries %v, want %v", p, want)
	}

	// full was partitioned inside DeltaStep with carry promotion; appending
	// the compatible delta must merge, not invalidate.
	if _, ok := full.Partitioning(); !ok {
		t.Fatal("full relation does not carry its promoted partitioning")
	}
	full.AppendRelation(delta)
	if got, ok := full.Partitioning(); !ok || !got.Equal(want) {
		t.Fatal("append of compatible delta dropped the carried partitioning")
	}
	// The next delta step must find R pre-partitioned: no new scatter work.
	before := pool.Copy.Snapshot().Scattered
	if v := PartitionRelation(pool, full, storage.AllCols(2), parts); v.NumTuples() != full.NumTuples() {
		t.Fatalf("carried view holds %d tuples, want %d", v.NumTuples(), full.NumTuples())
	}
	if after := pool.Copy.Snapshot().Scattered; after != before {
		t.Fatalf("partitioning a carried relation scattered %d tuples", after-before)
	}
}

// A join with OutPartitioning must emit the same rows as an unfused join and
// carry the requested partitioning, ready for a zero-copy delta step.
func TestHashJoinFusedScatter(t *testing.T) {
	pool := NewPool(4)
	arc := tcWorkload(300, 4000, 5)
	spec := JoinSpec{
		LeftKeys:   []int{1},
		RightKeys:  []int{0},
		Partitions: 16,
		Projs:      []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
		OutName:    "tmp",
	}
	plain := HashJoin(pool, arc, arc, spec)
	part := storage.Partitioning{KeyCols: storage.AllCols(2), Parts: 16}
	spec.OutPartitioning = &part
	fused := HashJoin(pool, arc, arc, spec)
	if got, ok := fused.Partitioning(); !ok || !got.Equal(part) {
		t.Fatal("fused join output does not carry the requested partitioning")
	}
	if !reflect.DeepEqual(fused.SortedRows(), plain.SortedRows()) {
		t.Fatal("fused scatter changed the join result")
	}
	// The carried partitioning short-circuits the downstream scatter.
	before := pool.Copy.Snapshot().Scattered
	PartitionRelation(pool, fused, storage.AllCols(2), 16)
	if after := pool.Copy.Snapshot().Scattered; after != before {
		t.Fatal("carried join output was re-scattered")
	}
}

// SelectProjectPartitioned must honour the scatter for identity and
// non-identity projections alike.
func TestSelectProjectFusedScatter(t *testing.T) {
	pool := NewPool(4)
	in := tcWorkload(200, 3000, 9)
	part := storage.Partitioning{KeyCols: storage.AllCols(2), Parts: 16}

	ident := SelectProjectPartitioned(pool, in, nil,
		[]expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}}, &part, "out", nil)
	if got, ok := ident.Partitioning(); !ok || !got.Equal(part) {
		t.Fatal("identity select-project did not scatter")
	}
	if !reflect.DeepEqual(ident.SortedRows(), in.SortedRows()) {
		t.Fatal("identity scatter changed contents")
	}

	swap := SelectProjectPartitioned(pool, in, nil,
		[]expr.Expr{expr.Col{Index: 1}, expr.Col{Index: 0}}, &part, "out", nil)
	want := SelectProject(pool, in, nil,
		[]expr.Expr{expr.Col{Index: 1}, expr.Col{Index: 0}}, "out", nil)
	if got, ok := swap.Partitioning(); !ok || !got.Equal(part) {
		t.Fatal("projecting select-project did not scatter")
	}
	if !reflect.DeepEqual(swap.SortedRows(), want.SortedRows()) {
		t.Fatal("projecting scatter changed contents")
	}
}

// TestDeltaStepRace hammers the fused per-partition pass at 8 workers over
// 64 partitions; `go test -race` (run in CI) checks that the per-partition
// dedup tables, the carried-view promotion and the direct-partition sinks
// share no state across workers.
func TestDeltaStepRace(t *testing.T) {
	pool := NewPool(8)
	tmp, full := deltaInputs(20000, 21)
	want := stagedDelta(NewPool(1), tmp, full, OPSD, 1).SortedRows()
	for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
		got := DeltaStep(pool, tmp, full, algo, wtp(64), tmp.NumTuples(), "delta")
		if !reflect.DeepEqual(got.SortedRows(), want) {
			t.Fatalf("%s: concurrent fused delta diverges from staged serial", algo)
		}
	}
}
