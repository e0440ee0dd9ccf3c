package exec

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// tcWorkload builds a random sparse digraph for the concurrency tests.
func tcWorkload(n, edges int, seed int64) *storage.Relation {
	rng := rand.New(rand.NewSource(seed))
	arc := storage.NewRelation("arc", storage.NumberedColumns(2))
	rows := make([]int32, 0, 2*edges)
	for i := 0; i < edges; i++ {
		rows = append(rows, int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	arc.AppendRows(rows)
	return arc
}

// semiNaiveTC runs the operator-level semi-naive transitive-closure loop:
// partitioned join build, GSCHT dedup, partitioned TPSD — the three
// concurrent structures the radix refactor touches — all on a multi-worker
// pool. Run under -race this exercises the scatter phase, the per-partition
// private builds and the latch-free CCK-GSCHT inserts together.
func semiNaiveTC(t *testing.T, pool *Pool, arc *storage.Relation, parts int) *storage.Relation {
	t.Helper()
	tc := storage.NewRelation("tc", storage.NumberedColumns(2))
	tc.AppendRelation(arc)
	delta := Dedup(pool, arc, DedupGSCHT, arc.NumTuples(), "delta")
	spec := JoinSpec{
		LeftKeys:   []int{1},
		RightKeys:  []int{0},
		BuildLeft:  false,
		Partitions: parts,
		Projs:      []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
		OutName:    "tmp",
	}
	for iter := 0; iter < 1000; iter++ {
		tmp := HashJoin(pool, delta, arc, spec)
		rdelta := Dedup(pool, tmp, DedupGSCHT, tmp.NumTuples(), "rdelta")
		delta = SetDifferencePartitioned(pool, rdelta, tc, TPSD, parts, "delta")
		if delta.NumTuples() == 0 {
			return tc
		}
		tc.AppendRelation(delta)
	}
	t.Fatal("transitive closure did not converge")
	return nil
}

// TestPartitionedTCWorkloadRace drives the full partitioned operator
// pipeline at 8 workers; `go test -race` (run in CI) checks for data races
// between the scatter workers, the partition builders and the probe tasks.
func TestPartitionedTCWorkloadRace(t *testing.T) {
	arc := tcWorkload(400, 1200, 42)
	pool := NewPool(8)
	partitioned := semiNaiveTC(t, pool, arc, 16)
	serial := semiNaiveTC(t, NewPool(1), arc, 1)
	if !reflect.DeepEqual(partitioned.SortedRows(), serial.SortedRows()) {
		t.Fatalf("partitioned TC (%d tuples) diverges from serial (%d tuples)",
			partitioned.NumTuples(), serial.NumTuples())
	}
}

// TestConcurrentPartitionViewBuildRace scatters one relation from many
// goroutine-parallel operators at once (the UIE execution model runs UNION
// ALL branches concurrently, so two operators may race to partition the same
// base relation and retire their copies on it).
func TestConcurrentPartitionViewBuildRace(t *testing.T) {
	r := tcWorkload(300, 20000, 7)
	pool := NewPool(4)
	done := make(chan *storage.PartitionedView, 8)
	for g := 0; g < 8; g++ {
		go func() {
			done <- PartitionRelation(pool, r, []int{0}, 16)
		}()
	}
	var views []*storage.PartitionedView
	for g := 0; g < 8; g++ {
		views = append(views, <-done)
	}
	for _, v := range views {
		if v.NumTuples() != r.NumTuples() {
			t.Fatalf("racy view holds %d tuples, want %d", v.NumTuples(), r.NumTuples())
		}
	}
}

// TestGSCHTDedupRace runs FAST-DEDUP at 8 workers over a duplicate-heavy
// input; -race checks the CAS publication path.
func TestGSCHTDedupRace(t *testing.T) {
	in := storage.NewRelation("t", storage.NumberedColumns(2))
	rows := make([]int32, 0, 2<<16)
	for i := 0; i < 1<<16; i++ {
		rows = append(rows, int32(i%311), int32(i%179))
	}
	in.AppendRows(rows)
	out := Dedup(NewPool(8), in, DedupGSCHT, in.NumTuples(), "d")
	want := Dedup(NewPool(1), in, DedupSort, 0, "s")
	if !reflect.DeepEqual(out.SortedRows(), want.SortedRows()) {
		t.Fatalf("concurrent GSCHT dedup kept %d tuples, sort baseline %d",
			out.NumTuples(), want.NumTuples())
	}
}

// TestRunPartitionsExactlyOnce hammers the partition-affine scheduler:
// every partition must run exactly once regardless of worker count, skew,
// or how much stealing the skew forces. Run under -race (CI) this also
// checks that stripe claims and steals share no unsynchronized state.
func TestRunPartitionsExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		for _, parts := range []int{1, 3, 16, 64, 256} {
			pool := NewPool(workers)
			ran := make([]atomic.Int32, parts)
			pool.RunPartitions(parts, func(p int) {
				// Heavy skew: partition 0 does ~1000x the work of the rest,
				// so its owner's stripe must be stolen by the other workers.
				n := 10
				if p == 0 {
					n = 10000
				}
				s := 0
				for i := 0; i < n; i++ {
					s += i
				}
				if s < 0 {
					t.Error("impossible")
				}
				ran[p].Add(1)
			})
			for p := range ran {
				if got := ran[p].Load(); got != 1 {
					t.Fatalf("workers=%d parts=%d: partition %d ran %d times", workers, parts, p, got)
				}
			}
		}
	}
}
