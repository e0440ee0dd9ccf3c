package gscht

import (
	"math/rand"
	"sync"
	"testing"

	"recstep/internal/quickstep/storage"
)

// Growing must preserve membership exactly, keep Len, return the outgrown
// bucket array to the lifecycle, and leave the table insertable.
func TestTable64GrowPreservesMembership(t *testing.T) {
	lc := &countingLifecycle{}
	tab := NewTable64In(lc, storage.CatIntermediate, 16) // 1024 buckets
	var a Arena64
	const n = 20000
	for i := 0; i < n; i++ {
		tab.InsertIfAbsent(uint64(i)*0x9E37+1, &a)
	}
	if !tab.NeedsGrow() {
		t.Fatalf("NeedsGrow() = false at %d keys over %d buckets", tab.Len(), tab.Buckets())
	}
	grows := 0
	for tab.NeedsGrow() {
		before, freesBefore := tab.Buckets(), lc.frees
		tab.Grow()
		grows++
		if tab.Buckets() != 2*before {
			t.Fatalf("Grow: %d buckets, want %d", tab.Buckets(), 2*before)
		}
		if lc.frees != freesBefore+1 {
			t.Fatalf("Grow freed %d arrays, want exactly the old bucket array", lc.frees-freesBefore)
		}
	}
	if grows == 0 || tab.Len() != n {
		t.Fatalf("grows=%d Len=%d, want >0 and %d", grows, tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := uint64(i)*0x9E37 + 1
		if !tab.Contains(k) {
			t.Fatalf("key %#x lost by growth", k)
		}
		if tab.InsertIfAbsent(k, &a) {
			t.Fatalf("key %#x re-admitted after growth", k)
		}
	}
	if tab.Contains(0) || !tab.InsertIfAbsent(0, &a) {
		t.Fatal("fresh key mishandled after growth")
	}
	if got := tab.Bytes(); got != lc.live {
		t.Fatalf("Bytes() = %d, lifecycle holds %d", got, lc.live)
	}
	tab.Release()
	if lc.live != 0 {
		t.Fatalf("live bytes %d after Release, want 0", lc.live)
	}
}

// After growing to load ≤ 1 the chain-length histogram must look like a
// table sized for its contents: at load 1 a uniform hash leaves 26% of the
// keys in chains longer than 2 (1 − 2/e), against nearly all of them before.
func TestTable64GrowChainHistogram(t *testing.T) {
	tab := NewTable64(16)
	var a Arena64
	r := rand.New(rand.NewSource(7))
	const n = 1 << 16
	for tab.Len() < n {
		tab.InsertIfAbsent(uint64(r.Int63()), &a)
	}
	hist := func() (long, total int) {
		tab.ObserveChains(0, func(l int) {
			total += l
			if l > 2 {
				long += l
			}
		})
		return
	}
	longBefore, _ := hist()
	for tab.NeedsGrow() {
		tab.Grow()
	}
	longAfter, total := hist()
	if total != n {
		t.Fatalf("chains hold %d nodes after growth, want %d", total, n)
	}
	if longBefore < n/2 {
		t.Fatalf("test premise: only %d of %d keys sat in long chains before growth", longBefore, n)
	}
	if longAfter > n*3/10 {
		t.Fatalf("%d of %d keys still in chains longer than 2 after growth", longAfter, n)
	}
}

func TestTable128GrowPreservesMembership(t *testing.T) {
	lc := &countingLifecycle{}
	tab := NewTable128In(lc, storage.CatIntermediate, 16)
	var a Arena128
	const n = 6000
	key := func(i int) Key128 { return PackKey128([]int32{int32(i), int32(i * 3), int32(-i)}) }
	for i := 0; i < n; i++ {
		tab.InsertIfAbsent(key(i), &a)
	}
	for tab.NeedsGrow() {
		tab.Grow()
	}
	if tab.Len() != n || tab.Buckets() < n {
		t.Fatalf("Len=%d Buckets=%d after growth, want %d keys in ≥ %d buckets", tab.Len(), tab.Buckets(), n, n)
	}
	for i := 0; i < n; i++ {
		if !tab.Contains(key(i)) || tab.InsertIfAbsent(key(i), &a) {
			t.Fatalf("key %d mishandled after growth", i)
		}
	}
	if got := tab.Bytes(); got != lc.live {
		t.Fatalf("Bytes() = %d, lifecycle holds %d", got, lc.live)
	}
	tab.Release()
	if lc.live != 0 {
		t.Fatalf("live bytes %d after Release, want 0", lc.live)
	}
}

// The resident index's access pattern: rounds of concurrent InsertBatch
// separated by quiescent grows, with per-worker arenas that outlive the
// rounds. Run under -race.
func TestGrowBetweenConcurrentInsertBatches(t *testing.T) {
	const workers, rounds, perRound = 4, 6, 3000
	tab := NewTable64(16)
	arenas := make([]Arena64, workers)
	want := make(map[uint64]struct{})
	r := rand.New(rand.NewSource(11))
	for round := 0; round < rounds; round++ {
		batches := make([][]uint64, workers)
		for w := range batches {
			keys := make([]uint64, perRound)
			for i := range keys {
				// A shared low range makes workers and rounds collide.
				keys[i] = uint64(r.Intn(rounds * perRound * 2))
				want[keys[i]] = struct{}{}
			}
			batches[w] = keys
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				bidx := make([]int32, 256)
				keys := batches[w]
				for off := 0; off < len(keys); off += 256 {
					end := min(off+256, len(keys))
					tab.InsertBatch(keys[off:end], bidx, &arenas[w], 0, nil)
				}
			}(w)
		}
		wg.Wait()
		for tab.NeedsGrow() {
			tab.Grow()
		}
	}
	if tab.Len() != len(want) {
		t.Fatalf("Len %d, want %d distinct", tab.Len(), len(want))
	}
	for k := range want {
		if !tab.Contains(k) {
			t.Fatalf("key %d missing", k)
		}
	}
}
