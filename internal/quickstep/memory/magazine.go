package memory

import "recstep/internal/quickstep/storage"

// Magazine capacity tuning. A magazine parks at most magCap arrays per size
// class; a refill moves up to magRefill arrays in one shard visit, and a
// flush (triggered at magCap) returns half, keeping the other half resident
// for the next alloc burst. Small on purpose: a magazine's parked bytes are
// outside the shard retention accounting, so per-worker residency must stay
// bounded (≤ magCap arrays of whatever classes the pass touches).
const (
	magCap    = 16
	magRefill = 8
)

// Magazine is a single-owner storage.Lifecycle front-end to a Manager: a
// per-worker free-array cache in the style of slab-allocator CPU magazines.
// Allocation and free hit the private per-class stacks with no locks or
// atomics; only refills and flushes touch the manager's sharded free lists,
// moving arrays in batches so shard lock traffic drops by ~an order of
// magnitude at high worker counts. Budget and live-byte accounting still go
// through the Manager on every alloc/free — a magazine caches arrays, never
// accounting.
//
// A Magazine is NOT safe for concurrent use. It is meant for pass-private
// churn (dedup tables, GSCHT node chunks) whose alloc and free both happen
// on the owning worker within one partition pass; blocks that outlive the
// pass should allocate from the Manager directly.
type Magazine struct {
	m     *Manager
	slots [numClasses][][]int32
	// Local counters, flushed to the manager's atomics on Release so the hot
	// path stays free of shared-cache-line traffic.
	hits, refills int64
}

// AcquireMagazine implements storage.MagazineSource.
func (m *Manager) AcquireMagazine() storage.Lifecycle {
	return &Magazine{m: m}
}

// ReleaseMagazine implements storage.MagazineSource: flush every parked
// array back to the sharded pool and fold the local counters in. The
// magazine is unusable afterwards. Lifecycles that are not magazines (e.g.
// the Manager itself, handed out when magazines are disabled) pass through.
func (m *Manager) ReleaseMagazine(lc storage.Lifecycle) {
	g, ok := lc.(*Magazine)
	if !ok || g == nil {
		return
	}
	for c := range g.slots {
		g.flushClass(c, len(g.slots[c]))
		g.slots[c] = nil
	}
	m.magHits.Add(g.hits)
	m.magRefills.Add(g.refills)
	g.hits, g.refills = 0, 0
	g.m = nil
}

// AllocData implements storage.Lifecycle. Class-sized requests are served
// from the magazine, refilling it with one batched shard visit on a miss;
// oversized requests pass through to the Manager.
func (g *Magazine) AllocData(cat storage.Category, capInt32s int) []int32 {
	c := classOf(capInt32s)
	if c < 0 {
		return g.m.AllocData(cat, capInt32s)
	}
	list := g.slots[c]
	if len(list) == 0 {
		g.refill(c)
		list = g.slots[c]
	}
	var arr []int32
	if n := len(list); n > 0 {
		arr = list[n-1][:0]
		list[n-1] = nil
		g.slots[c] = list[:n-1]
		g.hits++
		g.m.poolHits.Add(1)
	} else {
		arr = make([]int32, 0, classCap(c))
		g.m.poolMisses.Add(1)
	}
	g.m.accountAlloc(cat, int64(cap(arr))*4)
	return arr
}

// FreeData implements storage.Lifecycle: credit the accounting and park the
// array in the magazine, spilling half the stack back to one shard when the
// magazine is full.
func (g *Magazine) FreeData(cat storage.Category, data []int32) {
	if data == nil {
		return
	}
	n := cap(data)
	c := classOf(n)
	if c < 0 || classCap(c) != n || g.m.closed.Load() {
		g.m.FreeData(cat, data)
		return
	}
	g.m.accountFree(cat, int64(n)*4)
	g.m.frees.Add(1)
	g.slots[c] = append(g.slots[c], data)
	if len(g.slots[c]) >= magCap {
		g.flushClass(c, magCap/2)
	}
}

// Recat implements storage.Lifecycle.
func (g *Magazine) Recat(from, to storage.Category, bytes int64) {
	g.m.Recat(from, to, bytes)
}

// refill restocks class c with up to magRefill arrays using one batched
// visit per shard, stopping at the first shard that yields anything.
func (g *Magazine) refill(c int) {
	m := g.m
	start := m.rr.Add(1)
	for i := uint32(0); i < numShards; i++ {
		m.shardGets.Add(1)
		if m.shards[(start+i)%numShards].getBatch(c, &g.slots[c], magRefill) > 0 {
			break
		}
	}
	g.refills++
}

// flushClass returns up to n parked arrays of class c to one shard in a
// single batched visit; arrays the shard's retention cap rejects are dropped
// to the garbage collector.
func (g *Magazine) flushClass(c, n int) {
	list := g.slots[c]
	if n > len(list) {
		n = len(list)
	}
	if n == 0 {
		return
	}
	m := g.m
	back := list[len(list)-n:]
	if !m.closed.Load() {
		m.shardPuts.Add(1)
		m.shards[m.rr.Add(1)%numShards].putBatch(c, back, m.perShard)
	}
	for i := range back {
		back[i] = nil
	}
	g.slots[c] = list[: len(list)-n : len(list)-n]
	g.refills++
}
