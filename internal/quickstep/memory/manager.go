package memory

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recstep/internal/faultinject"
	"recstep/internal/obs"
	"recstep/internal/quickstep/storage"
	"recstep/internal/relio"
)

// Config sizes a Manager.
type Config struct {
	// BudgetBytes bounds live pool bytes; exceeding it triggers cold-partition
	// spilling of registered relations. 0 disables the budget (and spilling).
	BudgetBytes int64
	// SpillDir receives spilled-partition files; empty selects a fresh temp
	// directory created lazily on first spill and removed by Close.
	SpillDir string
	// PoolBytes caps how many bytes the recycling free lists may retain.
	// 0 selects BudgetBytes/4 when a budget is set, 256 MiB otherwise.
	PoolBytes int64
	// FaultInject is the chaos-test fault injector (nil in production). Its
	// spill.write / fault.read sites fire inside SpillBlocks / FaultBlocks
	// ahead of the real I/O; its alloc site fires in the allocation
	// accounting choke point, where an injected failure is recorded as the
	// fatal run error (the engine's model of a failed allocation: the query
	// aborts, the process survives).
	FaultInject *faultinject.Injector
}

// Spill-path retry policy: a transient I/O failure (full page cache, a
// momentary EINTR/ENOSPC blip, an injected chaos fault) is retried with
// exponential backoff before the manager gives up. Corruption
// (relio.ErrCorrupt) is never retried — bad bytes do not get better.
const (
	ioAttempts    = 4
	ioBackoffBase = 200 * time.Microsecond
)

// Reclaim retry policy: a reclaimer that finds no victim, or loses a
// relation's mutex to an operator, retries up to reclaimRetries times before
// the allocation proceeds over budget; a contended retry first sleeps, from
// reclaimBackoff doubling up to reclaimBackoffMax (a few milliseconds in all).
const (
	reclaimRetries    = 8
	reclaimBackoff    = 20 * time.Microsecond
	reclaimBackoffMax = time.Millisecond
)

// errSpillParked is returned by SpillBlocks while spilling is parked after a
// persistent write failure; the engine keeps running in-memory.
var errSpillParked = errors.New("memory: spilling parked after persistent spill-write failure")

// Manager owns all tuple-block memory of one database instance: it is the
// storage.Lifecycle every operator allocates through, the accountant that
// tracks live bytes per category against the budget, and the storage.Pager
// that spills and faults cold partitions. All methods are safe for
// concurrent use.
type Manager struct {
	budget    int64
	poolCap   int64
	perShard  int64
	spillBase string
	ownsDir   bool

	shards [numShards]shard
	rr     atomic.Uint32

	// Gauges and counters use the obs types (which embed atomic.Int64, so
	// every update site is a plain atomic op) and can be registered on a
	// metrics registry via RegisterMetrics.
	live      [storage.NumCategories]atomic.Int64
	liveTotal obs.Gauge
	peak      obs.Gauge
	// peakBy is the per-category composition of the live bytes when peak was
	// last raised (at total peakAt). Guarded by peakMu, taken only by an
	// allocation that sets a new peak.
	peakMu sync.Mutex
	peakAt int64
	peakBy [storage.NumCategories]int64

	poolHits   obs.Counter
	poolMisses obs.Counter
	frees      obs.Counter

	// Shard-traffic and magazine counters. shardGets/shardPuts count free-list
	// lock acquisitions (the contention the magazines exist to reduce);
	// magHits counts allocations served from a magazine without touching a
	// shard, magRefills the batched shard visits that restock them.
	shardGets  obs.Counter
	shardPuts  obs.Counter
	magHits    obs.Counter
	magRefills obs.Counter

	epoch  atomic.Int64
	spills obs.Counter
	faults obs.Counter
	// attachmentDrops counts relations whose attachments gave pool bytes back
	// when shed under budget pressure (resident indexes; a cached join build
	// is Go heap and is not counted).
	attachmentDrops obs.Counter
	spilledBytes    obs.Counter
	spilledNow      obs.Gauge
	fileSeq         atomic.Int64

	// obsExec/obsTracer/obsStep feed spill/fault phase attribution; all nil
	// when observability is off.
	obsExec   *obs.ExecMetrics
	obsTracer *obs.Tracer
	obsStep   func() obs.Step

	dirOnce sync.Once
	dirErr  error

	reclaimMu  sync.Mutex
	sealed     atomic.Bool
	regMu      sync.Mutex
	spillables []*storage.Relation

	closed atomic.Bool

	// Failure containment. spillRetries counts retried spill/fault I/O
	// attempts; parked flips when spill writes keep failing past the retry
	// budget (graceful degradation: the engine continues in-memory with a
	// tightened effective budget). runErr holds the first fatal error of the
	// run — an unreadable spilled partition or an injected alloc failure —
	// and onFail forwards it to the pool's abort flag so worker loops drain.
	spillRetries obs.Counter
	parked       atomic.Bool
	runErr       atomic.Pointer[runError]
	onFail       func(error)
	// inject is the chaos-test fault injector from Config (nil in
	// production); all its methods are nil-safe.
	inject *faultinject.Injector
}

// runError is the first-error-wins record of a fatal manager failure.
type runError struct{ err error }

// NewManager creates a manager.
func NewManager(cfg Config) *Manager {
	pool := cfg.PoolBytes
	if pool <= 0 {
		if cfg.BudgetBytes > 0 {
			pool = cfg.BudgetBytes / 4
		} else {
			pool = 256 << 20
		}
	}
	return &Manager{
		budget:    cfg.BudgetBytes,
		poolCap:   pool,
		perShard:  pool/numShards + 1,
		spillBase: cfg.SpillDir,
		inject:    cfg.FaultInject,
	}
}

// SetFailHandler installs the callback fatal run errors are forwarded to
// (the database wires it to the pool's abort flag). Call before evaluation;
// the handler fires at most once.
func (m *Manager) SetFailHandler(fn func(error)) { m.onFail = fn }

// RunError returns the first fatal error recorded by the manager — an
// unreadable spilled partition or an injected allocation failure — or nil.
// The engine polls it at query and iteration boundaries.
func (m *Manager) RunError() error {
	if e := m.runErr.Load(); e != nil {
		return e.err
	}
	return nil
}

// noteRunErr records err as the run's fatal error (first error wins) and
// forwards it to the fail handler so the pool drains its worker loops.
func (m *Manager) noteRunErr(err error) {
	if m.runErr.CompareAndSwap(nil, &runError{err: err}) {
		if m.onFail != nil {
			m.onFail(err)
		}
	}
}

// ResetRunError clears the recorded fatal run error so a resident database
// can accept new work after a failed incremental update was rolled back.
// Spill parking is deliberately not reset — a persistently failing spill
// path does not heal because an update was retried.
func (m *Manager) ResetRunError() { m.runErr.Store(nil) }

// SpillsParked reports whether spilling is parked after a persistent
// spill-write failure (the engine is running in-memory degraded mode).
func (m *Manager) SpillsParked() bool { return m.parked.Load() }

// parkSpilling permanently disables spill writes after a persistent failure.
// Not fatal: the engine keeps evaluating in memory, Headroom() tightens the
// effective budget so fan-out choosers shed harder, and the parked gauge
// records the degradation for operators to see.
func (m *Manager) parkSpilling() { m.parked.Store(true) }

// withRetry runs op up to ioAttempts times with exponential backoff,
// counting each retry. Corruption errors are returned immediately.
func (m *Manager) withRetry(op func() error) error {
	backoff := ioBackoffBase
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || errors.Is(err, relio.ErrCorrupt) || attempt == ioAttempts-1 {
			return err
		}
		m.spillRetries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Budget returns the configured byte budget (0 = unlimited).
func (m *Manager) Budget() int64 { return m.budget }

// SetObs installs the exec metrics and tracer spill/fault passes report to,
// plus the step provider that stamps trace spans with the current fixpoint
// position (all may be nil).
func (m *Manager) SetObs(em *obs.ExecMetrics, tr *obs.Tracer, step func() obs.Step) {
	m.obsExec = em
	m.obsTracer = tr
	m.obsStep = step
}

// phase opens a wall-time span for a spill or fault pass.
func (m *Manager) phase(ph obs.Phase) func() {
	em, tr := m.obsExec, m.obsTracer
	if em == nil && tr == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		if em != nil {
			em.Phase.Add(ph, d)
		}
		if tr != nil {
			var step obs.Step
			if m.obsStep != nil {
				step = m.obsStep()
			}
			tr.Complete(ph.String(), 0, t0, d, step, -1)
		}
	}
}

// RegisterMetrics exposes the manager's gauges and counters on reg. Live
// bytes are additionally broken down by block category.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterGauge("recstep_mem_live_bytes", "Live (allocated, unreleased) pool bytes across all categories.", &m.liveTotal)
	reg.RegisterGauge("recstep_mem_peak_live_bytes", "Peak live pool bytes observed so far.", &m.peak)
	reg.RegisterGaugeFunc("recstep_mem_budget_bytes", "Configured live-byte budget (0 = unlimited).", func() float64 { return float64(m.budget) })
	reg.RegisterSampleFunc("recstep_mem_live_bytes_by_category", "Live pool bytes per block category.", "gauge", func() []obs.Sample {
		out := make([]obs.Sample, 0, storage.NumCategories)
		for c := range m.live {
			out = append(out, obs.Sample{
				Labels: []obs.LabelPair{{Key: "category", Value: storage.Category(c).String()}},
				Value:  float64(m.live[c].Load()),
			})
		}
		return out
	})
	reg.RegisterCounter("recstep_mem_pool_hits_total", "Block-array allocations served from the recycling pool.", &m.poolHits)
	reg.RegisterCounter("recstep_mem_pool_misses_total", "Block-array allocations that fell through to the heap.", &m.poolMisses)
	reg.RegisterCounter("recstep_mem_frees_total", "Block arrays returned to the pool.", &m.frees)
	reg.RegisterCounter("recstep_mem_shard_gets_total", "Free-list shard lock acquisitions on the alloc path.", &m.shardGets)
	reg.RegisterCounter("recstep_mem_shard_puts_total", "Free-list shard lock acquisitions on the free path.", &m.shardPuts)
	reg.RegisterCounter("recstep_mem_magazine_hits_total", "Allocations served by a per-worker magazine with no shard traffic.", &m.magHits)
	reg.RegisterCounter("recstep_mem_magazine_refills_total", "Batched shard visits that restocked or flushed a magazine.", &m.magRefills)
	reg.RegisterCounter("recstep_mem_spills_total", "Cold partitions spilled to disk under budget pressure.", &m.spills)
	reg.RegisterCounter("recstep_mem_faults_total", "Spilled partitions faulted back in on demand.", &m.faults)
	reg.RegisterCounter("recstep_mem_attachment_drops_total", "Relations whose pool-accounted attachments (resident set-difference indexes) were shed under budget pressure.", &m.attachmentDrops)
	reg.RegisterCounter("recstep_mem_spilled_bytes_total", "Cumulative bytes written to spill files.", &m.spilledBytes)
	reg.RegisterGauge("recstep_mem_spilled_now_bytes", "Bytes currently held in spill files on disk.", &m.spilledNow)
	reg.RegisterCounter("recstep_mem_spill_retries_total", "Retried spill-write and fault-read I/O attempts (transient failures, backed off exponentially).", &m.spillRetries)
	reg.RegisterGaugeFunc("recstep_mem_spills_parked", "1 while spilling is parked after a persistent spill-write failure (in-memory degraded mode), else 0.", func() float64 {
		if m.parked.Load() {
			return 1
		}
		return 0
	})
	reg.RegisterGaugeFunc("recstep_mem_epoch", "Current reclamation epoch (fixpoint iteration count).", func() float64 { return float64(m.epoch.Load()) })
}

// Headroom returns how many bytes remain under the budget; negative when
// over, and a very large value when no budget is configured. The optimizer
// consults it to shrink radix fan-out under pressure. While spilling is
// parked (persistent spill-write failure) the effective budget is tightened
// by a quarter: with eviction unavailable, the only remaining pressure valve
// is making the fan-out choosers shed earlier.
func (m *Manager) Headroom() int64 {
	if m.budget <= 0 {
		return 1 << 62
	}
	b := m.budget
	if m.parked.Load() {
		b -= b / 4
	}
	return b - m.liveTotal.Load()
}

// AllocData implements storage.Lifecycle: hand out a zero-length array with
// at least capInt32s capacity, recycled when a matching class is pooled.
// Under a budget, headroom for the allocation is reclaimed *first* (evicting
// cold partitions), so the live-byte gauge — and its recorded peak — stays
// under the budget whenever anything evictable remains.
func (m *Manager) AllocData(cat storage.Category, capInt32s int) []int32 {
	sizeBytes := int64(capInt32s) * 4
	if c := classOf(capInt32s); c >= 0 {
		sizeBytes = int64(classCap(c)) * 4
	}
	// Charged before the array is fetched, so the arrays an eviction frees
	// are back in the pool for this very allocation.
	m.accountAlloc(cat, sizeBytes)
	var arr []int32
	if c := classOf(capInt32s); c >= 0 {
		want := classCap(c)
		// Try the round-robin shard first, then sweep the others: a miss on
		// the striped shard must not strand recycled arrays elsewhere.
		start := m.rr.Add(1)
		for i := uint32(0); i < numShards; i++ {
			m.shardGets.Add(1)
			if got := m.shards[(start+i)%numShards].get(c); got != nil {
				arr = got[:0]
				break
			}
		}
		if arr != nil {
			m.poolHits.Add(1)
		} else {
			arr = make([]int32, 0, want)
			m.poolMisses.Add(1)
		}
	} else {
		arr = make([]int32, 0, capInt32s)
		m.poolMisses.Add(1)
	}
	return arr
}

// accountAlloc charges an allocation to the live gauges — reclaiming
// headroom for it first under a budget — and records the peak. Shared by the
// direct path and the per-worker magazines. It is also
// the alloc fault-injection choke point: an injected allocation failure is
// recorded as the fatal run error — the allocation itself still succeeds
// (no mid-kernel unwind, so no pass-private state leaks) and the fixpoint
// aborts at its next boundary check, the way a real engine turns OOM into a
// query error rather than a crash.
func (m *Manager) accountAlloc(cat storage.Category, bytes int64) {
	if m.inject != nil {
		if err := m.inject.Fail(faultinject.Alloc); err != nil {
			m.noteRunErr(fmt.Errorf("memory: block allocation failed: %w", err))
		}
	}
	total := m.admit(bytes)
	m.live[cat].Add(bytes)
	for {
		p := m.peak.Load()
		if total <= p {
			return
		}
		if m.peak.CompareAndSwap(p, total) {
			break
		}
	}
	// This allocation raised the peak: record what the peak is made of. Racing
	// raisers may get here out of order, so only the highest total's reading
	// is kept; other workers' allocations between the two loads can make the
	// categories sum to slightly off PeakLive.
	m.peakMu.Lock()
	if total >= m.peakAt {
		m.peakAt = total
		for c := range m.peakBy {
			m.peakBy[c] = m.live[c].Load()
		}
	}
	m.peakMu.Unlock()
}

// accountFree credits a free against the live gauges.
func (m *Manager) accountFree(cat storage.Category, bytes int64) {
	m.live[cat].Add(-bytes)
	m.liveTotal.Add(-bytes)
}

// admit adds an allocation of want bytes to the live total and returns the
// new total. Under a budget the bytes are admitted only while they fit: the
// fit check and the add are one compare-and-swap, so concurrent allocators
// cannot each see the same headroom and overshoot the budget together. One
// that does not fit evicts cold partitions first; over-budget allocators
// serialize on the reclaim mutex, and one whose freed headroom a faster
// allocator took reclaims again. The wait is bounded: a reclaimer that finds
// nothing evictable gives up, and the allocation proceeds over budget
// (correctness first — the budget is a target the engine sheds toward, not a
// hard failure).
func (m *Manager) admit(want int64) int64 {
	if m.budget <= 0 {
		return m.liveTotal.Add(want)
	}
	if total, ok := m.tryAdmit(want); ok {
		return total
	}
	m.reclaimMu.Lock()
	defer m.reclaimMu.Unlock()
	target := max(m.budget-want, 0)
	for {
		if total, ok := m.tryAdmit(want); ok {
			return total
		}
		if !m.reclaimTo(target) {
			return m.liveTotal.Add(want)
		}
	}
}

// tryAdmit adds want bytes to the live total if the result stays within the
// budget (an allocation larger than the whole budget fits an empty pool).
func (m *Manager) tryAdmit(want int64) (int64, bool) {
	for {
		cur := m.liveTotal.Load()
		total := cur + want
		if total > m.budget && cur > 0 {
			return 0, false
		}
		if m.liveTotal.CompareAndSwap(cur, total) {
			return total, true
		}
	}
}

// FreeData implements storage.Lifecycle: return an array to the pool (or the
// heap when the retention cap is reached) and credit the accounting.
func (m *Manager) FreeData(cat storage.Category, data []int32) {
	if data == nil {
		return
	}
	m.accountFree(cat, int64(cap(data))*4)
	m.frees.Add(1)
	n := cap(data)
	if c := classOf(n); c >= 0 && classCap(c) == n && !m.closed.Load() {
		sh := &m.shards[m.rr.Add(1)%numShards]
		m.shardPuts.Add(1)
		sh.put(c, data, m.perShard)
	}
}

// Recat implements storage.Lifecycle: move bytes between category gauges.
func (m *Manager) Recat(from, to storage.Category, bytes int64) {
	m.live[from].Add(-bytes)
	m.live[to].Add(bytes)
}

// Register makes a relation's cold carried-view partitions evictable when
// the budget is exceeded. The engine registers the full recursive relations
// (R of Algorithm 1); everything else stays purely in memory.
func (m *Manager) Register(r *storage.Relation) {
	r.EnableSpill(m)
	m.regMu.Lock()
	defer m.regMu.Unlock()
	m.spillables = append(m.spillables, r)
}

// OverBudget reports whether live pool bytes currently exceed the budget
// (always false with no budget, or once eviction is sealed). The engine
// consults it at quiescent points to decide whether to shed attachments
// before EndEpoch's cold-partition spilling pays disk I/O.
func (m *Manager) OverBudget() bool {
	return m.budget > 0 && !m.sealed.Load() && m.liveTotal.Load() > m.budget
}

// NoteAttachmentDrop records one relation's attachments shed under budget
// pressure — the eviction that precedes any partition spill.
func (m *Manager) NoteAttachmentDrop() { m.attachmentDrops.Add(1) }

// StopSpilling permanently disables eviction — the engine calls it when the
// fixpoint is done, before restoring result relations: without it, faulting
// one result back in could push the budget over and re-evict another result
// that was just restored.
func (m *Manager) StopSpilling() { m.sealed.Store(true) }

// EndEpoch advances the reclamation epoch — the engine calls it once per
// fixpoint iteration, at a quiescent point. Partitions untouched since the
// previous epoch become eligible for eviction; a budget overshoot is
// reclaimed immediately.
func (m *Manager) EndEpoch() {
	m.epoch.Add(1)
	if m.budget > 0 && m.liveTotal.Load() > m.budget {
		m.reclaimMu.Lock()
		m.reclaimTo(m.budget)
		m.reclaimMu.Unlock()
	}
}

// Epoch implements storage.Pager.
func (m *Manager) Epoch() int64 { return m.epoch.Load() }

// reclaimTo evicts least-recently-probed partitions until live bytes drop
// to target or nothing evictable remains, and reports whether the target was
// reached. Callers hold reclaimMu;
// TryLock-style relation locking inside ColdestPartition/SpillPartition
// keeps it deadlock-free against allocators that already hold a relation
// mutex (they skip that relation and move on).
func (m *Manager) reclaimTo(target int64) bool {
	if m.sealed.Load() {
		return false
	}
	// Eviction order: what can be rebuilt goes before what must be written,
	// and each stage runs only if the one before left the target unmet.
	// First the pool-backed attachments (resident set-difference indexes):
	// derived from the relation's own contents, three or more times its
	// bytes, freed on the spot — nothing holds an attached index — and their
	// absence only restores the transient per-iteration tables; the engine
	// seeds an index again only with headroom for it. Cached join builds live
	// on the Go heap and stay: dropping one frees no pool byte. Then cold
	// partitions, paying a disk write.
	m.regMu.Lock()
	spillables := append([]*storage.Relation(nil), m.spillables...)
	m.regMu.Unlock()
	for _, r := range spillables {
		if r.TryEvictAttachments() > 0 {
			m.attachmentDrops.Add(1)
		}
	}
	if m.liveTotal.Load() <= target {
		return true
	}
	cur := m.epoch.Load()
	// Candidate scans use TryLock against relations an operator may be
	// touching right now; a miss is usually transient contention, not a lack
	// of cold data, so retry briefly before concluding nothing is evictable.
	// A contended miss sleeps, with a doubling backoff, rather than yields:
	// the holder may be a worker the scheduler (or the OS) has descheduled
	// mid-section, and a spinning reclaimer cannot out-wait that.
	misses := 0
	backoff := reclaimBackoff
	for m.liveTotal.Load() > target {
		if m.parked.Load() {
			// Spill writes keep failing: the attachment drops above were the
			// last reclaim lever. The allocation proceeds over budget — degraded
			// but correct.
			return false
		}
		m.regMu.Lock()
		rels := append([]*storage.Relation(nil), m.spillables...)
		m.regMu.Unlock()
		var victim *storage.Relation
		victimPart := -1
		var victimTouch int64
		busy := false
		for _, r := range rels {
			p, touch, bytes, ok, contended := r.ColdestPartition(cur)
			busy = busy || contended
			if !ok || bytes == 0 {
				continue
			}
			if victim == nil || touch < victimTouch {
				victim, victimPart, victimTouch = r, p, touch
			}
		}
		ok := false
		if victim != nil {
			_, ok = victim.SpillPartition(victimPart, m)
			busy = busy || !ok
		}
		if ok {
			misses, backoff = 0, reclaimBackoff
			continue
		}
		misses++
		if misses > reclaimRetries {
			return false
		}
		if busy {
			time.Sleep(backoff)
			backoff = min(2*backoff, reclaimBackoffMax)
		} else {
			runtime.Gosched()
		}
	}
	return true
}

// SpillBlocks implements storage.Pager: persist one partition's blocks to a
// spill file, retrying transient write failures with backoff. A write that
// keeps failing past the retry budget — or an unwritable spill directory —
// parks spilling for the rest of the run: the partition stays resident, the
// engine keeps evaluating in memory, and Headroom() tightens the effective
// budget. Spill failures are never fatal; no data has left memory yet.
func (m *Manager) SpillBlocks(arity int, blocks []*storage.Block) (any, int64, error) {
	defer m.phase(obs.PhaseSpill)()
	if m.parked.Load() {
		return nil, 0, errSpillParked
	}
	dir, err := m.spillDir()
	if err != nil {
		m.parkSpilling()
		return nil, 0, fmt.Errorf("memory: spill directory unavailable (spilling parked, continuing in-memory): %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("part-%06d.spill", m.fileSeq.Add(1)))
	var bytes int64
	err = m.withRetry(func() error {
		if ierr := m.inject.Fail(faultinject.SpillWrite); ierr != nil {
			return ierr
		}
		var werr error
		bytes, werr = relio.WriteBlocksFile(path, arity, blocks)
		if werr != nil {
			os.Remove(path)
		}
		return werr
	})
	if err != nil {
		m.parkSpilling()
		return nil, 0, fmt.Errorf("memory: spill write failed after %d attempts (spilling parked, continuing in-memory): %w", ioAttempts, err)
	}
	m.spills.Add(1)
	m.spilledBytes.Add(bytes)
	m.spilledNow.Add(bytes)
	return path, bytes, nil
}

// FaultBlocks implements storage.Pager: restore a spilled partition,
// allocating through lc, and discard the file. Transient read failures are
// retried with backoff; corruption (relio.ErrCorrupt — truncated or
// bit-flipped file) is not retried. A fault that ultimately fails is fatal
// for the run — the partition's tuples are unavailable, so continuing would
// compute wrong results — and is recorded as the run error; the file and the
// caller's token stay valid, so the relation keeps the slot and unspilled
// partitions remain fully usable.
func (m *Manager) FaultBlocks(token any, lc storage.Lifecycle, cat storage.Category, arity int) ([]*storage.Block, error) {
	defer m.phase(obs.PhaseFault)()
	path := token.(string)
	var blocks []*storage.Block
	err := m.withRetry(func() error {
		if ierr := m.inject.Fail(faultinject.FaultRead); ierr != nil {
			return ierr
		}
		var rerr error
		blocks, rerr = relio.ReadBlocksFile(path, lc, cat, arity)
		return rerr
	})
	if err != nil {
		err = fmt.Errorf("memory: faulting spilled partition %s: %w", path, err)
		m.noteRunErr(err)
		return nil, err
	}
	var sz int64
	if fi, err := os.Stat(path); err == nil {
		sz = fi.Size()
	}
	os.Remove(path)
	m.faults.Add(1)
	m.spilledNow.Add(-sz)
	return blocks, nil
}

// DropSpill implements storage.Pager: discard a spilled partition that will
// never be read again.
func (m *Manager) DropSpill(token any) {
	path := token.(string)
	if fi, err := os.Stat(path); err == nil {
		m.spilledNow.Add(-fi.Size())
	}
	os.Remove(path)
}

// spillDir lazily creates the spill directory.
func (m *Manager) spillDir() (string, error) {
	m.dirOnce.Do(func() {
		if m.spillBase != "" {
			m.dirErr = os.MkdirAll(m.spillBase, 0o755)
			return
		}
		d, err := os.MkdirTemp("", "recstep-mem-*")
		if err != nil {
			m.dirErr = err
			return
		}
		m.spillBase, m.ownsDir = d, true
	})
	return m.spillBase, m.dirErr
}

// Close drains the pool and removes the spill directory (when owned).
func (m *Manager) Close() error {
	m.closed.Store(true)
	for i := range m.shards {
		m.shards[i].drain()
	}
	if m.ownsDir && m.spillBase != "" {
		return os.RemoveAll(m.spillBase)
	}
	return nil
}

// Snapshot is a point-in-time reading of the manager's gauges and counters,
// surfaced through engine Stats and IterInfo.
type Snapshot struct {
	// LiveBytes is the per-category live (allocated, unreleased) pool bytes.
	LiveBytes [storage.NumCategories]int64
	// LiveTotal and PeakLive aggregate across categories.
	LiveTotal, PeakLive int64
	// PeakBytes is what PeakLive was made of: the per-category live bytes read
	// at the instant the peak was last raised.
	PeakBytes [storage.NumCategories]int64
	// Budget echoes the configured budget (0 = unlimited).
	Budget int64
	// PoolHits/PoolMisses count recycled vs fresh block-array allocations;
	// Frees counts arrays returned.
	PoolHits, PoolMisses, Frees int64
	// ShardGets/ShardPuts count free-list shard lock acquisitions; MagHits
	// counts allocations served by a per-worker magazine without any shard
	// traffic, MagRefills the batched refills/flushes that restock them.
	// Magazines working: MagHits high, ShardGets/ShardPuts low.
	ShardGets, ShardPuts, MagHits, MagRefills int64
	// Spills/Faults count partition evictions and restorations;
	// SpilledBytes is the cumulative volume written, SpilledNowBytes the
	// volume currently on disk.
	Spills, Faults                int64
	SpilledBytes, SpilledNowBytes int64
	// AttachmentDrops counts the eviction step that runs before any
	// partition spills: relations whose pool-accounted attachments
	// (resident indexes) were shed.
	AttachmentDrops int64
	// IndexBytes is the live pool bytes held by resident set-difference
	// indexes (LiveBytes[storage.CatIndex]).
	IndexBytes int64
	// SpillRetries counts retried spill-write/fault-read I/O attempts;
	// SpillsParked reports in-memory degraded mode after a persistent
	// spill-write failure.
	SpillRetries int64
	SpillsParked bool
	// Epoch is the current reclamation epoch (fixpoint iteration count).
	Epoch int64
}

// Snapshot reads the gauges.
func (m *Manager) Snapshot() Snapshot {
	s := Snapshot{
		LiveTotal:       m.liveTotal.Load(),
		PeakLive:        m.peak.Load(),
		Budget:          m.budget,
		PoolHits:        m.poolHits.Load(),
		PoolMisses:      m.poolMisses.Load(),
		Frees:           m.frees.Load(),
		ShardGets:       m.shardGets.Load(),
		ShardPuts:       m.shardPuts.Load(),
		MagHits:         m.magHits.Load(),
		MagRefills:      m.magRefills.Load(),
		Spills:          m.spills.Load(),
		Faults:          m.faults.Load(),
		AttachmentDrops: m.attachmentDrops.Load(),
		SpillRetries:    m.spillRetries.Load(),
		SpillsParked:    m.parked.Load(),
		SpilledBytes:    m.spilledBytes.Load(),
		SpilledNowBytes: m.spilledNow.Load(),
		Epoch:           m.epoch.Load(),
	}
	for c := range s.LiveBytes {
		s.LiveBytes[c] = m.live[c].Load()
	}
	s.IndexBytes = s.LiveBytes[storage.CatIndex]
	m.peakMu.Lock()
	s.PeakBytes = m.peakBy
	m.peakMu.Unlock()
	return s
}

// PeakComposition renders PeakBytes for a log line or a test failure:
// "intermediate=… delta=… idb=…", categories with no bytes omitted.
func (s Snapshot) PeakComposition() string {
	var b strings.Builder
	for c, n := range s.PeakBytes {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", storage.Category(c), n)
	}
	return b.String()
}

// Sub returns counter deltas since an earlier snapshot (gauges are copied
// from the receiver).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := s
	d.PoolHits -= o.PoolHits
	d.PoolMisses -= o.PoolMisses
	d.Frees -= o.Frees
	d.ShardGets -= o.ShardGets
	d.ShardPuts -= o.ShardPuts
	d.MagHits -= o.MagHits
	d.MagRefills -= o.MagRefills
	d.Spills -= o.Spills
	d.Faults -= o.Faults
	d.AttachmentDrops -= o.AttachmentDrops
	d.SpillRetries -= o.SpillRetries
	d.SpilledBytes -= o.SpilledBytes
	return d
}
