package exec

import "sync/atomic"

// The duplicate filter of a set-valued join output. A delta-rule join derives
// the same tuple many times over (CSPA: hundreds), and its consumer — the
// fused delta step — throws every copy but one away after the join has
// expanded, scattered and materialized them all. When the consumer has said
// the output is a set, the join checks each tuple it is about to emit against
// a small direct-mapped table of tuples it emitted recently and drops the
// exact repeats before they reach an output block. The table is lossy in the
// safe direction only: a tuple whose slot was overwritten in the meantime is
// emitted again and the delta step removes it as it always did.
//
// The check never branches on its outcome: a row is packed, compared with
// its slot, stored in the slot and at the caller's write cursor whatever the
// compare said, and the cursor advances by the compare's result (keep64,
// keep128). At the filter's usual hit shares, around 70 %, a branch on the
// outcome would guess wrong on close to three rows in ten. Match expansion
// runs the check as it writes each row (joinOutput.expandInto); compact runs
// it over rows already in a window.

const (
	// dupFilterBits sizes the table: 1<<16 slots of one packed tuple each —
	// 512 KiB for ≤ 2 output columns, 1 MiB for 3–4 — which stays inside one
	// core's L2 beside the join's windows. docs/BENCHMARKS.md has the sweep
	// that chose it.
	dupFilterBits  = 16
	dupFilterSlots = 1 << dupFilterBits
	dupFilterShift = 64 - dupFilterBits

	dupFilterMult  = 0x9E3779B97F4A7C15
	dupFilterMult2 = 0xC2B2AE3D27D4EB4F
)

// The two tuning points of the filter, fixed in production: a worker borrows
// a table only once it has emitted dupFilterActivate rows in the join at hand
// (clearing a table costs about as much as emitting that many rows, so a join
// that never gets there pays nothing), and gives it up for the rest of the
// join when a pass over a window drops fewer than dupFilterMinHits of every
// 1024 rows (the repeats are too far apart for a table this size, and the
// check then costs more than it saves). Atomics only because the test setter
// may run beside other tests' joins.
var (
	dupFilterActivate atomic.Int64
	dupFilterMinHits  atomic.Int64
)

func init() {
	dupFilterActivate.Store(dupFilterSlots)
	dupFilterMinHits.Store(256)
}

// SetDupFilterTuningForTest forces the filter's activation point (rows a
// worker emits before borrowing a table) and its minimum hit share (drops per
// 1024 rows under which a worker switches the filter off), and returns the
// function that restores the production values — the only way either is
// reachable from outside the package. Tests pass it to t.Cleanup.
func SetDupFilterTuningForTest(activateRows, minHitsPer1024 int) (restore func()) {
	a, m := dupFilterActivate.Swap(int64(activateRows)), dupFilterMinHits.Swap(int64(minHitsPer1024))
	return func() {
		dupFilterActivate.Store(a)
		dupFilterMinHits.Store(m)
	}
}

// dupFilter is one direct-mapped table of packed tuples: one word per slot
// for outputs of ≤ 2 columns (the gscht.PackKey64 layout), two for 3–4
// columns (PackKey128, hi then lo). There is no occupancy bit. The slot
// function maps the all-zero tuple to slot 0, so zero is the empty marker of
// every other slot — the one tuple that packs to zero can never be looked up
// there — and slot 0 is emptied with the tuple that packs to 1, which the
// slot function sends elsewhere.
type dupFilter struct {
	tab  []uint64
	wide bool
}

func newDupFilter(wide bool) *dupFilter {
	n := dupFilterSlots
	if wide {
		n *= 2
	}
	return &dupFilter{tab: make([]uint64, n), wide: wide}
}

func dupSlot64(k uint64) uint64 { return (k * dupFilterMult) >> dupFilterShift }

func dupSlot128(hi, lo uint64) uint64 {
	return ((hi*dupFilterMult2 ^ lo) * dupFilterMult) >> dupFilterShift
}

// reset empties every slot. A borrower always resets: whatever the previous
// join — finished, cancelled or panicked — left behind is never trusted.
func (f *dupFilter) reset() {
	clear(f.tab)
	if f.wide {
		f.tab[1] = 1
	} else {
		f.tab[0] = 1
	}
}

// keep64 shows the packed tuple k to a narrow table and returns 1 when the
// row is kept — k's slot held another tuple — and 0 when it is a repeat. The
// slot takes k either way, so nothing branches on the outcome: callers store
// the row at their write cursor unconditionally and advance it by the result.
// A nil table keeps every row.
func keep64(tab []uint64, k uint64) int {
	if tab == nil {
		return 1
	}
	s := dupSlot64(k)
	miss := tab[s] != k
	tab[s] = k
	return b2i(miss)
}

// keep128 is keep64 for a wide table, the tuple packed as (hi, lo).
func keep128(tab []uint64, hi, lo uint64) int {
	if tab == nil {
		return 1
	}
	s := 2 * dupSlot128(hi, lo)
	miss := (tab[s]^hi)|(tab[s+1]^lo) != 0
	tab[s], tab[s+1] = hi, lo
	return b2i(miss)
}

// pack2 packs two columns into one word, the first in the high half: the
// gscht.PackKey64 layout of a 2-tuple and each word of PackKey128's.
func pack2(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// b2i is 1 for true and 0 for false; the compiler makes it a flag set, not
// a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// compact runs rows [from, n) of a row-major window of width-w tuples through
// the table: a row equal to the tuple in its slot is dropped, any other row
// takes the slot over and is kept. Kept rows are moved down to stay
// contiguous after row from; the new row count is returned. Match expansion
// filters its rows as it writes them (joinOutput.expandInto); compact serves
// the rows a window already held when the filter was borrowed, and a
// computed join's rows once eval has made output rows of them.
func (f *dupFilter) compact(win []int32, w, from, n int) int {
	tab := f.tab
	o := from
	switch w {
	case 1:
		for i := from; i < n; i++ {
			v := win[i]
			win[o] = v
			o += keep64(tab, uint64(uint32(v)))
		}
	case 2:
		for i := from; i < n; i++ {
			v0, v1 := win[2*i], win[2*i+1]
			win[2*o], win[2*o+1] = v0, v1
			o += keep64(tab, pack2(v0, v1))
		}
	case 3:
		for i := from; i < n; i++ {
			v0, v1, v2 := win[3*i], win[3*i+1], win[3*i+2]
			win[3*o], win[3*o+1], win[3*o+2] = v0, v1, v2
			o += keep128(tab, uint64(uint32(v0)), pack2(v1, v2))
		}
	case 4:
		for i := from; i < n; i++ {
			v0, v1, v2, v3 := win[4*i], win[4*i+1], win[4*i+2], win[4*i+3]
			win[4*o], win[4*o+1], win[4*o+2], win[4*o+3] = v0, v1, v2, v3
			o += keep128(tab, pack2(v0, v1), pack2(v2, v3))
		}
	default:
		panic("exec: duplicate filter supports 1 to 4 output columns")
	}
	return o
}

// dupFilterWidth is the widest output the filter packs.
const dupFilterWidth = 4

// dupList is the index of the pool's free list for narrow (0) or wide (1)
// tables.
func dupList(wide bool) int {
	if wide {
		return 1
	}
	return 0
}

// borrowDupFilter hands out an emptied table for tuples of the given width.
// The free list is the pool's and not indexed by worker slot: the arms of a
// UNION ALL run their joins on one pool at the same time, each with its own
// workers. Tables are Go-heap memory outside the block budget — they hold no
// tuple the engine needs, a budgeted run is not worth spilling for them, and
// at most (concurrent arms × workers) exist.
func (p *Pool) borrowDupFilter(width int) *dupFilter {
	wide := width > 2
	var f *dupFilter
	p.dupMu.Lock()
	if l := p.dupFree[dupList(wide)]; len(l) > 0 {
		f = l[len(l)-1]
		p.dupFree[dupList(wide)] = l[:len(l)-1]
	}
	p.dupMu.Unlock()
	if f == nil {
		f = newDupFilter(wide)
	}
	f.reset()
	return f
}

// returnDupFilter puts a table back on the free list, contents and all.
func (p *Pool) returnDupFilter(f *dupFilter) {
	p.dupMu.Lock()
	p.dupFree[dupList(f.wide)] = append(p.dupFree[dupList(f.wide)], f)
	p.dupMu.Unlock()
}
