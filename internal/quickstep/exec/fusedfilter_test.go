package exec

import (
	"math/rand"
	"slices"
	"testing"

	"recstep/internal/quickstep/expr"
)

// filterStream is a probe stream for the join-output kernel: probe rows of
// arity 3 (column 1 the join key) and, for each, a run of build payloads ba
// columns wide, row-major. About a hit share of the matches repeat a payload
// their probe row was shown before — an output row the filter has seen — and
// the rest are new.
type filterStream struct {
	probes [][]int32
	runs   [][]int32
	counts []int // matches per probe row
	rows   int
}

func newFilterStream(rng *rand.Rand, rows, ba int, hit float64) filterStream {
	const probeRows, recent = 16, 64
	var fs filterStream
	keys := make([][]int32, probeRows)
	used := make([][][]int32, probeRows) // per probe row, its recent payloads
	for p := range keys {
		keys[p] = []int32{int32(rng.Intn(1000)), int32(p), int32(rng.Intn(1000))}
	}
	next := int32(0)
	for fs.rows < rows {
		p := rng.Intn(probeRows)
		n := min(1+rng.Intn(32), rows-fs.rows)
		run := make([]int32, 0, n*ba)
		for range n {
			if u := used[p]; len(u) > 0 && rng.Float64() < hit {
				run = append(run, u[rng.Intn(len(u))]...)
				continue
			}
			pay := make([]int32, ba)
			for c := range pay {
				pay[c] = next
				next++
			}
			if ba > 0 {
				used[p] = append(used[p], pay)
				if len(used[p]) > recent {
					used[p] = used[p][1:]
				}
			}
			run = append(run, pay...)
		}
		fs.probes = append(fs.probes, keys[p])
		fs.runs = append(fs.runs, run)
		fs.counts = append(fs.counts, n)
		fs.rows += n
	}
	return fs
}

// streamOutput resolves a join output over the stream's sides: the probe
// (left, arity 3) joined on its column 1 with a build (right) whose column 0
// is the key and columns 1..ba the payload. projs index left ++ right, so 3
// is the build key — read from the probe row — and 4.. the payload.
func streamOutput(projs []int) *joinOutput {
	spec := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, OutSet: true}
	for _, c := range projs {
		spec.Projs = append(spec.Projs, expr.Col{Index: c})
	}
	return newJoinOutput(NewPool(1), nil, spec, 3)
}

// outputMixes lists, for each width 1–4, every sequence of column kinds —
// probe column, build key, build payload column (when ba > 0) — as
// projections for streamOutput, the offsets within each side rotating with
// the position.
func outputMixes(ba int) [][]int {
	kinds := 2
	if ba > 0 {
		kinds = 3
	}
	var mixes [][]int
	for w := 1; w <= dupFilterWidth; w++ {
		total := 1
		for range w {
			total *= kinds
		}
		for m := range total {
			projs := make([]int, w)
			for i, k := 0, m; i < w; i, k = i+1, k/kinds {
				switch k % kinds {
				case 0:
					projs[i] = (i + m) % 3
				case 1:
					projs[i] = 3
				case 2:
					projs[i] = 4 + (i+m)%ba
				}
			}
			mixes = append(mixes, projs)
		}
	}
	return mixes
}

// TestFusedFilterMatchesTwoPass checks the fused kernel against the two
// passes it replaces: expandInto with a filter keeps exactly the rows, in
// order, that expandInto without one followed by compact keeps, and leaves
// the table word for word the same — at widths 1–4, every probe/build mix of
// output columns, build payloads 0–3 wide and hit shares near 0, 50 and 95 %.
func TestFusedFilterMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fused, twoPass := newDupFilter(false), newDupFilter(false)
	fusedW, twoPassW := newDupFilter(true), newDupFilter(true)
	for ba := 0; ba <= 3; ba++ {
		for _, hit := range []float64{0, 0.5, 0.95} {
			fs := newFilterStream(rng, 3000, ba, hit)
			for _, projs := range outputMixes(ba) {
				jo := streamOutput(projs)
				w := len(projs)
				f, g := fused, twoPass
				if w > 2 {
					f, g = fusedW, twoPassW
				}
				f.reset()
				g.reset()
				all := make([]int32, fs.rows*w)
				kept := make([]int32, fs.rows*w)
				n, k := 0, 0
				for i, pr := range fs.probes {
					m := fs.counts[i]
					if got := jo.expandInto(all[n*w:], pr, fs.runs[i], m, ba, nil); got != m {
						t.Fatalf("%v: expandInto without a filter kept %d of %d rows", projs, got, m)
					}
					n += m
					k += jo.expandInto(kept[k*w:], pr, fs.runs[i], m, ba, f)
				}
				want := g.compact(all, w, 0, n)
				if k != want || !slices.Equal(kept[:k*w], all[:want*w]) {
					t.Fatalf("ba %d, hit %.2f, projs %v: fused kept %d rows, two passes %d, or in another order", ba, hit, projs, k, want)
				}
				if !slices.Equal(f.tab, g.tab) {
					t.Fatalf("ba %d, hit %.2f, projs %v: fused and two-pass tables differ", ba, hit, projs)
				}
				if w == 2 && ba == 1 && projs[0] == 0 && projs[1] == 4 { // tc's shape: check the stream's share
					if share := 1 - float64(k)/float64(n); share < hit-0.1 || share > hit+0.1 {
						t.Fatalf("stream meant for %.0f %% hits dropped %.0f %%", 100*hit, 100*share)
					}
				}
			}
		}
	}
}

var benchKept int

// BenchmarkJoinOutputFilter times match expansion with the duplicate filter
// over a stream with about 70 % repeats, through 1024-row windows: width 2 in
// tc's shape (a probe column, then a one-column payload) and in the other
// column order (cspa's and cc's), width 2 over a two-column payload (the
// general loop) and width 4 from two probe and two payload columns; and,
// with no filter, width 2 in cc's shape, the output of a join-fed aggregate.
func BenchmarkJoinOutputFilter(b *testing.B) {
	for _, c := range []struct {
		name  string
		ba    int
		projs []int
		off   bool
	}{
		{"width=2", 1, []int{0, 4}, false},
		{"width=2/payload-first", 1, []int{4, 0}, false},
		{"width=2/general", 2, []int{0, 4}, false},
		{"width=4", 2, []int{0, 4, 2, 5}, false},
		{"width=2/payload-first/no-filter", 1, []int{4, 0}, true},
	} {
		w := len(c.projs)
		b.Run(c.name, func(b *testing.B) {
			fs := newFilterStream(rand.New(rand.NewSource(7)), 1<<18, c.ba, 0.7)
			jo := streamOutput(c.projs)
			var f *dupFilter
			if !c.off {
				f = newDupFilter(w > 2)
			}
			win := make([]int32, windowRows(w)*w)
			kept := 0
			for b.Loop() {
				if f != nil {
					b.StopTimer()
					f.reset()
					b.StartTimer()
				}
				kept = expandFilterStream(jo, f, fs, c.ba, win)
			}
			benchKept = kept
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fs.rows), "ns/row")
			b.ReportMetric(1-float64(kept)/float64(fs.rows), "hits")
		})
	}
}

// expandFilterStream expands and filters the stream into win and returns the
// rows kept. The window is emptied whenever the next run would take it past
// its row count, the rows the filter dropped counted as taken (as in expand).
func expandFilterStream(jo *joinOutput, f *dupFilter, fs filterStream, ba int, win []int32) int {
	w, rows := len(jo.src), len(win)/len(jo.src)
	n, fill, kept := 0, 0, 0
	for i, pr := range fs.probes {
		m := fs.counts[i]
		if fill+m > rows {
			kept += n
			n, fill = 0, 0
		}
		n += jo.expandInto(win[n*w:], pr, fs.runs[i], m, ba, f)
		fill += m
	}
	return kept + n
}

// TestFusedFilterKeepsTheWindowCheckPoints runs a set-valued join whose
// output's repeats come in stretches, around the bypass rule's minimum, and
// checks its suppressed rows and bypassed windows against the filter applied
// the way it was before the kernel filtered: every row written to the window,
// and the window filtered whenever it fills. The rows expand drops count as
// window space until the next check, so the filter is judged, and windows
// flushed, at the same rows.
func TestFusedFilterKeepsTheWindowCheckPoints(t *testing.T) {
	const activate, minHits = 1, 512
	t.Cleanup(SetDupFilterTuningForTest(activate, minHits))
	rng := rand.New(rand.NewSource(9))
	const keys = 64
	var lrows, rrows [][]int32
	for k := range keys {
		rrows = append(rrows, []int32{int32(k), int32(7 * k)})
	}
	var recent [][]int32
	for len(lrows) < 60000 {
		hit := []float64{0.8, 0.1}[len(lrows)/4000%2]
		if len(recent) > 0 && rng.Float64() < hit {
			lrows = append(lrows, recent[rng.Intn(len(recent))])
			continue
		}
		row := []int32{int32(len(lrows)), int32(rng.Intn(keys))}
		lrows = append(lrows, row)
		if recent = append(recent, row); len(recent) > 256 {
			recent = recent[1:]
		}
	}
	pool := NewPool(1)
	out := HashJoin(pool, rel("l", 2, lrows...), rel("r", 2, rrows...), JoinSpec{
		LeftKeys: []int{1}, RightKeys: []int{0},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
		OutName: "o", OutSet: true,
	})
	// The two-pass window, one match per probe row, in probe order.
	f := newDupFilter(false)
	f.reset()
	winRows := windowRows(2)
	win := make([]int32, 2*winRows)
	var n, passed, emitted, seen, hits, bypassed int
	on, off := false, false
	check := func(full bool) {
		if !on && !off && emitted+n >= activate {
			on = true
		}
		if on {
			kept := f.compact(win, 2, passed, n)
			seen += n - passed
			hits += n - kept
			n, passed = kept, kept
			if seen >= activate && hits*1024 < minHits*seen {
				on, off = false, true
			}
			if full && n < winRows/2 {
				return
			}
		}
		if n > 0 {
			emitted += n
			n, passed = 0, 0
			if off {
				bypassed++
			}
		}
	}
	for _, r := range lrows {
		if n == winRows {
			check(true)
		}
		win[2*n], win[2*n+1] = r[0], 7*r[1]
		n++
	}
	if n > 0 {
		check(false)
	}
	s := pool.Copy.Snapshot()
	if s.DupSuppressed != int64(hits) || s.DupFilterBypassed != int64(bypassed) || out.NumTuples() != len(lrows)-hits {
		t.Fatalf("join: %d suppressed, %d windows bypassed, %d rows out; filtered a window at a time: %d, %d, %d",
			s.DupSuppressed, s.DupFilterBypassed, out.NumTuples(), hits, bypassed, len(lrows)-hits)
	}
	if bypassed == 0 || hits == 0 {
		t.Fatalf("the stream never switched the filter off (%d bypassed windows) or never hit (%d)", bypassed, hits)
	}
}
