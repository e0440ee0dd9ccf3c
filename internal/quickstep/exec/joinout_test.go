package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/gscht"
	"recstep/internal/quickstep/storage"
)

// forceDupFilter makes every set-valued join borrow a filter at its first
// full window and never give it up, for the length of the test.
func forceDupFilter(t *testing.T) {
	t.Helper()
	t.Cleanup(SetDupFilterTuningForTest(1, 0))
}

// randRel draws n rows of the given arity with values in [0, domain).
func randRel(name string, arity, n, domain int, rng *rand.Rand) *storage.Relation {
	r := storage.NewRelation(name, storage.NumberedColumns(arity))
	rows := make([]int32, 0, n*arity)
	for i := 0; i < n*arity; i++ {
		rows = append(rows, int32(rng.Intn(domain)))
	}
	r.AppendRows(rows)
	return r
}

// tupleCounts returns the bag of r's tuples (arity ≤ 6; unused columns −1).
func tupleCounts(r *storage.Relation) map[[6]int32]int {
	m := make(map[[6]int32]int)
	r.ForEach(func(t []int32) {
		k := [6]int32{-1, -1, -1, -1, -1, -1}
		copy(k[:], t)
		m[k]++
	})
	return m
}

// filterPaths are the ways a width-w tuple reaches the filter's table:
// compact over a window, and match expansion given the tuple as one match —
// its last or its first column a one-column payload (at width 2 the loops
// for one column from each side), or its last column the first of a
// two-column payload (the general loop). Each shows f one tuple and returns
// how many rows it kept and the row it wrote.
func filterPaths(w int) map[string]func(f *dupFilter, tup []int32) (int, []int32) {
	output := func(projs ...int) *joinOutput {
		spec := JoinSpec{LeftKeys: []int{0}, RightKeys: []int{0}, OutSet: true}
		for _, c := range projs {
			spec.Projs = append(spec.Projs, expr.Col{Index: c})
		}
		return newJoinOutput(NewPool(1), nil, spec, w) // probe arity w, build (key, payload...)
	}
	probe := make([]int, w-1)
	for c := range probe {
		probe[c] = c
	}
	last := output(append(probe, w+1)...)
	first := output(append([]int{w + 1}, probe...)...)
	return map[string]func(*dupFilter, []int32) (int, []int32){
		"compact": func(f *dupFilter, tup []int32) (int, []int32) {
			win := slices.Clone(tup)
			return f.compact(win, w, 0, 1), win
		},
		"expandInto, payload last": func(f *dupFilter, tup []int32) (int, []int32) {
			win := make([]int32, w)
			return last.expandInto(win, tup, tup[w-1:], 1, 1, f), win
		},
		"expandInto, payload first": func(f *dupFilter, tup []int32) (int, []int32) {
			win := make([]int32, w)
			return first.expandInto(win, tup[1:], tup[:1], 1, 1, f), win
		},
		"expandInto, two-column payload": func(f *dupFilter, tup []int32) (int, []int32) {
			win := make([]int32, w)
			return last.expandInto(win, tup, []int32{tup[w-1], -7}, 1, 2, f), win
		},
	}
}

// TestDupFilterEmptySlotMatchesNothing covers the tuples whose packed form is
// the empty marker of some slot: shown once to an emptied table each must be
// kept, shown again at once each must be dropped — through compact and
// through the fused kernel. At 3 and 4 columns the tuples include ones whose
// two packed words differ in only one of them against the empty slot, and
// ones whose words are equal, which a compare of the words' XORs without
// parentheses takes for the empty slot.
func TestDupFilterEmptySlotMatchesNothing(t *testing.T) {
	if dupSlot64(0) != 0 || dupSlot64(1) == 0 || dupSlot128(0, 0) != 0 || dupSlot128(0, 1) == 0 {
		t.Fatalf("slot function moved: the empty markers of reset() no longer hash away from their slots (%d %d %d %d)",
			dupSlot64(0), dupSlot64(1), dupSlot128(0, 0), dupSlot128(0, 1))
	}
	cases := map[int][][]int32{
		1: {{0}, {1}, {-1}},
		2: {{0, 0}, {0, 1}, {-1, -1}, {0, -1}, {-1, 0}, {1, 0}},
		3: {{0, 0, 0}, {0, 0, 1}, {-1, -1, -1}, {0, -1, 0}, {-1, 0, 0}, {0, 0, -1}, {1, 0, 0}, {0, 3, 0}, {5, 0, 5}, {-1, 0, -1}},
		4: {{0, 0, 0, 0}, {0, 0, 0, 1}, {-1, -1, -1, -1}, {0, 0, -1, -1}, {-1, -1, 0, 0}, {0, 1, 0, 0}, {1, 0, 0, 0}, {5, 6, 5, 6}, {-1, 7, -1, 7}},
	}
	for w, tuples := range cases {
		for path, show := range filterPaths(w) {
			f := newDupFilter(w > 2)
			f.reset()
			for _, tup := range tuples {
				if n, row := show(f, tup); n != 1 || !reflect.DeepEqual(row, tup) {
					t.Fatalf("%s, width %d: fresh filter dropped or mangled %v (kept %d, row %v)", path, w, tup, n, row)
				}
				if n, _ := show(f, tup); n != 0 {
					t.Fatalf("%s, width %d: %v shown twice in a row was kept twice", path, w, tup)
				}
			}
			// A table that only ever saw resets holds no tuple either.
			f.reset()
			for _, tup := range tuples {
				if n, _ := show(f, tup); n != 1 {
					t.Fatalf("%s, width %d: %v dropped by a table that was just reset", path, w, tup)
				}
			}
		}
	}
}

// TestDupFilterSharedSlotAlternates shows two tuples of one slot to the table
// in turn: each evicts the other, neither is ever dropped — through compact
// and through the fused kernel. At 3 and 4 columns the two share one packed
// word and differ in the other, their low word all ones: a compare of the
// words' XORs without parentheses takes such a pair for one tuple.
func TestDupFilterSharedSlotAlternates(t *testing.T) {
	slot := func(tup []int32) uint64 {
		if len(tup) <= 2 {
			return dupSlot64(gscht.PackKey64(tup))
		}
		k := gscht.PackKey128(tup)
		return dupSlot128(k.Hi, k.Lo)
	}
	// sameSlot returns a tuple of a's slot that differs from a in column c.
	sameSlot := func(a []int32, c int) []int32 {
		b := slices.Clone(a)
		for b[c] = 0; b[c] == a[c] || slot(b) != slot(a); b[c]++ {
		}
		return b
	}
	for _, pair := range []struct {
		a []int32
		c int
	}{
		{[]int32{7, 11}, 1},
		{[]int32{7, 11, -1}, 0}, // high word differs
		{[]int32{7, 11, -1}, 1}, // low word differs
		{[]int32{7, 11, -1, -1}, 1},
		{[]int32{7, 11, -1, -1}, 3},
	} {
		a, w := pair.a, len(pair.a)
		b := sameSlot(a, pair.c)
		for path, show := range filterPaths(w) {
			f := newDupFilter(w > 2)
			f.reset()
			kept := 0
			for range 4 {
				for _, tup := range [][]int32{a, b} {
					n, _ := show(f, tup)
					kept += n
				}
			}
			if kept != 8 {
				t.Fatalf("%s: tuples %v and %v share slot %d and alternate: kept %d of 8", path, a, b, slot(a), kept)
			}
			// The same stream with a doubled loses exactly the doubles.
			f.reset()
			kept = 0
			for range 4 {
				for _, tup := range [][]int32{a, a, b} {
					n, _ := show(f, tup)
					kept += n
				}
			}
			if kept != 8 {
				t.Fatalf("%s: %v, %v: kept %d of 12, want the 8 non-adjacent ones", path, a, b, kept)
			}
		}
	}
}

// TestDupFilterCompactKeepsPrefix checks the window contract: rows before
// from are untouched, survivors stay in order right behind them.
func TestDupFilterCompactKeepsPrefix(t *testing.T) {
	f := newDupFilter(false)
	f.reset()
	win := []int32{1, 1, 1, 1, 2, 2, 1, 1, 3, 3, 2, 2}
	n := f.compact(win, 2, 2, 6)
	if want := []int32{1, 1, 1, 1, 2, 2, 1, 1, 3, 3}; n != 5 || !reflect.DeepEqual(win[:10], want) {
		t.Fatalf("compact from row 2 = %d rows %v, want 5 rows %v", n, win[:2*n], want)
	}
}

// TestBorrowedDupFilterCarriesNothingOver: a table goes back to the free list
// with its contents and comes out empty, so the tuple one join emitted is not
// missing from the next join's (different) output.
func TestBorrowedDupFilterCarriesNothingOver(t *testing.T) {
	pool := NewPool(1)
	f := pool.borrowDupFilter(2)
	win := []int32{5, 9}
	f.compact(win, 2, 0, 1)
	pool.returnDupFilter(f)
	g := pool.borrowDupFilter(2)
	if g != f {
		t.Fatal("free list did not hand the returned table back")
	}
	if n := g.compact(win, 2, 0, 1); n != 1 {
		t.Fatal("a borrowed table still held its previous borrower's tuple")
	}
	pool.returnDupFilter(g)

	forceDupFilter(t)
	l := rel("l", 2, []int32{1, 2})
	var rrows [][]int32
	for i := 0; i < 3000; i++ { // enough matches to fill windows and borrow
		rrows = append(rrows, []int32{2, 3})
	}
	r := rel("r", 2, rrows...)
	spec := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, Projs: []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}}, OutSet: true}
	emitted := 0
	for i, name := range []string{"first", "second"} {
		spec.OutName = name
		out := HashJoin(pool, l, r, spec)
		got := tupleCounts(out)
		if got[[6]int32{1, 3, -1, -1, -1, -1}] < 1 || len(got) != 1 {
			t.Fatalf("join %d lost its tuple: %v", i, got)
		}
		if out.NumTuples() >= 3000 {
			t.Fatalf("join %d: the forced filter dropped nothing (%d rows)", i, out.NumTuples())
		}
		emitted += out.NumTuples()
	}
	if s := pool.Copy.Snapshot(); s.JoinRowsExpanded != 6000 || s.DupSuppressed != int64(6000-emitted) {
		t.Fatalf("two joins of 3000 matches emitted %d rows but counted %d expanded, %d suppressed",
			emitted, s.JoinRowsExpanded, s.DupSuppressed)
	}
}

// joinCase is one random join shape of the equivalence test.
type joinCase struct {
	la, ra     int
	keys       int
	outCols    []int
	buildLeft  bool
	parts      int // build fan-out
	outParts   int // 0 = flat output
	outKeyCols []int
	residual   bool // a residual predicate
	computed   bool // an expr.Add projection
}

// nestedLoopJoin is the reference bag join: every left row against every
// right row, the keys and the residual tested on the combined row and the
// projections evaluated over it.
func nestedLoopJoin(left, right *storage.Relation, spec JoinSpec) map[[6]int32]int {
	la, ra := left.Arity(), right.Arity()
	l, r := left.Rows(), right.Rows()
	combined := make([]int32, la+ra)
	bag := make(map[[6]int32]int)
	for i := 0; i < len(l); i += la {
		copy(combined, l[i:i+la])
	rows:
		for j := 0; j < len(r); j += ra {
			for k, lk := range spec.LeftKeys {
				if combined[lk] != r[j+spec.RightKeys[k]] {
					continue rows
				}
			}
			copy(combined[la:], r[j:j+ra])
			if !expr.All(spec.Residual, combined) {
				continue
			}
			k := [6]int32{-1, -1, -1, -1, -1, -1}
			for c, p := range spec.Projs {
				k[c] = p.Eval(combined)
			}
			bag[k]++
		}
	}
	return bag
}

// bagSize is the number of rows in a bag.
func bagSize(bag map[[6]int32]int) int {
	n := 0
	for _, c := range bag {
		n += c
	}
	return n
}

// TestJoinKernelMatchesClosurePath runs random joins through the join kernel
// against a nested-loop reference: 1–6 probe keys, output arity 1–6, residual
// predicates (column against column and against a literal) and computed
// projections, either build side, flat and partitioned outputs, one and four
// workers. Unmarked outputs must agree as bags; set-valued ones, with the
// filter forced on, as sets and never with more copies of a tuple than the bag
// holds. Then, at build fan-out 1 and 16, the shapes random draws miss (see
// checkJoinShapes), the cases of the payload-only build layout (see
// checkPayloadLayout) and AntiJoin at 1–6 keys over its keys-only table.
func TestJoinKernelMatchesClosurePath(t *testing.T) {
	forceDupFilter(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		c := joinCase{keys: 1 + (trial/6)%6, buildLeft: rng.Intn(2) == 0}
		c.la, c.ra = c.keys+rng.Intn(3), c.keys+rng.Intn(3)
		width := 1 + trial%6
		for j := 0; j < width; j++ {
			c.outCols = append(c.outCols, rng.Intn(c.la+c.ra))
		}
		c.parts = []int{1, 16}[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			c.outParts = []int{16, 64}[rng.Intn(2)]
			c.outKeyCols = []int{rng.Intn(width)}
		}
		c.residual, c.computed = rng.Intn(3) == 0, rng.Intn(3) == 0
		// A small domain and about a thousand rows a side: tens of thousands
		// of matches, so windows fill, flush and (when marked) filter dozens
		// of times per join. Wider keys take a smaller domain to match as
		// often.
		domain := []int{25, 25, 10, 6, 4, 3}[c.keys-1]
		left := randRel("l", c.la, 600+rng.Intn(800), domain, rng)
		right := randRel("r", c.ra, 600+rng.Intn(800), domain, rng)
		spec := JoinSpec{BuildLeft: c.buildLeft, Partitions: c.parts, OutName: "out"}
		for k := 0; k < c.keys; k++ {
			spec.LeftKeys = append(spec.LeftKeys, k)
			spec.RightKeys = append(spec.RightKeys, c.ra-1-k)
		}
		for _, oc := range c.outCols {
			spec.Projs = append(spec.Projs, expr.Col{Index: oc})
		}
		col := func() expr.Col { return expr.Col{Index: rng.Intn(c.la + c.ra)} }
		if c.computed {
			var r expr.Expr = expr.Lit{Value: int32(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				r = col()
			}
			spec.Projs[rng.Intn(width)] = expr.Arith{Op: expr.Add, L: col(), R: r}
		}
		if c.residual {
			var r expr.Expr = expr.Lit{Value: int32(rng.Intn(domain))}
			if rng.Intn(2) == 0 {
				r = col()
			}
			spec.Residual = []expr.Cmp{{Op: expr.CmpOp(rng.Intn(6)), L: col(), R: r}}
		}
		if c.outParts > 0 {
			spec.OutPartitioning = &storage.Partitioning{KeyCols: c.outKeyCols, Parts: c.outParts}
		}

		want := nestedLoopJoin(left, right, spec)
		rows := bagSize(want)

		for _, workers := range []int{1, 4} {
			pool := NewPool(workers)
			got := HashJoin(pool, left, right, spec)
			if !reflect.DeepEqual(tupleCounts(got), want) {
				t.Fatalf("trial %d %+v workers=%d: kernel output (%d rows) is not the reference bag (%d rows)",
					trial, c, workers, got.NumTuples(), rows)
			}
			if c.outParts > 0 {
				if p, ok := got.Partitioning(); !ok || !p.Equal(*spec.OutPartitioning) {
					t.Fatalf("trial %d: partitioned output does not carry its partitioning", trial)
				}
			}
			if s := pool.Copy.Snapshot(); s.JoinRowsExpanded != int64(rows) || s.DupSuppressed != 0 {
				t.Fatalf("trial %d: unmarked join counted %d expanded, %d suppressed for %d rows", trial, s.JoinRowsExpanded, s.DupSuppressed, rows)
			}

			marked := spec
			marked.OutSet = true
			set := HashJoin(pool, left, right, marked)
			gotSet := tupleCounts(set)
			if len(gotSet) != len(want) {
				t.Fatalf("trial %d %+v workers=%d: set-valued output has %d distinct tuples, want %d", trial, c, workers, len(gotSet), len(want))
			}
			for tup, n := range gotSet {
				if n > want[tup] {
					t.Fatalf("trial %d: set-valued output holds %v %d times, the bag only %d", trial, tup, n, want[tup])
				}
			}
			s := pool.Copy.Snapshot()
			if dropped := int64(rows - set.NumTuples()); s.DupSuppressed != dropped {
				t.Fatalf("trial %d: DupSuppressed = %d, rows missing from the output = %d", trial, s.DupSuppressed, dropped)
			}
			if width <= dupFilterWidth && rows > 4*len(want) && s.DupSuppressed == 0 {
				t.Fatalf("trial %d: %d rows over %d distinct tuples and the forced filter dropped none", trial, rows, len(want))
			}
			if width > dupFilterWidth && s.DupSuppressed != 0 {
				t.Fatalf("trial %d: output of %d columns was filtered", trial, width)
			}
		}
	}
	for _, parts := range []int{1, 16} {
		checkJoinShapes(t, parts)
		checkPayloadLayout(t, parts, rng)
		checkAntiJoin(t, parts, rng)
	}
}

// checkJoinShapes joins fixed inputs at build fan-out parts against the
// nested-loop reference: every build row under one key, so one probe row's
// matches fill several output windows and the window refills mid-run; a probe
// side that matches nothing; duplicate build rows; and a cached build used
// twice, the second time served from the build relation's attachment.
func checkJoinShapes(t *testing.T, parts int) {
	t.Helper()
	oneKey := make([][]int32, 3000)
	for i := range oneKey {
		oneKey[i] = []int32{5, int32(i)}
	}
	var dups [][]int32
	for i := 0; i < 500; i++ {
		dups = append(dups, []int32{5, 9}, []int32{4, 8})
	}
	probe := rel("l", 2, []int32{1, 5}, []int32{2, 5}, []int32{3, 6}, []int32{4, 4})
	spec := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, Partitions: parts, OutName: "out",
		Projs: []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}}}
	cached := spec
	cached.CacheBuild = true
	for _, c := range []struct {
		name        string
		left, right *storage.Relation
		spec        JoinSpec
		calls       int
	}{
		{"one key", probe, rel("r", 2, oneKey...), spec, 1},
		{"no match", rel("l", 2, []int32{1, 6}, []int32{2, 7}), rel("r", 2, oneKey...), spec, 1},
		{"duplicate build rows", probe, rel("r", 2, dups...), spec, 1},
		{"cached twice", probe, rel("r", 2, append(dups, oneKey...)...), cached, 2},
	} {
		want := nestedLoopJoin(c.left, c.right, c.spec)
		pool := NewPool(4)
		for call := 1; call <= c.calls; call++ {
			got := HashJoin(pool, c.left, c.right, c.spec)
			if !reflect.DeepEqual(tupleCounts(got), want) {
				t.Fatalf("parts %d, %s, call %d: %d rows, the reference %d", parts, c.name, call, got.NumTuples(), bagSize(want))
			}
		}
		if hits := pool.Copy.CachedBuildHits.Load(); hits != int64(c.calls-1) {
			t.Fatalf("parts %d, %s: %d cached-build hits over %d calls", parts, c.name, hits, c.calls)
		}
	}
}

// checkPayloadLayout joins at build fan-out parts the shapes whose columns
// the build table does not store — it keeps only the non-key columns, and the
// join reads a build key column from the probe row — against the nested-loop
// reference: projections (plain and computed) reading build key columns with
// either side building; a residual on a build key column; an all-key build of
// duplicate rows, whose multiplicity must survive with no payload to carry
// it; and 1–5 keys interleaved with non-key columns on the build side, its
// first five columns projected.
func checkPayloadLayout(t *testing.T, parts int, rng *rand.Rand) {
	t.Helper()
	type payloadCase struct {
		name        string
		left, right *storage.Relation
		spec        JoinSpec
	}
	var cases []payloadCase
	left, right := randRel("l", 3, 400, 12, rng), randRel("r", 3, 400, 12, rng)
	for _, buildLeft := range []bool{true, false} {
		base := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{2}, BuildLeft: buildLeft}
		keyProjs := base
		keyProjs.Projs = []expr.Expr{expr.Col{Index: 1}, expr.Col{Index: 5}, expr.Col{Index: 0}, expr.Col{Index: 3}}
		computed := base
		computed.Projs = []expr.Expr{expr.Arith{Op: expr.Add, L: expr.Col{Index: 5}, R: expr.Col{Index: 1}}, expr.Col{Index: 4}}
		// The residual reads the build side's key column whichever side
		// builds, against a literal and against a non-key probe column.
		buildKey, probeCol := 5, 0
		if buildLeft {
			buildKey, probeCol = 1, 4
		}
		resid := base
		resid.Projs = []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}}
		resid.Residual = []expr.Cmp{
			{Op: expr.LT, L: expr.Col{Index: buildKey}, R: expr.Lit{Value: 7}},
			{Op: expr.GE, L: expr.Col{Index: buildKey}, R: expr.Col{Index: probeCol}},
		}
		what := fmt.Sprintf("buildLeft=%v", buildLeft)
		cases = append(cases,
			payloadCase{"build key columns projected, " + what, left, right, keyProjs},
			payloadCase{"computed projection of a build key column, " + what, left, right, computed},
			payloadCase{"residual on a build key column, " + what, left, right, resid})
	}
	var dups [][]int32
	for i := 0; i < 600; i++ {
		dups = append(dups, []int32{int32(i % 5), int32(i % 3)})
	}
	allKey := JoinSpec{LeftKeys: []int{1, 0}, RightKeys: []int{0, 1},
		Projs: []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 1}, expr.Col{Index: 2}, expr.Col{Index: 3}}}
	cases = append(cases, payloadCase{"all-key build of duplicate rows", randRel("l", 2, 200, 6, rng), rel("r", 2, dups...), allKey})
	for keys := 1; keys <= 5; keys++ {
		// Build side: key columns at the odd positions 1, 3, …, 2·keys−1,
		// non-key columns between and after them; the probe side holds the
		// keys in reverse order followed by one column of its own.
		ba := 2*keys + 1
		spec := JoinSpec{BuildLeft: true}
		for k := 0; k < keys; k++ {
			spec.LeftKeys = append(spec.LeftKeys, 2*k+1)
			spec.RightKeys = append(spec.RightKeys, keys-1-k)
		}
		for c := 0; c < ba && len(spec.Projs) < 5; c++ {
			spec.Projs = append(spec.Projs, expr.Col{Index: c})
		}
		spec.Projs = append(spec.Projs, expr.Col{Index: ba + keys})
		domain := []int{30, 8, 4, 3, 2}[keys-1]
		cases = append(cases, payloadCase{fmt.Sprintf("%d keys interleaved", keys),
			randRel("l", ba, 500, domain, rng), randRel("r", keys+1, 500, domain, rng), spec})
	}
	for _, c := range cases {
		c.spec.Partitions, c.spec.OutName = parts, "out"
		want := nestedLoopJoin(c.left, c.right, c.spec)
		if len(want) == 0 {
			t.Fatalf("parts %d, %s: the reference is empty; the case tests nothing", parts, c.name)
		}
		got := HashJoin(NewPool(4), c.left, c.right, c.spec)
		if !reflect.DeepEqual(tupleCounts(got), want) {
			t.Fatalf("parts %d, %s: %d rows, the reference %d", parts, c.name, got.NumTuples(), bagSize(want))
		}
	}
}

// checkAntiJoin runs AntiJoin at 1–6 key columns and build fan-out parts
// against a reference: the left rows whose keys no right row holds. Its table
// is keys-only: no right row's columns are copied into it.
func checkAntiJoin(t *testing.T, parts int, rng *rand.Rand) {
	t.Helper()
	for keys := 1; keys <= 6; keys++ {
		domain := []int{400, 20, 8, 5, 4, 3}[keys-1]
		left := randRel("l", keys+1, 800, domain, rng)
		right := randRel("r", keys+1, 300, domain, rng)
		var lk, rk []int
		var projs []expr.Expr
		for k := 0; k < keys; k++ {
			lk = append(lk, k)
			rk = append(rk, keys-k)
		}
		for c := 0; c <= keys; c++ {
			projs = append(projs, expr.Col{Index: c})
		}
		held := make(map[[6]int32]bool)
		right.ForEach(func(row []int32) {
			k := [6]int32{}
			for i, c := range rk {
				k[i] = row[c]
			}
			held[k] = true
		})
		want := make(map[[6]int32]int)
		left.ForEach(func(row []int32) {
			k := [6]int32{}
			for i, c := range lk {
				k[i] = row[c]
			}
			if !held[k] {
				tup := [6]int32{-1, -1, -1, -1, -1, -1}
				copy(tup[:], row)
				want[tup]++
			}
		})
		for p, bt := range antiJoinTable(NewPool(4), right, rk, parts).tables {
			if bt.width != 0 || len(bt.rows) != 0 {
				t.Fatalf("parts %d, %d keys: anti join table %d holds %d payload columns, %d values", parts, keys, p, bt.width, len(bt.rows))
			}
		}
		got := AntiJoin(NewPool(4), left, right, lk, rk, nil, projs, parts, "anti", nil)
		if !reflect.DeepEqual(tupleCounts(got), want) {
			t.Fatalf("parts %d, %d keys: anti join kept %d rows, the reference %d", parts, keys, got.NumTuples(), bagSize(want))
		}
		if len(want) == 0 || bagSize(want) == left.NumTuples() {
			t.Fatalf("%d keys: the reference keeps %d of %d rows; the input tests one outcome only", keys, bagSize(want), left.NumTuples())
		}
	}
}

// TestDupFilterBypassSwitchesOff forces the hit minimum above anything a
// duplicate-free output can reach: the worker must give the filter up, count
// the windows it then flushes unfiltered, and still emit every row.
func TestDupFilterBypassSwitchesOff(t *testing.T) {
	t.Cleanup(SetDupFilterTuningForTest(1, 1024))
	var lrows, rrows [][]int32
	for i := 0; i < 10000; i++ {
		lrows = append(lrows, []int32{int32(i), int32(i % 10)})
	}
	for i := 0; i < 10; i++ {
		rrows = append(rrows, []int32{int32(i), int32(i)})
	}
	pool := NewPool(1)
	out := HashJoin(pool, rel("l", 2, lrows...), rel("r", 2, rrows...), JoinSpec{
		LeftKeys: []int{1}, RightKeys: []int{0},
		Projs:   []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}},
		OutName: "o", OutSet: true,
	})
	s := pool.Copy.Snapshot()
	if out.NumTuples() != 10000 || s.DupSuppressed != 0 || s.DupFilterBypassed == 0 {
		t.Fatalf("distinct output under an unreachable hit minimum: %d rows, %d suppressed, %d bypassed windows",
			out.NumTuples(), s.DupSuppressed, s.DupFilterBypassed)
	}
	if len(pool.dupFree[0]) != 1 {
		t.Fatalf("the filter given up mid-join is not back on the free list (%d there)", len(pool.dupFree[0]))
	}
}

// TestDupFilterSharedPoolRace runs two set-valued joins — the arms of one
// UNION ALL — at once on one pool, each with its own workers borrowing from
// the same free list. Run under -race in CI.
func TestDupFilterSharedPoolRace(t *testing.T) {
	forceDupFilter(t)
	rng := rand.New(rand.NewSource(3))
	left := randRel("l", 2, 6000, 30, rng)
	right := randRel("r", 2, 6000, 30, rng)
	spec := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, Partitions: 16, OutSet: true,
		Projs: []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}}}
	want := nestedLoopJoin(left, right, spec)

	pool := NewPool(4)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		outs := make([]*storage.Relation, 2)
		for arm := range outs {
			wg.Add(1)
			go func(arm int) {
				defer wg.Done()
				s := spec
				s.OutName = fmt.Sprintf("arm%d", arm)
				if arm == 1 {
					s.OutPartitioning = &storage.Partitioning{KeyCols: []int{0}, Parts: 16}
				}
				outs[arm] = HashJoin(pool, left, right, s)
			}(arm)
		}
		wg.Wait()
		for arm, out := range outs {
			got := tupleCounts(out)
			if len(got) != len(want) {
				t.Fatalf("round %d arm %d: %d distinct tuples, want %d", round, arm, len(got), len(want))
			}
			for tup := range want {
				if got[tup] == 0 {
					t.Fatalf("round %d arm %d lost %v", round, arm, tup)
				}
			}
		}
	}
	if pool.Copy.DupSuppressed.Load() == 0 {
		t.Fatal("no arm's filter dropped anything")
	}
}

// TestSmallJoinAllocations holds a join's fixed cost to its allocation
// count: a 10-row ⋈ 10-row join fills no window, so it allocates only its
// set-up — 30 times per call with the flat build table, payload-only or
// whole-row, measured with this very function (35 with the Go-map build
// tables before it, 39 with the closure-chain output half before those).
func TestSmallJoinAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	var lrows, rrows [][]int32
	for i := 0; i < 10; i++ {
		lrows = append(lrows, []int32{int32(i), int32(i + 1)})
		rrows = append(rrows, []int32{int32(i + 1), int32(i + 2)})
	}
	l, r := rel("l", 2, lrows...), rel("r", 2, rrows...)
	pool := NewPool(1)
	spec := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, OutName: "o", OutSet: true,
		Projs: []expr.Expr{expr.Col{Index: 0}, expr.Col{Index: 3}}}
	allocs := testing.AllocsPerRun(200, func() {
		out := HashJoin(pool, l, r, spec)
		if out.NumTuples() != 10 {
			t.Fatalf("10-row chain join produced %d rows", out.NumTuples())
		}
		out.Release()
	})
	const parent = 30
	if allocs > parent {
		t.Fatalf("a 10 ⋈ 10 join allocates %.0f times per call, want ≤ %d", allocs, parent)
	}
	if n := len(pool.dupFree[0]) + len(pool.dupFree[1]); n != 0 {
		t.Fatalf("a join that never filled a window borrowed %d filters", n)
	}
}

// TestJoinWorkerSlotsKeepTheirCacheLines pins the padding of joinWorker.
func TestJoinWorkerSlotsKeepTheirCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(joinWorker{}); sz%64 != 0 {
		t.Fatalf("joinWorker is %d bytes: neighbouring workers share a cache line", sz)
	}
}

// partitionBags returns, per partition of r's carried view on part, the bag of
// its tuples, after checking that every tuple there routes to that partition.
func partitionBags(t *testing.T, r *storage.Relation, part storage.Partitioning) []map[[6]int32]int {
	t.Helper()
	v, ok := r.CarriedView(part.KeyCols, part.Parts)
	if !ok {
		t.Fatalf("output does not carry %v", part)
	}
	bags := make([]map[[6]int32]int, part.Parts)
	for p := range bags {
		bags[p] = make(map[[6]int32]int)
		for _, b := range v.Blocks(p) {
			for i := 0; i < b.Rows(); i++ {
				row := b.Row(i)
				if q := storage.PartitionOf(storage.PartitionHash(row, part.KeyCols), part.Parts); q != p {
					t.Fatalf("tuple %v sits in partition %d but routes to %d", row, p, q)
				}
				k := [6]int32{-1, -1, -1, -1, -1, -1}
				copy(k[:], row)
				bags[p][k]++
			}
		}
	}
	return bags
}

// carriedCopy returns a copy of r carrying a partitioning on keys.
func carriedCopy(pool *Pool, r *storage.Relation, keys []int, parts int) *storage.Relation {
	c := storage.NewRelation(r.Name()+"_carried", r.ColNames())
	c.AppendRelation(r)
	PartitionRelationCarried(pool, c, keys, parts)
	return c
}

// TestInPlaceFlushMatchesScatter runs random plain-column joins whose output
// partitioning copies one probe column, once with the probe side uncarried
// (the window scatter) and once carried on that column at the output's
// fan-out (the in-place flush): output arity 1–4, either build side, the
// filter forced on or not marked, four workers. Both must place the same
// tuples in the same partitions — as bags unmarked, as sets marked — and the
// in-place run must write every row in place and scatter none.
func TestInPlaceFlushMatchesScatter(t *testing.T) {
	forceDupFilter(t)
	rng := rand.New(rand.NewSource(11))
	pool := NewPool(4)
	for trial := 0; trial < 48; trial++ {
		buildLeft, marked := trial%2 == 0, trial%4 >= 2
		la, ra := 1+rng.Intn(3), 1+rng.Intn(3)
		left := randRel("l", la, 600+rng.Intn(800), 25, rng)
		right := randRel("r", ra, 600+rng.Intn(800), 25, rng)
		spec := JoinSpec{BuildLeft: buildLeft, Partitions: []int{1, 16}[rng.Intn(2)], OutName: "out", OutSet: marked}
		for k := 0; k < 1+rng.Intn(min(la, ra)); k++ {
			spec.LeftKeys = append(spec.LeftKeys, k)
			spec.RightKeys = append(spec.RightKeys, ra-1-k)
		}
		// The probe side is the one that does not build; its columns start at
		// offset la of the combined row when it is the right input.
		probeArity, probeOff := la, 0
		if buildLeft {
			probeArity, probeOff = ra, la
		}
		width := 1 + trial%4
		kin, kout := rng.Intn(probeArity), rng.Intn(width)
		for j := 0; j < width; j++ {
			c := rng.Intn(la + ra)
			if j == kout {
				c = probeOff + kin
			}
			spec.Projs = append(spec.Projs, expr.Col{Index: c})
		}
		part := storage.Partitioning{KeyCols: []int{kout}, Parts: []int{16, 64}[rng.Intn(2)]}
		spec.OutPartitioning = &part

		before := pool.Copy.Snapshot()
		ref := HashJoin(pool, left, right, spec)
		if s := pool.Copy.Snapshot().Sub(before); s.OutputInPlace != 0 {
			t.Fatalf("trial %d: uncarried probe side wrote %d rows in place", trial, s.OutputInPlace)
		}
		cl, cr := left, right
		if buildLeft {
			cr = carriedCopy(pool, right, []int{kin}, part.Parts)
		} else {
			cl = carriedCopy(pool, left, []int{kin}, part.Parts)
		}
		before = pool.Copy.Snapshot()
		got := HashJoin(pool, cl, cr, spec)
		s := pool.Copy.Snapshot().Sub(before)
		if s.OutputInPlace != int64(got.NumTuples()) || s.Scattered != 0 {
			t.Fatalf("trial %d: carried probe side wrote %d of %d rows in place and scattered %d",
				trial, s.OutputInPlace, got.NumTuples(), s.Scattered)
		}
		want, have := partitionBags(t, ref, part), partitionBags(t, got, part)
		for p := range want {
			if !marked {
				if !reflect.DeepEqual(have[p], want[p]) {
					t.Fatalf("trial %d: partition %d holds %d distinct tuples in place, %d scattered", trial, p, len(have[p]), len(want[p]))
				}
				continue
			}
			for tup := range want[p] {
				if have[p][tup] == 0 {
					t.Fatalf("trial %d: partition %d lost %v in place", trial, p, tup)
				}
			}
			if len(have[p]) != len(want[p]) {
				t.Fatalf("trial %d: partition %d holds %d distinct tuples in place, %d scattered", trial, p, len(have[p]), len(want[p]))
			}
		}
	}
}

// TestInPlaceFlushNeedsTheImage: the probe side carries the output's keyset
// only through a projection that copies the carried column to the output's
// key position at the same fan-out. A projection that moves the key column, a
// key column from the build side or another fan-out takes the scatter path.
func TestInPlaceFlushNeedsTheImage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := NewPool(4)
	left := carriedCopy(pool, randRel("l", 2, 2000, 40, rng), []int{0}, 16)
	right := randRel("r", 2, 2000, 40, rng)
	base := JoinSpec{LeftKeys: []int{1}, RightKeys: []int{0}, OutName: "out"}
	for _, c := range []struct {
		name    string
		projs   []int // columns of left ++ right
		part    storage.Partitioning
		inPlace bool
	}{
		{"image", []int{0, 3}, storage.Partitioning{KeyCols: []int{0}, Parts: 16}, true},
		{"key column moved", []int{3, 0}, storage.Partitioning{KeyCols: []int{0}, Parts: 16}, false},
		{"other probe column", []int{1, 3}, storage.Partitioning{KeyCols: []int{0}, Parts: 16}, false},
		{"build-side key", []int{0, 3}, storage.Partitioning{KeyCols: []int{1}, Parts: 16}, false},
		{"other fan-out", []int{0, 3}, storage.Partitioning{KeyCols: []int{0}, Parts: 64}, false},
	} {
		spec := base
		for _, p := range c.projs {
			spec.Projs = append(spec.Projs, expr.Col{Index: p})
		}
		spec.OutPartitioning = &c.part
		before := pool.Copy.Snapshot()
		out := HashJoin(pool, left, right, spec)
		s := pool.Copy.Snapshot().Sub(before)
		if (s.OutputInPlace > 0) != c.inPlace || out.NumTuples() == 0 {
			t.Fatalf("%s: %d of %d rows written in place, want in place %v", c.name, s.OutputInPlace, out.NumTuples(), c.inPlace)
		}
		if !c.inPlace && s.Scattered != int64(out.NumTuples()) {
			t.Fatalf("%s: scattered %d of %d rows", c.name, s.Scattered, out.NumTuples())
		}
		partitionBags(t, out, c.part)
	}
}
