package kernels

import (
	"math/rand"
	"testing"
)

func mixRef(key uint64) uint64 {
	key ^= key >> 33
	key *= 0x9E3779B97F4A7C15
	key ^= key >> 29
	return key
}

// batchSizes exercises empty batches, odd sizes, and sizes straddling the
// nominal BatchRows granule.
var batchSizes = []int{0, 1, 3, 7, 64, 255, 1023, 1024, 1025}

func randCols(r *rand.Rand, arity, n int) [][]int32 {
	cols := make([][]int32, arity)
	for c := range cols {
		cols[c] = make([]int32, n)
		for i := range cols[c] {
			cols[c][i] = int32(r.Uint32())
		}
	}
	return cols
}

func rowOf(cols [][]int32, i int) []int32 {
	row := make([]int32, len(cols))
	for c := range cols {
		row[c] = cols[c][i]
	}
	return row
}

func TestMixBatch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range batchSizes {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		dst := make([]uint64, n)
		MixBatch(keys, dst)
		for i, k := range keys {
			if dst[i] != mixRef(k) {
				t.Fatalf("n=%d i=%d: got %#x want %#x", n, i, dst[i], mixRef(k))
			}
		}
		// In-place aliasing must give the same result.
		MixBatch(keys, keys)
		for i := range keys {
			if keys[i] != dst[i] {
				t.Fatalf("n=%d i=%d: in-place mix diverged", n, i)
			}
		}
	}
}

func TestPackKeys64(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, arity := range []int{1, 2} {
		for _, n := range batchSizes {
			cols := randCols(r, arity, n)
			dst := make([]uint64, n)
			if arity == 1 {
				PackKeys1(cols[0], dst)
			} else {
				PackKeys2(cols[0], cols[1], dst)
			}
			for i := 0; i < n; i++ {
				var want uint64
				if arity == 1 {
					want = uint64(uint32(cols[0][i]))
				} else {
					want = uint64(uint32(cols[0][i]))<<32 | uint64(uint32(cols[1][i]))
				}
				if dst[i] != want {
					t.Fatalf("arity=%d n=%d i=%d: got %#x want %#x", arity, n, i, dst[i], want)
				}
			}
		}
	}
}

func TestPackKeys128(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, arity := range []int{3, 4} {
		for _, n := range batchSizes {
			cols := randCols(r, arity, n)
			hi := make([]uint64, n)
			lo := make([]uint64, n)
			if arity == 3 {
				PackKeys3(cols[0], cols[1], cols[2], hi, lo)
			} else {
				PackKeys4(cols[0], cols[1], cols[2], cols[3], hi, lo)
			}
			for i := 0; i < n; i++ {
				var wantHi, wantLo uint64
				if arity == 3 {
					wantHi = uint64(uint32(cols[0][i]))
					wantLo = uint64(uint32(cols[1][i]))<<32 | uint64(uint32(cols[2][i]))
				} else {
					wantHi = uint64(uint32(cols[0][i]))<<32 | uint64(uint32(cols[1][i]))
					wantLo = uint64(uint32(cols[2][i]))<<32 | uint64(uint32(cols[3][i]))
				}
				if hi[i] != wantHi || lo[i] != wantLo {
					t.Fatalf("arity=%d n=%d i=%d: got (%#x,%#x) want (%#x,%#x)",
						arity, n, i, hi[i], lo[i], wantHi, wantLo)
				}
			}
		}
	}
}

func holds(v int32, op int, val int32) bool {
	switch op {
	case CmpEQ:
		return v == val
	case CmpNE:
		return v != val
	case CmpLT:
		return v < val
	case CmpLE:
		return v <= val
	case CmpGT:
		return v > val
	case CmpGE:
		return v >= val
	}
	panic("bad op")
}

func TestFilterCmpAndRefine(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ops := []int{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	for _, n := range batchSizes {
		col := make([]int32, n)
		for i := range col {
			col[i] = int32(r.Intn(8)) // small domain so every op selects something
		}
		for _, op := range ops {
			val := int32(r.Intn(8))
			sel := FilterCmp(col, op, val, 100, nil)
			var want []int32
			for i, v := range col {
				if holds(v, op, val) {
					want = append(want, 100+int32(i))
				}
			}
			if len(sel) != len(want) {
				t.Fatalf("n=%d op=%d: got %d selected, want %d", n, op, len(sel), len(want))
			}
			for i := range sel {
				if sel[i] != want[i] {
					t.Fatalf("n=%d op=%d i=%d: got %d want %d", n, op, i, sel[i], want[i])
				}
			}

			// Refine an all-rows selection by the same predicate (base 0).
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			ref := RefineCmp(col, op, val, all)
			if len(ref) != len(want) {
				t.Fatalf("refine n=%d op=%d: got %d selected, want %d", n, op, len(ref), len(want))
			}
			for i := range ref {
				if ref[i] != want[i]-100 {
					t.Fatalf("refine n=%d op=%d i=%d: got %d want %d", n, op, i, ref[i], want[i]-100)
				}
			}
		}
	}
}

func TestGatherRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, arity := range []int{1, 2, 3, 4} {
		for _, n := range batchSizes {
			cols := randCols(r, arity, n)
			var sel []int32
			for i := 0; i < n; i += 2 {
				sel = append(sel, int32(i))
			}
			dst := make([]int32, len(sel)*arity)
			out := GatherRows(cols, sel, dst)
			if len(out) != len(sel)*arity {
				t.Fatalf("arity=%d n=%d: gathered %d values, want %d", arity, n, len(out), len(sel)*arity)
			}
			for j, s := range sel {
				want := rowOf(cols, int(s))
				for c := 0; c < arity; c++ {
					if out[j*arity+c] != want[c] {
						t.Fatalf("arity=%d n=%d row %d col %d: got %d want %d",
							arity, n, j, c, out[j*arity+c], want[c])
					}
				}
			}
		}
	}
}

func TestGatherSelect(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, arity := range []int{1, 2, 3, 4} {
		for _, n := range batchSizes {
			src := make([]int32, n*arity)
			for i := range src {
				src[i] = int32(r.Uint32())
			}
			var sel []int32
			for i := 0; i < n; i += 3 {
				sel = append(sel, int32(i))
			}
			dst := make([]int32, len(sel)*arity)
			out := GatherSelect(src, arity, sel, dst)
			for j, s := range sel {
				for c := 0; c < arity; c++ {
					if out[j*arity+c] != src[int(s)*arity+c] {
						t.Fatalf("arity=%d n=%d row %d col %d mismatch", arity, n, j, c)
					}
				}
			}
		}
	}
}

func partitionHashRef(row []int32) uint64 {
	h := uint64(0x9E3779B9)
	for _, v := range row {
		h = (h ^ uint64(uint32(v))) * 0x9E3779B97F4A7C15
	}
	return h
}

// PackRows64/PackRows128 are the row-major one-pass variants: over the same
// tuples they must produce exactly the keys the columnar packers do.
func TestPackRowsMatchesPackKeys(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for arity := 1; arity <= 4; arity++ {
		for _, n := range batchSizes {
			cols := randCols(r, arity, n)
			rows := make([]int32, 0, n*arity)
			for i := 0; i < n; i++ {
				rows = append(rows, rowOf(cols, i)...)
			}
			if arity <= 2 {
				want := make([]uint64, n)
				got := make([]uint64, n)
				if arity == 1 {
					PackKeys1(cols[0], want)
				} else {
					PackKeys2(cols[0], cols[1], want)
				}
				PackRows64(rows, arity, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("arity=%d n=%d: row-major key %d = %#x, columnar %#x", arity, n, i, got[i], want[i])
					}
				}
				continue
			}
			wantHi := make([]uint64, n)
			wantLo := make([]uint64, n)
			gotHi := make([]uint64, n)
			gotLo := make([]uint64, n)
			if arity == 3 {
				PackKeys3(cols[0], cols[1], cols[2], wantHi, wantLo)
			} else {
				PackKeys4(cols[0], cols[1], cols[2], cols[3], wantHi, wantLo)
			}
			PackRows128(rows, arity, gotHi, gotLo)
			for i := range wantHi {
				if gotHi[i] != wantHi[i] || gotLo[i] != wantLo[i] {
					t.Fatalf("arity=%d n=%d: row-major key %d = (%#x,%#x), columnar (%#x,%#x)",
						arity, n, i, gotHi[i], gotLo[i], wantHi[i], wantLo[i])
				}
			}
		}
	}
}

// SelectMisses and SelectHits must partition the index range exactly, offset
// every emitted index by base, and append to (not clobber) the selection
// they are handed.
func TestSelectMissesAndHits(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range batchSizes {
		hits := make([]bool, n)
		for i := range hits {
			hits[i] = r.Intn(2) == 0
		}
		const base = int32(7000)
		preload := []int32{-1, -2}
		misses := SelectMisses(hits, base, append([]int32(nil), preload...))
		hitSel := SelectHits(hits, base, append([]int32(nil), preload...))
		if misses[0] != -1 || misses[1] != -2 || hitSel[0] != -1 || hitSel[1] != -2 {
			t.Fatalf("n=%d: preloaded selection clobbered", n)
		}
		misses, hitSel = misses[2:], hitSel[2:]
		if len(misses)+len(hitSel) != n {
			t.Fatalf("n=%d: %d misses + %d hits != %d rows", n, len(misses), len(hitSel), n)
		}
		seen := make(map[int32]bool, n)
		for _, idx := range misses {
			if hits[idx-base] {
				t.Fatalf("n=%d: index %d reported as miss but hits[%d] is true", n, idx, idx-base)
			}
			seen[idx] = true
		}
		for _, idx := range hitSel {
			if !hits[idx-base] {
				t.Fatalf("n=%d: index %d reported as hit but hits[%d] is false", n, idx, idx-base)
			}
			seen[idx] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d: selections cover %d distinct indices, want %d", n, len(seen), n)
		}
	}
}

// HashRows must give every row the reference partition hash of its key
// columns, for every keyset shape, including the dedicated one-column loop.
func TestHashRowsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, arity := range []int{1, 2, 4} {
		for _, keyCols := range [][]int{{0}, {arity - 1}, allUpTo(arity)} {
			for _, n := range batchSizes {
				cols := randCols(r, arity, n)
				rows := make([]int32, 0, n*arity)
				for i := 0; i < n; i++ {
					rows = append(rows, rowOf(cols, i)...)
				}
				got := make([]uint64, n)
				HashRows(rows, arity, keyCols, got)
				key := make([]int32, len(keyCols))
				for i := range got {
					for ci, c := range keyCols {
						key[ci] = cols[c][i]
					}
					if want := partitionHashRef(key); got[i] != want {
						t.Fatalf("arity=%d keys=%v n=%d: hash of row %d = %#x, want %#x",
							arity, keyCols, n, i, got[i], want)
					}
				}
			}
		}
	}
}

func allUpTo(arity int) []int {
	out := make([]int, arity)
	for i := range out {
		out[i] = i
	}
	return out
}
