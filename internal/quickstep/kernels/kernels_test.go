package kernels

import (
	"math/rand"
	"slices"
	"testing"
)

// batchSizes exercises empty batches, odd sizes, and sizes straddling the
// nominal BatchRows granule.
var batchSizes = []int{0, 1, 3, 7, 64, 255, 1023, 1024, 1025}

// randRows returns n random arity-wide tuples as a row-major run.
func randRows(r *rand.Rand, arity, n int) []int32 {
	rows := make([]int32, n*arity)
	for i := range rows {
		rows[i] = int32(r.Uint32())
	}
	return rows
}

// PackRows64 writes the gscht.PackKey64 layout: the one attribute, or the
// first attribute over the second.
func TestPackKeys64(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, arity := range []int{1, 2} {
		for _, n := range batchSizes {
			rows := randRows(r, arity, n)
			dst := make([]uint64, n)
			PackRows64(rows, arity, dst)
			for i := 0; i < n; i++ {
				row := rows[i*arity : (i+1)*arity]
				want := uint64(uint32(row[0]))
				if arity == 2 {
					want = want<<32 | uint64(uint32(row[1]))
				}
				if dst[i] != want {
					t.Fatalf("arity=%d n=%d i=%d: got %#x want %#x", arity, n, i, dst[i], want)
				}
			}
		}
	}
}

// PackRows128 writes the gscht.PackKey128 layout: hi = c0, lo = c1<<32 | c2
// at arity 3; hi = c0<<32 | c1, lo = c2<<32 | c3 at arity 4.
func TestPackKeys128(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, arity := range []int{3, 4} {
		for _, n := range batchSizes {
			rows := randRows(r, arity, n)
			hi := make([]uint64, n)
			lo := make([]uint64, n)
			PackRows128(rows, arity, hi, lo)
			for i := 0; i < n; i++ {
				row := rows[i*arity : (i+1)*arity]
				var wantHi, wantLo uint64
				if arity == 3 {
					wantHi = uint64(uint32(row[0]))
					wantLo = uint64(uint32(row[1]))<<32 | uint64(uint32(row[2]))
				} else {
					wantHi = uint64(uint32(row[0]))<<32 | uint64(uint32(row[1]))
					wantLo = uint64(uint32(row[2]))<<32 | uint64(uint32(row[3]))
				}
				if hi[i] != wantHi || lo[i] != wantLo {
					t.Fatalf("arity=%d n=%d i=%d: got (%#x,%#x) want (%#x,%#x)",
						arity, n, i, hi[i], lo[i], wantHi, wantLo)
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

// SelectMisses must emit exactly the indices whose hits entry is false, in
// order, offset by base, appended to (not clobbering) the selection it is
// handed.
func TestSelectMisses(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range batchSizes {
		hits := make([]bool, n)
		var want []int32
		const base = int32(7000)
		for i := range hits {
			hits[i] = r.Intn(2) == 0
			if !hits[i] {
				want = append(want, base+int32(i))
			}
		}
		misses := SelectMisses(hits, base, []int32{-1, -2})
		if misses[0] != -1 || misses[1] != -2 {
			t.Fatalf("n=%d: preloaded selection clobbered", n)
		}
		if !slices.Equal(misses[2:], want) {
			t.Fatalf("n=%d: misses %v, want %v", n, misses[2:], want)
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
				rows := randRows(r, arity, n)
				got := make([]uint64, n)
				HashRows(rows, arity, keyCols, got)
				key := make([]int32, len(keyCols))
				for i := range got {
					for ci, c := range keyCols {
						key[ci] = rows[i*arity+c]
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
