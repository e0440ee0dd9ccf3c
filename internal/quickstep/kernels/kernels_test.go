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
