// Package kernels provides the batch-at-a-time primitives of the columnar
// execution path: key packing, hash mixing, selection-vector filtering and
// row gathering over flat int32 column slices. Each kernel is a tight loop
// with the bounds checks hoisted to a single slice reslice up front, no
// per-element function calls and no branches in the arithmetic phases, so
// the compiler can keep the loop bodies in registers (and, under
// GOAMD64=v3, vectorize the multiply-mix loops). Operators process blocks
// in fixed-size batches through these kernels instead of per-row closures —
// the CPU translation of the GPU-Datalog insight that fixpoint inner loops
// want dense column-major layouts and data-parallel kernels, applied to the
// paper's semi-naive pipeline.
//
// The package is a leaf: it depends on nothing inside the engine, so the
// hash-table (gscht), storage and exec layers can all share one definition
// of the key layouts and the bucket mix.
package kernels

// BatchRows is the number of rows operators feed through a kernel at once.
// Large enough to amortize the per-batch setup (slice reslicing, scratch
// reuse), small enough that a batch's key/selection scratch (~20 KiB) stays
// in L1/L2 alongside the column data it reads.
const BatchRows = 1024

// Mix64 redistributes the bits of a compact key across a 64-bit hash — the
// murmur-style finalizer shared by the CCK-GSCHT bucket choice. The compact
// key itself is the hash input; the xor-folds around the Fibonacci multiply
// give every key bit influence over every bucket bit.
func Mix64(key uint64) uint64 {
	key ^= key >> 33
	key *= 0x9E3779B97F4A7C15
	key ^= key >> 29
	return key
}

// MixBatch applies Mix64 to a batch of keys in place-or-apart: dst[i] =
// Mix64(keys[i]). dst and keys may alias. The loop is branch-free and
// call-free, so it vectorizes under GOAMD64=v3.
func MixBatch(keys, dst []uint64) {
	dst = dst[:len(keys)]
	for i, k := range keys {
		k ^= k >> 33
		k *= 0x9E3779B97F4A7C15
		k ^= k >> 29
		dst[i] = k
	}
}

// PackKeys1 packs an arity-1 column batch into 64-bit compact keys:
// dst[i] = uint64(uint32(c0[i])) — the gscht.PackKey64 layout for one
// attribute.
func PackKeys1(c0 []int32, dst []uint64) {
	dst = dst[:len(c0)]
	for i, v := range c0 {
		dst[i] = uint64(uint32(v))
	}
}

// PackKeys2 packs a two-column batch into 64-bit compact keys with the
// gscht.PackKey64 layout: dst[i] = c0[i]<<32 | c1[i]. The columns must have
// equal length.
func PackKeys2(c0, c1 []int32, dst []uint64) {
	c1 = c1[:len(c0)]
	dst = dst[:len(c0)]
	for i, v := range c0 {
		dst[i] = uint64(uint32(v))<<32 | uint64(uint32(c1[i]))
	}
}

// PackKeys3 packs a three-column batch into the gscht.PackKey128 layout:
// hi[i] = c0[i], lo[i] = c1[i]<<32 | c2[i].
func PackKeys3(c0, c1, c2 []int32, hi, lo []uint64) {
	c1 = c1[:len(c0)]
	c2 = c2[:len(c0)]
	hi = hi[:len(c0)]
	lo = lo[:len(c0)]
	for i, v := range c0 {
		hi[i] = uint64(uint32(v))
		lo[i] = uint64(uint32(c1[i]))<<32 | uint64(uint32(c2[i]))
	}
}

// PackKeys4 packs a four-column batch into the gscht.PackKey128 layout:
// hi[i] = c0[i]<<32 | c1[i], lo[i] = c2[i]<<32 | c3[i].
func PackKeys4(c0, c1, c2, c3 []int32, hi, lo []uint64) {
	c1 = c1[:len(c0)]
	c2 = c2[:len(c0)]
	c3 = c3[:len(c0)]
	hi = hi[:len(c0)]
	lo = lo[:len(c0)]
	for i, v := range c0 {
		hi[i] = uint64(uint32(v))<<32 | uint64(uint32(c1[i]))
		lo[i] = uint64(uint32(c2[i]))<<32 | uint64(uint32(c3[i]))
	}
}

// PackRows64 packs a row-major run of tuples (arity 1 or 2) into 64-bit
// compact keys — the one-pass variant for data scanned exactly once, where
// a column transpose would cost more than the strided reads it saves.
func PackRows64(rows []int32, arity int, dst []uint64) {
	switch arity {
	case 1:
		PackKeys1(rows, dst)
	case 2:
		n := len(rows) / 2
		dst = dst[:n]
		for i := range dst {
			dst[i] = uint64(uint32(rows[2*i]))<<32 | uint64(uint32(rows[2*i+1]))
		}
	default:
		panic("kernels: PackRows64 wants arity 1 or 2")
	}
}

// PackRows128 packs a row-major run of tuples (arity 3 or 4) into 128-bit
// compact keys with the gscht layout.
func PackRows128(rows []int32, arity int, hi, lo []uint64) {
	switch arity {
	case 3:
		n := len(rows) / 3
		hi = hi[:n]
		lo = lo[:n]
		for i := range hi {
			hi[i] = uint64(uint32(rows[3*i]))
			lo[i] = uint64(uint32(rows[3*i+1]))<<32 | uint64(uint32(rows[3*i+2]))
		}
	case 4:
		n := len(rows) / 4
		hi = hi[:n]
		lo = lo[:n]
		for i := range hi {
			hi[i] = uint64(uint32(rows[4*i]))<<32 | uint64(uint32(rows[4*i+1]))
			lo[i] = uint64(uint32(rows[4*i+2]))<<32 | uint64(uint32(rows[4*i+3]))
		}
	default:
		panic("kernels: PackRows128 wants arity 3 or 4")
	}
}

// SelectMisses appends to sel the indices (offset by base) whose hits entry
// is false — the anti-probe companion of a batched table probe.
func SelectMisses(hits []bool, base int32, sel []int32) []int32 {
	for i, h := range hits {
		if !h {
			sel = append(sel, base+int32(i))
		}
	}
	return sel
}

// SelectHits is SelectMisses for the rows a probe found.
func SelectHits(hits []bool, base int32, sel []int32) []int32 {
	for i, h := range hits {
		if h {
			sel = append(sel, base+int32(i))
		}
	}
	return sel
}

// Comparison codes for FilterCmp, mirroring expr.CmpOp's operator set
// without importing it (kernels stays a leaf package).
const (
	CmpEQ = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// FilterEq appends to sel the indices i (offset by base) where col[i] ==
// val, returning the extended selection vector. The common equality case of
// FilterCmp, kept separate so the comparison is a single branch-free
// compare in the loop.
func FilterEq(col []int32, val int32, base int32, sel []int32) []int32 {
	for i, v := range col {
		if v == val {
			sel = append(sel, base+int32(i))
		}
	}
	return sel
}

// FilterCmp appends to sel the indices (offset by base) where col[i] <op>
// val holds. op is one of the Cmp* codes.
func FilterCmp(col []int32, op int, val int32, base int32, sel []int32) []int32 {
	switch op {
	case CmpEQ:
		return FilterEq(col, val, base, sel)
	case CmpNE:
		for i, v := range col {
			if v != val {
				sel = append(sel, base+int32(i))
			}
		}
	case CmpLT:
		for i, v := range col {
			if v < val {
				sel = append(sel, base+int32(i))
			}
		}
	case CmpLE:
		for i, v := range col {
			if v <= val {
				sel = append(sel, base+int32(i))
			}
		}
	case CmpGT:
		for i, v := range col {
			if v > val {
				sel = append(sel, base+int32(i))
			}
		}
	case CmpGE:
		for i, v := range col {
			if v >= val {
				sel = append(sel, base+int32(i))
			}
		}
	default:
		panic("kernels: unknown comparison code")
	}
	return sel
}

// RefineCmp keeps only the selection-vector entries whose column value
// satisfies col[sel[i]] <op> val — the conjunctive step of a multi-predicate
// filter. The refinement is done in place; the shortened vector is returned.
func RefineCmp(col []int32, op int, val int32, sel []int32) []int32 {
	out := sel[:0]
	switch op {
	case CmpEQ:
		for _, s := range sel {
			if col[s] == val {
				out = append(out, s)
			}
		}
	case CmpNE:
		for _, s := range sel {
			if col[s] != val {
				out = append(out, s)
			}
		}
	case CmpLT:
		for _, s := range sel {
			if col[s] < val {
				out = append(out, s)
			}
		}
	case CmpLE:
		for _, s := range sel {
			if col[s] <= val {
				out = append(out, s)
			}
		}
	case CmpGT:
		for _, s := range sel {
			if col[s] > val {
				out = append(out, s)
			}
		}
	case CmpGE:
		for _, s := range sel {
			if col[s] >= val {
				out = append(out, s)
			}
		}
	default:
		panic("kernels: unknown comparison code")
	}
	return out
}

// GatherRows materializes the selected rows of a set of columns into a
// row-major buffer: for each selection entry s, the output row is
// (cols[0][s], cols[1][s], …). dst must hold len(sel)*len(cols) values; the
// written prefix is returned. Gathering column-by-column keeps each inner
// loop reading one contiguous column and writing a fixed stride.
func GatherRows(cols [][]int32, sel []int32, dst []int32) []int32 {
	w := len(cols)
	if len(sel) == 0 {
		return dst[:0]
	}
	dst = dst[: len(sel)*w : len(sel)*w]
	for k, col := range cols {
		out := dst[k:]
		for j, s := range sel {
			out[j*w] = col[s]
		}
	}
	return dst
}

// GatherSelect materializes the selected rows of a row-major source into a
// row-major buffer — the gather companion for operators that keep their
// input row-major (a block whose column slab is not worth building). dst
// must hold len(sel)*arity values; the written prefix is returned.
func GatherSelect(src []int32, arity int, sel []int32, dst []int32) []int32 {
	dst = dst[: len(sel)*arity : len(sel)*arity]
	for j, s := range sel {
		copy(dst[j*arity:(j+1)*arity], src[int(s)*arity:(int(s)+1)*arity])
	}
	return dst
}

// partitionMult is the Fibonacci multiplier of the radix-partition hash,
// mirroring storage.PartitionHash (kernels cannot import storage).
const partitionMult = 0x9E3779B97F4A7C15

// HashRows computes the radix-partition hash of a row-major run of rows:
// dst[i] matches storage.PartitionHash of row i over key columns cols, one
// multiply-mix per key column per row and no per-row call. The one-column case
// — every linear-recursive join keys on a single column — runs a dedicated
// strided loop with the seed mix folded in.
func HashRows(rows []int32, arity int, cols []int, dst []uint64) {
	n := len(rows) / arity
	dst = dst[:n]
	if len(cols) == 1 {
		c := cols[0]
		for i := range dst {
			dst[i] = (0x9E3779B9 ^ uint64(uint32(rows[i*arity+c]))) * partitionMult
		}
		return
	}
	for i := range dst {
		h := uint64(0x9E3779B9)
		r := i * arity
		for _, c := range cols {
			h = (h ^ uint64(uint32(rows[r+c]))) * partitionMult
		}
		dst[i] = h
	}
}
