// Package kernels provides the batch-at-a-time primitives of the window
// execution path: key packing, hash mixing, selection vectors and row
// gathering over row-major int32 runs — the layout every block stores. Each
// kernel is a tight loop with the bounds checks hoisted to a single slice
// reslice up front, no per-element function calls and no branches in the
// arithmetic phases, so the compiler can keep the loop bodies in registers
// (and, under GOAMD64=v3, vectorize the multiply-mix loops). Operators
// process blocks in fixed-size windows through these kernels instead of
// per-row closures — the CPU translation of the GPU-Datalog insight that
// fixpoint inner loops want data-parallel kernels over one dense copy of
// each relation, applied to the paper's semi-naive pipeline.
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

// PackRows64 packs a row-major run of tuples (arity 1 or 2) into the
// gscht.PackKey64 layout: dst[i] = row[0] for one attribute, row[0]<<32 |
// row[1] for two.
func PackRows64(rows []int32, arity int, dst []uint64) {
	switch arity {
	case 1:
		dst = dst[:len(rows)]
		for i, v := range rows {
			dst[i] = uint64(uint32(v))
		}
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

// PackRows128 packs a row-major run of tuples (arity 3 or 4) into the
// gscht.PackKey128 layout: hi = row[0], lo = row[1]<<32 | row[2] for three
// attributes; hi = row[0]<<32 | row[1], lo = row[2]<<32 | row[3] for four.
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

// GatherSelect materializes the selected rows of a row-major source into a
// row-major buffer. dst must hold len(sel)*arity values; the written prefix
// is returned.
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
