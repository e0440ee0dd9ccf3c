package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"recstep/internal/quickstep/expr"
	"recstep/internal/quickstep/storage"
)

// distinctRel draws n distinct rows of the given arity over [0, domain).
func distinctRel(name string, arity, n, domain int, rng *rand.Rand) *storage.Relation {
	r := storage.NewRelation(name, storage.NumberedColumns(arity))
	seen := make(map[[6]int32]bool)
	row := make([]int32, arity)
	for len(seen) < n {
		k := [6]int32{-1, -1, -1, -1, -1, -1}
		for c := range row {
			row[c] = int32(rng.Intn(domain))
			k[c] = row[c]
		}
		if !seen[k] {
			seen[k] = true
			r.Append(row)
		}
	}
	return r
}

// setMinus is the reference set difference: the distinct tuples of a absent
// from b, each once.
func setMinus(a, b *storage.Relation) map[[6]int32]int {
	out := tupleCounts(a)
	for k := range out {
		out[k] = 1
	}
	for k := range tupleCounts(b) {
		delete(out, k)
	}
	return out
}

// TestWideTuplesTakeTheKernelPath runs tuples of arity 5 and 6 — wider than
// the compact keys pack, so every set is the generic locked map — through
// each operator's one path and checks it against a brute-force reference:
// set difference, the fused delta step, the scatter and a join on five keys
// with a residual and a computed projection. Dedup is
// TestDedupArity5GenericPath's.
func TestWideTuplesTakeTheKernelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := NewPool(4)
	for _, arity := range []int{5, 6} {
		// A domain of 3–4 values a column: duplicates within tmp, and a good
		// share of tmp already in full.
		domain := 9 - arity
		tmp := randRel("tmp", arity, 2000, domain, rng)
		full := distinctRel("full", arity, 400, domain, rng)
		small := distinctRel("small", arity, 150, domain, rng)

		t.Run(fmt.Sprintf("arity%d/setdiff", arity), func(t *testing.T) {
			// Rδ larger and smaller than R: TPSD builds on either side.
			for _, in := range [][2]*storage.Relation{{full, small}, {small, full}} {
				rdelta, r := in[0], in[1]
				want := setMinus(rdelta, r)
				for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
					for _, parts := range []int{1, 16} {
						got := tupleCounts(SetDifferencePartitioned(pool, rdelta, r, algo, parts, "diff"))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%v parts=%d |Rδ|=%d |R|=%d: %d tuples, want %d",
								algo, parts, rdelta.NumTuples(), r.NumTuples(), len(got), len(want))
						}
					}
				}
			}
		})

		t.Run(fmt.Sprintf("arity%d/deltastep", arity), func(t *testing.T) {
			// tmp is smaller than full here, so TPSD takes its own flavour.
			tmpSmall := randRel("tmp", arity, 300, domain, rng)
			for _, in := range []*storage.Relation{tmp, tmpSmall} {
				want := setMinus(in, full)
				for _, algo := range []DiffAlgorithm{OPSD, TPSD} {
					for _, parts := range []int{1, 16} {
						got := DeltaStep(pool, in, full, algo, wtp(parts), 0, "delta")
						if c := tupleCounts(got); !reflect.DeepEqual(c, want) {
							t.Fatalf("%v parts=%d |Rt|=%d: %d tuples, want %d", algo, parts, in.NumTuples(), len(c), len(want))
						}
					}
				}
			}
		})

		t.Run(fmt.Sprintf("arity%d/partition", arity), func(t *testing.T) {
			keyCols := []int{0, arity - 1}
			view := PartitionRelation(pool, tmp, keyCols, 16)
			got := make(map[[6]int32]int)
			for p := 0; p < view.Parts(); p++ {
				for _, b := range view.Blocks(p) {
					for i := 0; i < b.Rows(); i++ {
						row := b.Row(i)
						if q := storage.PartitionOf(storage.PartitionHash(row, keyCols), 16); q != p {
							t.Fatalf("row %v in partition %d routes to %d", row, p, q)
						}
						k := [6]int32{-1, -1, -1, -1, -1, -1}
						copy(k[:], row)
						got[k]++
					}
				}
			}
			if want := tupleCounts(tmp); !reflect.DeepEqual(got, want) {
				t.Fatalf("the partitions hold %d distinct tuples, the input %d", len(got), len(want))
			}
		})

		t.Run(fmt.Sprintf("arity%d/join", arity), func(t *testing.T) {
			// Five key columns: the build table and the probe windows key on
			// strings. Output: a computed column, then three plain ones.
			spec := JoinSpec{
				LeftKeys: []int{0, 1, 2, 3, 4}, RightKeys: []int{4, 3, 2, 1, 0},
				Residual: []expr.Cmp{{Op: expr.LE, L: expr.Col{Index: arity - 1}, R: expr.Col{Index: 2*arity - 1}}},
				Projs: []expr.Expr{
					expr.Arith{Op: expr.Add, L: expr.Col{Index: 0}, R: expr.Col{Index: 2*arity - 1}},
					expr.Col{Index: 1}, expr.Col{Index: arity}, expr.Col{Index: 2*arity - 1},
				},
				OutName: "j",
			}
			want := nestedLoopJoin(tmp, full, spec)
			if len(want) == 0 {
				t.Fatal("the reference join is empty; the inputs test nothing")
			}
			for _, buildLeft := range []bool{false, true} {
				for _, parts := range []int{1, 16} {
					s := spec
					s.BuildLeft, s.Partitions = buildLeft, parts
					if got := tupleCounts(HashJoin(pool, tmp, full, s)); !reflect.DeepEqual(got, want) {
						t.Fatalf("buildLeft=%v parts=%d: %d distinct tuples, want %d", buildLeft, parts, len(got), len(want))
					}
				}
			}
		})
	}
}
