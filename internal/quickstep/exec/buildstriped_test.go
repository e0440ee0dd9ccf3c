package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"recstep/internal/quickstep/storage"
)

// buildContents renders build tables as each group's key → the group's
// payload rows, sorted (for an all-key build, the group's row count). It
// fails when a key sits in two tables, or, with more than one table, in a
// table other than its radix partition's.
func buildContents(t *testing.T, tables []*buildTable) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for p, bt := range tables {
		for g := 0; g < bt.groups.Len(); g++ {
			key := bt.groups.Key(g)
			k := fmt.Sprint(key)
			if _, dup := out[k]; dup {
				t.Fatalf("key %s in two tables", k)
			}
			if len(tables) > 1 {
				if want := storage.PartitionOf(storage.PartitionHash(key, storage.AllCols(len(key))), len(tables)); want != p {
					t.Fatalf("key %s in table %d, its partition is %d", k, p, want)
				}
			}
			lo, hi := int(bt.start[g]), int(bt.start[g+1])
			if bt.width == 0 {
				out[k] = []string{fmt.Sprint(hi - lo)}
				continue
			}
			var rows []string
			for i := lo; i < hi; i++ {
				rows = append(rows, fmt.Sprint(bt.rows[i*bt.width:(i+1)*bt.width]))
			}
			slices.Sort(rows)
			out[k] = rows
		}
	}
	return out
}

// The striped build (a relation that carries no partitioning on the join
// keys, more than one partition) holds the same groups, with the same
// payload multisets, as the serial build over the same blocks: across worker
// and partition counts, key widths 1–3 and all-key builds, and an empty
// relation, a single block, many uneven blocks and one hot key.
func TestStripedBuildMatchesSerial(t *testing.T) {
	shapes := map[string]struct {
		chunks []int // rows per AppendRows call: each starts a block
		hot    bool  // nine rows in ten share one key
	}{
		"empty":       {},
		"one block":   {chunks: []int{500}},
		"many":        {chunks: []int{1, 700, 3000, 2*storage.DefaultBlockRows + 9, 33}},
		"one hot key": {chunks: []int{4000, 4000, 1500}, hot: true},
	}
	keysets := []struct {
		arity int
		keys  []int
	}{
		{4, []int{0}},
		{4, []int{2, 0}},
		{4, []int{1, 3, 0}},
		{2, []int{1, 0}}, // all-key: payload width 0
		{1, []int{0}},
	}
	for name, sh := range shapes {
		for _, ks := range keysets {
			rng := rand.New(rand.NewSource(int64(len(name) + 10*ks.arity + len(ks.keys))))
			r := storage.NewRelation("b", storage.NumberedColumns(ks.arity))
			for _, n := range sh.chunks {
				rows := make([]int32, n*ks.arity)
				for i := range rows {
					rows[i] = int32(rng.Intn(60))
					if sh.hot && i%ks.arity < 3 && rng.Intn(10) > 0 {
						rows[i] = 7
					}
				}
				r.AppendRows(rows)
			}
			payload := payloadCols(ks.arity, ks.keys)
			want := buildContents(t, []*buildTable{buildHashBlocks(r.Blocks(), ks.arity, ks.keys, payload)})
			for _, workers := range []int{2, 4} {
				for _, parts := range []int{2, 64, 256} {
					pool := NewPool(workers)
					jt := buildJoinTable(pool, r, ks.keys, payload, parts)
					if jt.parts != parts || len(jt.tables) != parts {
						t.Fatalf("%s keys %v W=%d: %d tables for %d partitions", name, ks.keys, workers, len(jt.tables), parts)
					}
					got := buildContents(t, jt.tables)
					if !mapsEqual(got, want) {
						t.Errorf("%s keys %v arity %d W=%d parts=%d: %d groups, serial build %d, or payloads differ",
							name, ks.keys, ks.arity, workers, parts, len(got), len(want))
					}
					if s := pool.Copy.Snapshot(); s.BuildScatters != 1 || s.BuildDetail[BuildKey("b", ks.keys)].FromBlocks != 1 {
						t.Errorf("%s keys %v: build counted as %+v", name, ks.keys, s.BuildDetail)
					}
				}
			}
		}
	}
}

func mapsEqual(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !slices.Equal(v, b[k]) {
			return false
		}
	}
	return true
}
