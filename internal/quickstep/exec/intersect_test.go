package exec

import (
	"sync"
	"testing"

	"recstep/internal/quickstep/storage"
)

func TestMembershipContains(t *testing.T) {
	r := rel("r", 2, []int32{1, 2}, []int32{3, 4}, []int32{-5, 6})
	m := BuildMembership(NewPool(4), r)
	defer m.Release()

	for _, row := range [][]int32{{1, 2}, {3, 4}, {-5, 6}} {
		if !m.Contains(row) {
			t.Fatalf("Contains(%v) = false for a present tuple", row)
		}
	}
	for _, row := range [][]int32{{2, 1}, {1, 4}, {0, 0}} {
		if m.Contains(row) {
			t.Fatalf("Contains(%v) = true for an absent tuple", row)
		}
	}
}

func TestMembershipEmptyRelation(t *testing.T) {
	m := BuildMembership(NewPool(2), rel("empty", 2))
	defer m.Release()
	if m.Contains([]int32{1, 2}) {
		t.Fatal("empty membership claims containment")
	}
}

// The index captures the relation's contents at build time: later appends
// are not visible (ApplyDelta relies on this to classify the requested rows
// against the pre-update state).
func TestMembershipSnapshotSemantics(t *testing.T) {
	r := rel("r", 2, []int32{1, 2})
	m := BuildMembership(NewPool(2), r)
	defer m.Release()
	r.Append([]int32{7, 8})
	if m.Contains([]int32{7, 8}) {
		t.Fatal("membership sees a tuple appended after the build")
	}
	if !m.Contains([]int32{1, 2}) {
		t.Fatal("membership lost a tuple present at build time")
	}
}

// Concurrent probes against one shared index, under -race: Contains keeps a
// per-caller arena, so a single build serves any number of readers at once.
func TestMembershipConcurrentProbes(t *testing.T) {
	base := storage.NewRelation("base", storage.NumberedColumns(2))
	for i := int32(0); i < 4096; i++ {
		base.Append([]int32{i, i * 3})
	}
	pool := NewPool(4)
	m := BuildMembership(pool, base)
	defer m.Release()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int32(0); i < 2048; i++ {
				if !m.Contains([]int32{i, i * 3}) {
					t.Errorf("goroutine %d: lost tuple %d", g, i)
					return
				}
				if m.Contains([]int32{i, i*3 + 1}) {
					t.Errorf("goroutine %d: phantom tuple %d", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
