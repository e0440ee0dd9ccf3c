package exec

import (
	"math/bits"
	"slices"

	"recstep/internal/quickstep/kernels"
)

// GroupTable maps group-column values to dense group indices 0, 1, 2, … in
// first-seen order — the one grouping structure behind every aggregate and
// every join build: the HashAggregate operator, the recursive MIN/MAX merge
// and the build tables of HashJoin and AntiJoin. It is open addressing with
// linear probing over a power-of-two slot array of int32 group indices, at
// most half full. Group keys live row-major in one []int32 arena, any width
// (zero columns for a global aggregate), so a lookup compares int32s and
// allocates nothing; a one-column key, the common case, skips the column
// loop and compares keys[g] directly (lookup1). Callers keep per-group state in slices parallel to the
// group index, sized to Cap: growth doubles the slot array, re-links every
// group by re-hashing its key where it lies, and doubles the arena, so a
// table of G groups allocates O(log G) times. Inserts are not safe for
// concurrent use; Find only reads (see there).
type GroupTable struct {
	width int
	ident []int // 0..width-1: the key columns of an arena row
	keys  []int32
	slots []int32 // group index + 1; 0 = empty
	shift uint    // slot = hash >> shift
	n     int
}

// NewGroupTable returns an empty table for width-column keys.
func NewGroupTable(width int) *GroupTable {
	t := &GroupTable{width: width, ident: make([]int, width)}
	for i := range t.ident {
		t.ident[i] = i
	}
	t.resize(16)
	return t
}

// Len returns the number of groups.
func (t *GroupTable) Len() int { return t.n }

// Cap returns how many groups the table holds before its next growth.
func (t *GroupTable) Cap() int { return len(t.slots) / 2 }

// Key returns group g's key values (a view into the arena; do not modify).
func (t *GroupTable) Key(g int) []int32 {
	return t.keys[g*t.width : (g+1)*t.width : (g+1)*t.width]
}

// groupHash hashes the key columns of a row, one Mix64 per column; the
// table reads the high bits.
func groupHash(row []int32, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = kernels.Mix64(h ^ uint64(uint32(row[c])) + 0x9E3779B97F4A7C15)
	}
	return h
}

// hash1 is groupHash of a one-column key.
func hash1(v int32) uint64 { return kernels.Mix64(1 ^ uint64(uint32(v)) + 0x9E3779B97F4A7C15) }

// InsertRow finds the group whose key is row's cols values, adding it if it
// is new. It returns the group index and whether the group was created. A
// one-column key is read once, hashed as one word and compared with no
// column loop.
func (t *GroupTable) InsertRow(row []int32, cols []int) (int, bool) {
	if len(cols) == 1 {
		v := row[cols[0]]
		h := hash1(v)
		g, i := t.lookup1(v, h)
		if g >= 0 {
			return g, false
		}
		g = t.claim(h, i)
		t.keys = append(t.keys, v)
		return g, true
	}
	h := groupHash(row, cols)
	g, i := t.lookup(row, cols, h)
	if g >= 0 {
		return g, false
	}
	g = t.claim(h, i)
	for _, c := range cols {
		t.keys = append(t.keys, row[c])
	}
	return g, true
}

// claim makes a new group and links it at slot i, the empty slot that ended
// the walk of hash h, or at h's first empty slot once the table has grown.
// The caller appends the group's key.
func (t *GroupTable) claim(h uint64, i int) int {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i = t.free(h)
	}
	g := t.n
	t.n++
	t.slots[i] = int32(g + 1)
	return g
}

// Find returns the group whose key is row's cols values, or -1 when there is
// none. It only reads the table, so once the inserts are done any number of
// goroutines may call it at once: every worker probes a join's build table,
// and a cached one across joins.
func (t *GroupTable) Find(row []int32, cols []int) int {
	if len(cols) == 1 {
		v := row[cols[0]]
		g, _ := t.lookup1(v, hash1(v))
		return g
	}
	g, _ := t.lookup(row, cols, groupHash(row, cols))
	return g
}

// lookup walks hash h's probe sequence for row's cols values: it returns
// their group, or -1 and the empty slot that ends the walk.
func (t *GroupTable) lookup(row []int32, cols []int, h uint64) (int, int) {
	w, mask := t.width, len(t.slots)-1
	i := int(h >> t.shift)
probe:
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		g := int(t.slots[i] - 1)
		key := t.keys[g*w : g*w+w]
		for j, c := range cols {
			if key[j] != row[c] {
				continue probe
			}
		}
		return g, i
	}
	return -1, i
}

// lookup1 is lookup for a one-column key of value v: group g's key is
// keys[g].
func (t *GroupTable) lookup1(v int32, h uint64) (int, int) {
	mask := len(t.slots) - 1
	i := int(h >> t.shift)
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if t.keys[s-1] == v {
			return int(s - 1), i
		}
		i = (i + 1) & mask
	}
	return -1, i
}

// Insert is InsertRow for a packed key of exactly width values.
func (t *GroupTable) Insert(key []int32) (int, bool) { return t.InsertRow(key, t.ident) }

// free returns the first empty slot on hash h's probe sequence.
func (t *GroupTable) free(h uint64) int {
	mask := len(t.slots) - 1
	i := int(h >> t.shift)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize re-links every group into a fresh slot array of size slots.
func (t *GroupTable) resize(size int) {
	t.slots = make([]int32, size)
	t.shift = uint(65 - bits.Len(uint(size)))
	for g := range t.n {
		var h uint64
		if t.width == 1 {
			h = hash1(t.keys[g])
		} else {
			h = groupHash(t.Key(g), t.ident)
		}
		t.slots[t.free(h)] = int32(g + 1)
	}
	t.keys = growTo(t.keys, t.Cap()*t.width)
}

// reset empties the table and keeps its size. It clears each group's slot,
// found through the group's key (groupHash gives hash1's value for one
// column), so it costs the groups the table held, not its slot array.
func (t *GroupTable) reset() {
	for g := range t.n {
		i := int(groupHash(t.Key(g), t.ident) >> t.shift)
		for t.slots[i] != int32(g+1) {
			i = (i + 1) & (len(t.slots) - 1)
		}
		t.slots[i] = 0
	}
	t.keys, t.n = t.keys[:0], 0
}

// growTo returns s with capacity for n elements: a table's parallel slices
// grow to its Cap, so they reallocate only when it doubles.
func growTo[T any](s []T, n int) []T { return slices.Grow(s, n-len(s)) }
