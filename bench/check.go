package main

import (
	"fmt"
	"sort"

	"recstep/internal/baselines/native"
	"recstep/internal/quickstep/storage"
)

// digest identifies a relation's contents whatever the order of its tuples:
// the tuple count and the wrapping sum of a 64-bit mix of every tuple.
type digest struct {
	count int
	sum   uint64
}

func digestOf(rel *storage.Relation) digest {
	var d digest
	rel.ForEach(func(t []int32) {
		h := uint64(len(t))
		for _, v := range t {
			// splitmix64 finalizer over the running hash and the next value
			h = (h ^ uint64(uint32(v))) + 0x9E3779B97F4A7C15
			h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
			h = (h ^ h>>27) * 0x94D049BB133111EB
			h ^= h >> 31
		}
		d.count++
		d.sum += h
	})
	return d
}

// reference holds, per derived predicate, the digest the engine's output must
// have. It is computed by internal/baselines/native, which shares no
// evaluation code with the engine under test.
type reference map[string]digest

// verify compares every referenced predicate of an engine result with its
// reference digest.
func (ref reference) verify(got map[string]*storage.Relation) error {
	names := make([]string, 0, len(ref))
	for name := range ref {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel, ok := got[name]
		if !ok {
			return fmt.Errorf("result has no relation %q", name)
		}
		if d := digestOf(rel); d != ref[name] {
			return fmt.Errorf("%s: got %d tuples (fingerprint %016x), reference has %d (%016x)",
				name, d.count, d.sum, ref[name].count, ref[name].sum)
		}
	}
	return nil
}

func refTC(edbs map[string]*storage.Relation, workers int) reference {
	return reference{"tc": digestOf(native.TC(edbs["arc"], workers))}
}

func refCSDA(edbs map[string]*storage.Relation, workers int) reference {
	return reference{"null": digestOf(native.CSDA(edbs, workers))}
}

func refCSPA(edbs map[string]*storage.Relation, workers int) reference {
	r := native.CSPA(edbs, workers)
	return reference{
		"valueFlow":   digestOf(r.ValueFlow),
		"memoryAlias": digestOf(r.MemoryAlias),
		"valueAlias":  digestOf(r.ValueAlias),
	}
}

// refCC derives all three predicates of the CC program from the native
// labelling: cc3 and cc2 both hold (vertex, component label), cc the distinct
// labels.
func refCC(edbs map[string]*storage.Relation, workers int) reference {
	labels := native.CC(edbs["arc"], workers)
	distinct := storage.NewRelation("cc", storage.NumberedColumns(1))
	seen := make(map[int32]bool)
	labels.ForEach(func(t []int32) {
		if !seen[t[1]] {
			seen[t[1]] = true
			distinct.Append([]int32{t[1]})
		}
	})
	d := digestOf(labels)
	return reference{"cc3": d, "cc2": d, "cc": digestOf(distinct)}
}

// ops counts a workload's operations. An operation is one Run or one
// ApplyDelta; it fails if it returns an error, if its output differs from
// the reference, or if the teardown after it reports leaked pool bytes.
type ops struct {
	attempted int
	failed    int
	firstErr  error
}

// record counts one operation and its outcome.
func (o *ops) record(err error) {
	o.attempted++
	o.fail(err)
}

// fail marks an already counted operation as failed when err is not nil: the
// checks that follow an operation (resident state against the reference,
// leaked bytes at teardown) report through it. There are never more failures
// than operations.
func (o *ops) fail(err error) {
	if err == nil || o.failed == o.attempted {
		return
	}
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// leakErr is the teardown check: a closed database must hold no pool bytes.
func leakErr(liveBytes int64) error {
	if liveBytes != 0 {
		return fmt.Errorf("teardown leaked %d pool bytes", liveBytes)
	}
	return nil
}
