package storage

import "fmt"

// Attachments. In one process a relation can keep alive the structures a
// client/server engine rebuilds per query: the set-difference index over a
// full relation R (a GSCHT tuple set that R ⊎ ∆R extends instead of
// re-seeding) and hash-join build tables over relations that do not change
// while a stratum's fixpoint runs. Both are derived data, so the relation
// guards them with the version they were derived from and never serves a
// stale one:
//
//   - Gen advances on every mutation of the contents or of the carried
//     partitioning (append, delete, adopt, carried-view promotion). Every
//     attachment dies with it — except through AppendRelationAttaching, where
//     the caller certifies the structure already covers the appended rows.
//   - Nothing else does: an attachment holds its own copy of what it derived
//     and no pointer into the relation's blocks, so coalescing and partition
//     spill, which rewrite or evict blocks without a logical change, leave it
//     current.
//
// Custody decides who may release. A structure that is only ever read —
// concurrent joins probing one cached build table — is shared through
// Attachment and must tolerate Release while readers still hold it (a heap
// structure the collector reclaims qualifies). A structure that is mutated,
// or whose memory goes back to a pool, is used through TakeAttachment only:
// while attached nobody holds it, so the relation may release it at any
// moment — when it goes stale, when the memory reclaimer wants its bytes
// mid-query, when the relation itself is released.

// Attachment is a derived structure a relation keeps alive between queries.
type Attachment interface {
	// Release frees the structure's memory. The relation calls it exactly
	// once; a caller that took or was refused custody calls it itself.
	Release()
	// Bytes is the pool-accounted memory Release gives back — what the
	// memory budget sees of the structure. A structure on the Go heap
	// reports 0: dropping it frees nothing the budget counts.
	Bytes() int64
}

// Version identifies the relation state an attachment is derived from.
type Version struct {
	Gen uint64
}

type attachment struct {
	a Attachment
	v Version
}

// Version returns the relation's current version. Read it before deriving a
// structure from a snapshot and hand it back to Attach, so a mutation that
// interleaved with the build is detected.
func (r *Relation) Version() Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Version{Gen: r.gen}
}

func (r *Relation) currentLocked(e attachment) bool {
	return e.v.Gen == r.gen
}

// Attach keeps a alive on the relation under key, replacing (and releasing)
// whatever was attached there. v is the version a was derived from. A stale v
// is refused — false is returned and the caller keeps custody.
func (r *Relation) Attach(key string, a Attachment, v Version) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := attachment{a: a, v: v}
	if !r.currentLocked(e) {
		return false
	}
	r.attachLocked(key, e)
	return true
}

func (r *Relation) attachLocked(key string, e attachment) {
	if old, ok := r.atts[key]; ok && old.a != e.a {
		old.a.Release()
	}
	if r.atts == nil {
		r.atts = make(map[string]attachment)
	}
	r.atts[key] = e
}

// lookupLocked returns the current attachment under key; a stale one is
// released on the way.
func (r *Relation) lookupLocked(key string) (Attachment, bool) {
	e, ok := r.atts[key]
	if !ok {
		return nil, false
	}
	if !r.currentLocked(e) {
		delete(r.atts, key)
		e.a.Release()
		return nil, false
	}
	return e.a, true
}

// Attachment returns the structure attached under key if it still describes
// the relation. The relation keeps custody: concurrent readers may share it.
func (r *Relation) Attachment(key string) (Attachment, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(key)
}

// TakeAttachment detaches and returns the structure under key if it still
// describes the relation. Custody moves to the caller — the form for a
// structure the caller is about to mutate: nothing (not even the memory
// reclaimer) can reach it meanwhile. Hand it back with
// AppendRelationAttaching, or Release it.
func (r *Relation) TakeAttachment(key string) (Attachment, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.lookupLocked(key)
	if ok {
		delete(r.atts, key)
	}
	return a, ok
}

// AppendRelationAttaching is AppendRelation for a caller that maintains an
// attachment incrementally: a must describe exactly the relation's contents
// at version v plus other's tuples (the resident set-difference index after
// the pass that produced other = ∆R). If the relation is still at v, a is
// attached under key at the post-append version and true is returned;
// otherwise the append still happens, but a is refused and stays with the
// caller.
func (r *Relation) AppendRelationAttaching(other *Relation, key string, a Attachment, v Version) bool {
	if other.Arity() != r.Arity() {
		panic(fmt.Sprintf("storage: arity mismatch appending %q to %q", other.name, r.name))
	}
	blocks, view := other.snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	unchanged := v.Gen == r.gen
	r.appendSnapshotLocked(blocks, view)
	if unchanged {
		r.attachLocked(key, attachment{a: a, v: Version{Gen: r.gen}})
	}
	return unchanged
}

// DropAttachments releases every attachment, current or not, and returns the
// pool bytes freed: what a relation handed out as a result sheds.
func (r *Relation) DropAttachments() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.releaseAttachmentsLocked()
}

// EvictAttachments releases the attachments that hold pool memory and returns
// the bytes freed — the first stage of eviction under memory pressure. One on
// the Go heap (Bytes 0, a cached join build) stays: dropping it gives the
// budget nothing back and only forces a rebuild.
func (r *Relation) EvictAttachments() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictAttachmentsLocked()
}

// TryEvictAttachments is EvictAttachments for the memory reclaimer's
// mid-query path, with TryLock: the reclaimer may be running under an
// allocation that already holds this relation's mutex, so blocking here would
// deadlock.
func (r *Relation) TryEvictAttachments() int64 {
	if !r.mu.TryLock() {
		return 0
	}
	defer r.mu.Unlock()
	return r.evictAttachmentsLocked()
}

func (r *Relation) evictAttachmentsLocked() int64 {
	var bytes int64
	for key, e := range r.atts {
		if b := e.a.Bytes(); b > 0 {
			bytes += b
			delete(r.atts, key)
			e.a.Release()
		}
	}
	return bytes
}

// sweepAttachmentsLocked releases the attachments gone stale since they were
// attached. Part of ReclaimRetired.
func (r *Relation) sweepAttachmentsLocked() {
	for key, e := range r.atts {
		if !r.currentLocked(e) {
			delete(r.atts, key)
			e.a.Release()
		}
	}
}

func (r *Relation) releaseAttachmentsLocked() int64 {
	var bytes int64
	for _, e := range r.atts {
		bytes += e.a.Bytes()
		e.a.Release()
	}
	r.atts = nil
	return bytes
}
