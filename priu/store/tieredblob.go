package store

import (
	"bytes"
	"fmt"
	"io"
	"time"
)

// Blob-tier wiring for Tiered: the local spill directory acts as a
// read-through/write-behind cache of a shared BlobStore. Every published
// spill lands in the blob tier as ONE spliced v2 object (blobPush folds the
// local base + delta chain on the way up — remote replicas never need our
// segment files), cold misses with no local file fall through to the blob
// tier (restore of a nil entry), the boot scan reconciles the local cache
// against the shared tier newest-wins (boot), and explicit deletes
// tombstone the blob key — durably, via the persisted tombstone set
// (tombstone.go) — until its removal sticks, so an acknowledged deletion can
// never resurrect through the read-through path, even across a crash and
// reboot. ReleaseUnowned is
// the fleet handoff: it drains sessions this node no longer owns to the
// blob tier and forgets them locally, for the new owner to adopt lazily.

// WithBlobStore slots a shared blob tier under the spill directory. Spill
// chains are pushed to it after every local publish, sessions with no local
// copy restore from it, and the disk-budget evictor may demote blob-backed
// local chains (a cache drop, not a session loss). A failed push, and a
// tombstoned session's blob delete that did not stick, are retried by the
// GC sweep's blob pass (so configure WithSpillGC) and at boot; short of
// those, only the session's next publish pushes its chain again.
func WithBlobStore(bs BlobStore) TieredOption {
	return func(t *Tiered) { t.blob = bs }
}

// isRemote reports whether the blob tier holds the session's current spill
// state (per this node's index).
func (t *Tiered) isRemote(id string) bool {
	t.mu.Lock()
	e := t.index[id]
	remote := e != nil && e.remote
	t.mu.Unlock()
	return remote
}

// blobPush uploads a session's published local spill state to the blob tier
// as one spliced v2 object. At most one push per session is in flight
// (concurrent callers skip — whoever owns the gate marks the entry remote on
// success), and the entry is only marked remote if its chain tip is still
// the one that was read, so a push racing a newer spill can never certify
// stale blob contents as current. Failures are counted and left for the GC
// sweep's heal pass.
func (t *Tiered) blobPush(id string) error {
	if t.blob == nil {
		return nil
	}
	t.mu.Lock()
	e := t.index[id]
	if e == nil || !e.local || e.remote {
		t.mu.Unlock()
		return nil
	}
	if t.blobPutting[id] {
		t.mu.Unlock()
		return fmt.Errorf("store: blob push of %s already in flight", id)
	}
	t.blobPutting[id] = true
	base := e.key
	segs := append([]deltaSeg(nil), e.deltas...)
	tipUpdates, tipLen := e.updates, e.logLen
	t.mu.Unlock()

	putStart := time.Now()
	err := t.faultAt("blob.put")
	if err == nil {
		if len(segs) == 0 {
			var rc io.ReadCloser
			if rc, _, err = t.local.Get(base); err == nil {
				err = t.blob.Put(id, rc)
				rc.Close()
			}
		} else {
			// Fold the chain into one object on the way up: remote readers
			// get a self-contained v2 file, never our segment layout.
			var buf bytes.Buffer
			if err = t.spliceChain(&buf, id, base, segs); err == nil {
				err = t.blob.Put(id, &buf)
			}
		}
	}
	t.mu.Lock()
	delete(t.blobPutting, id)
	if err == nil {
		if cur := t.index[id]; cur != nil && cur.local &&
			cur.updates == tipUpdates && cur.logLen == tipLen {
			// Same logical tip → the object we wrote is current, even if
			// the file layout changed meanwhile.
			cur.remote = true
		}
		// A Delete that raced this push left a tombstone: the object we just
		// wrote must go; the GC retry loop owns making that stick.
		_, tomb := t.tombstones[id]
		t.mu.Unlock()
		t.blobPuts.Add(1)
		if m := t.metrics; m != nil {
			observeSince(m.BlobPutSeconds, putStart)
		}
		if tomb {
			t.blobRemove(id)
		}
		return nil
	}
	t.mu.Unlock()
	t.blobErrors.Add(1)
	return fmt.Errorf("store: pushing %s to blob tier: %w", id, err)
}

// blobRemove deletes a session's blob object. The caller has normally
// tombstoned the id already (dropEntryFiles), so a failed or skipped delete
// stays pending durably: the read-through path refuses to adopt the key and
// the GC sweep retries the delete until it sticks — an acknowledged DELETE
// never resurrects from the shared tier, even after a crash. While a push
// for the same key is in flight the delete is deferred to the pusher's
// post-put tombstone check (and the GC).
func (t *Tiered) blobRemove(id string) {
	if t.blob == nil {
		return
	}
	t.mu.Lock()
	putting := t.blobPutting[id]
	t.mu.Unlock()
	if putting {
		return
	}
	err := t.faultAt("blob.delete")
	if err == nil {
		err = t.blob.Delete(id)
	}
	if err != nil && err != ErrBlobNotFound {
		t.blobErrors.Add(1)
		return // tombstone stays pending; the GC sweep retries
	}
	t.blobDeletes.Add(1)
	t.tombstoneResolve(id, tombBlob)
}

// blobMaintain is the GC sweep's blob pass: retry the blob side of pending
// tombstones until the deletes stick, and re-push local spill chains whose
// upload previously failed.
func (t *Tiered) blobMaintain() {
	if t.blob == nil {
		return
	}
	t.mu.Lock()
	var dels []string
	for id, ts := range t.tombstones {
		if !ts.blobClean && !t.blobPutting[id] {
			dels = append(dels, id)
		}
	}
	var heal []string
	for id, e := range t.index {
		if e.local && !e.remote && t.tombstones[id] == nil {
			heal = append(heal, id)
		}
	}
	t.mu.Unlock()
	for _, id := range dels {
		t.blobRemove(id)
	}
	for _, id := range heal {
		_ = t.blobPush(id)
	}
}

// ReleaseUnowned is the fleet handoff: for every session the provided
// ownership predicate disclaims, make sure the blob tier holds its current
// state, then forget it locally — resident copy, local cache chain, index
// entry and tenant accounting all released. The new owner adopts the session
// lazily from the blob tier on its first touch (the read-through path).
// Sessions whose state cannot be certified in the blob tier (push failures,
// unspillable families) are kept — a handoff never trades a reachable
// session for a maybe. Returns how many sessions were released and the first
// error encountered.
func (t *Tiered) ReleaseUnowned(owns func(id string) bool) (int, error) {
	if t.blob == nil {
		return 0, fmt.Errorf("store: ReleaseUnowned needs a blob tier")
	}
	released := 0
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Pass 1: resident sessions. Spill (certifying the blob copy), then drop
	// the resident copy under the same discipline the evictor uses.
	t.mem.Range(func(sess *Session) bool {
		if owns(sess.ID) {
			return true
		}
		for attempt := 0; attempt < 3; attempt++ {
			sess.Mu.Lock()
			if sess.gone.Load() {
				sess.Mu.Unlock()
				return true // an evictor or deleter won
			}
			// The spill and the direct push below run under the lock on
			// purpose: the handoff must certify the blob copy before
			// releasing the session.
			if _, err := t.spillLocked(sess); err != nil {
				sess.Mu.Unlock()
				record(fmt.Errorf("store: handoff of %s: %w", sess.ID, err))
				return true
			}
			if !t.isRemote(sess.ID) {
				// The spill's push failed or is racing; one direct attempt.
				if err := t.blobPush(sess.ID); err != nil || !t.isRemote(sess.ID) {
					sess.Mu.Unlock()
					record(fmt.Errorf("store: handoff of %s: blob tier does not hold it", sess.ID))
					return true
				}
			}
			if sess.Dirty() {
				sess.Mu.Unlock()
				continue // mutated between spill and certification; re-spill
			}
			sess.gone.Store(true)
			sess.Mu.Unlock()
			sh := &t.mem.shards[ShardIndex(sess.ID)]
			sh.mu.Lock()
			if _, still := sh.sessions[sess.ID]; !still {
				sh.mu.Unlock()
				return true
			}
			delete(sh.sessions, sess.ID)
			sh.mu.Unlock()
			t.mem.curBytes.Add(-sess.footprint)
			t.mem.uncharge(sess, removalDrop, false)
			t.forgetLocal(sess.ID)
			released++
			return true
		}
		record(fmt.Errorf("store: handoff of %s: session kept mutating", sess.ID))
		return true
	})
	// Pass 2: cold index entries (local cache chains and remote markers for
	// sessions this node no longer owns).
	t.mu.Lock()
	var cold []string
	for id := range t.index {
		if owns(id) || t.mem.has(id) {
			continue
		}
		if _, restoring := t.flights[id]; restoring {
			continue
		}
		cold = append(cold, id)
	}
	t.mu.Unlock()
	for _, id := range cold {
		if !t.isRemote(id) {
			if err := t.blobPush(id); err != nil || !t.isRemote(id) {
				record(fmt.Errorf("store: handoff of %s: blob tier does not hold it", id))
				continue
			}
		}
		if t.forgetLocal(id) {
			released++
		}
	}
	return released, firstErr
}

// forgetLocal removes a session's index entry, local cache chain and tenant
// accounting without touching its blob object — the handoff's "it lives in
// the shared tier now" bookkeeping. No tombstone is written: the session
// still exists, it just lives elsewhere. Reports whether an entry was
// removed.
func (t *Tiered) forgetLocal(id string) bool {
	t.mu.Lock()
	if _, restoring := t.flights[id]; restoring {
		t.mu.Unlock()
		return false // a reader is mid-restore; next ring change retries
	}
	e, ok := t.dropEntryLocked(id)
	t.mu.Unlock()
	if !ok {
		return false
	}
	for _, kb := range e.localKeys() {
		t.removeSpillFile(kb.key, kb.bytes, "release.unlink")
	}
	ten := TenantOf(id)
	t.mem.adjustSpill(ten, -e.spillCharged)
	t.mem.adjustOwned(ten, -1, -e.charged)
	return true
}
