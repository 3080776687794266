package store

import (
	"errors"
	"strings"
	"time"
)

// The spill-tier lifecycle manager: the write-behind worker that snapshots
// dirty sessions eagerly (so evictions drop resident copies instead of
// paying file IO under the victim's lock), the disk-budget evictor that
// keeps the spill directory under -spill-max-bytes, and the age-based GC
// that sweeps orphaned leftovers and retries the blob tier's failed pushes
// and deletes. All state lives on Tiered; this file owns the background
// machinery: a worker draining the dirty set (spillPending) and the GC loop
// (gcOnce). A store opened without the loops runs the same two steps when
// its caller drives them.

const (
	// tmpFloor is the minimum age before the GC may touch a temp file: temps
	// younger than this may be an in-flight spill.
	tmpFloor = time.Minute
	// The spill tier's one configuration: a cut folds a chain of
	// defaultCompactAfter deltas, and the GC sweeps every gcEvery, removing
	// orphans older than defaultGCAge.
	defaultCompactAfter = 8
	defaultGCAge        = time.Hour
	gcEvery             = time.Minute
)

// enqueueSpill adds the session to the dirty set and wakes the worker. Every
// session is armed with it before it is published, so each mutation
// (MarkDirtyLocked) schedules an eager background snapshot. It never blocks
// (it is called under Session.Mu) and never drops a request. The set is
// keyed by record, not ID — an evicted incarnation still waiting must not
// stand in for the restored one that replaced it — and a session already
// waiting merges for free: the worker cuts whatever it holds when reached.
// A publish that lost the chain race re-adds its session through here too.
func (t *Tiered) enqueueSpill(sess *Session) {
	if !t.spillOnEvict {
		return
	}
	t.qmu.Lock()
	t.dirty[sess] = true
	t.qmu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default: // a pass is already owed
	}
}

// startLifecycle launches the write-behind worker and the GC loop, which
// sweeps every gcInterval.
func (t *Tiered) startLifecycle(gcInterval time.Duration) {
	t.qmu.Lock()
	t.stop = make(chan struct{})
	t.wg.Add(2)
	go t.spillLoop(t.stop)
	go t.gcLoop(t.stop, gcInterval)
	t.qmu.Unlock()
}

// stopLifecycle stops both loops and waits for them. The worker makes a last
// pass first — the drain ordering: everything enqueued before the stop is on
// disk before Close snapshots stragglers. Idempotent.
func (t *Tiered) stopLifecycle() {
	t.qmu.Lock()
	if t.stop != nil {
		close(t.stop)
		t.stop = nil
	}
	t.qmu.Unlock()
	t.wg.Wait()
}

// spillLoop runs one write-behind pass per wake-up, and a last one at stop.
func (t *Tiered) spillLoop(stop <-chan struct{}) {
	defer t.wg.Done()
	for {
		select {
		case <-t.wake:
			t.spillPending()
		case <-stop:
			t.spillPending()
			return
		}
	}
}

// spillPending is one write-behind pass: it swaps the dirty set out and
// spills each session in it. Each is CUT — counters and the O(batch)
// deletion-log copy — under its own lock, but serialized and published
// (temp write, fsync, rename, blob push) after the lock is released, so a
// mutation-heavy session never blocks on snapshot serialization, disk or
// network IO. The generation captured at the cut makes the split safe: a
// publish that loses the chain race to a newer synchronous spill is
// discarded by the guard and the session re-added, so the background copy
// converges on the latest state without ever masking it. Sessions that left
// the store are skipped via the gone flag; a clean session whose chain is
// current is a no-op inside cutLocked, and a chain whose blob push failed
// is left to the GC sweep's blob pass.
func (t *Tiered) spillPending() {
	t.qmu.Lock()
	batch := t.dirty
	if len(batch) == 0 {
		t.qmu.Unlock()
		return
	}
	t.dirty = make(map[*Session]bool)
	t.spilling += len(batch)
	t.qmu.Unlock()
	for sess := range batch {
		var cut *spillCut
		var err error
		sess.Mu.Lock()
		if !sess.gone.Load() {
			cut, err = t.cutLocked(sess)
		}
		sess.Mu.Unlock()
		if err != nil || cut == nil {
			continue
		}
		wrote, perr := t.publishCut(cut)
		if perr == nil && wrote {
			t.writeBehind.Add(1)
		} else if errors.Is(perr, errStaleSpill) {
			sess.Mu.Lock()
			if !sess.gone.Load() && sess.Dirty() {
				t.enqueueSpill(sess)
			}
			sess.Mu.Unlock()
		}
	}
	t.qmu.Lock()
	t.spilling -= len(batch)
	t.qmu.Unlock()
	t.drained.Broadcast()
}

// Flush blocks until the dirty set is empty and no pass is in flight — a
// quiescence point for tests and for callers that want eager durability
// without closing the store. With no worker running, Flush runs the passes.
func (t *Tiered) Flush() {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	for len(t.dirty) > 0 || t.spilling > 0 {
		if t.stop == nil && len(t.dirty) > 0 {
			t.qmu.Unlock()
			t.spillPending()
			t.qmu.Lock()
		} else {
			t.drained.Wait()
		}
	}
}

// reserveDiskLocked admits size new spill-file bytes under the disk budget,
// evicting least-recently-used spill chains (never keepID's) until the new
// file fits. It reports false — charging nothing — when the directory
// cannot be shrunk enough; the second result distinguishes WHY: true means
// every remaining candidate is pinned (clean residents' only copies,
// in-flight restores or Deletes) — transient pressure the caller can
// surface as a typed 503 — false means an unlink genuinely failed or only
// unreclaimable orphans remain. Callers hold t.mu.
func (t *Tiered) reserveDiskLocked(size int64, keepID string) (bool, bool) {
	if t.maxDiskBytes > 0 {
		for t.diskBytes+t.orphanBytes+size > t.maxDiskBytes {
			ok, pinned := t.evictSpillFileLocked(keepID)
			if !ok {
				return false, pinned
			}
		}
	}
	t.diskBytes += size
	return true, false
}

// evictSpillFileLocked removes one local spill chain (base + delta
// segments) to reclaim disk, in preference order of what the drop costs:
//
//   - demotions first: chains whose entry is blob-backed are pure cache
//     drops — the entry survives remote-only, nothing is lost;
//   - then warm backups of DIRTY resident sessions: their rewrite is already
//     owed, so dropping the stale chain costs nothing;
//   - then disk-only chains in LRU order, whose removal loses the session
//     and is charged to its tenant as a disk eviction.
//
// Clean residents' chains WITHOUT blob backing are pinned — a concurrent
// eviction may at any moment decide "clean and spilled → drop the resident
// copy" on the strength of that chain, so reclaiming it could strand the
// session in zero tiers (with blob backing the entry survives the demotion,
// so the same decision stays safe). Ids with an in-flight restore or Delete
// are skipped for the same reason. A chain a fold cut is copying from needs
// no pin: the fold of a vanished base is discarded as stale. The second
// result reports whether the failure to find a victim was pinning (every
// candidate skipped) as opposed to an empty index or a failed unlink.
// Callers hold t.mu.
func (t *Tiered) evictSpillFileLocked(keepID string) (bool, bool) {
	const (
		classDemote = iota // blob-backed: free cache drop
		classWarm          // dirty resident's stale backup: rewrite owed
		classLoss          // disk-only, no blob: the session dies with the chain
	)
	var (
		victimID    string
		victim      *spillEntry
		victimClass int
		skipped     int
	)
	for id, e := range t.index {
		if id == keepID || !e.local {
			continue
		}
		if _, restoring := t.flights[id]; restoring {
			skipped++ // a restore is reading this chain right now
			continue
		}
		if t.deleting[id] > 0 {
			skipped++ // a Delete owns it; transient
			continue
		}
		class := classLoss
		if e.remote {
			class = classDemote
		} else {
			sess, resident := t.mem.peek(id)
			if resident {
				if !sess.Dirty() {
					skipped++ // pinned: the eviction path relies on this chain
					continue
				}
				class = classWarm
			}
		}
		better := victim == nil || class < victimClass ||
			(class == victimClass && e.lastUsed < victim.lastUsed)
		if better {
			victimID, victim, victimClass = id, e, class
		}
	}
	if victim == nil {
		return false, skipped > 0
	}
	// Unlink BEFORE forgetting: if the disk refuses to give the bytes back
	// (EACCES/EIO), dropping the session would forget state without
	// reclaiming anything — and the caller's loop would then amplify one
	// sick filesystem into mass session loss. Report no progress instead;
	// the triggering spill fails and every session stays where it is. The
	// unlink runs under t.mu by design: the budget-vs-gauge invariant needs
	// the reclaim and the accounting to be one atomic step (a new restore
	// flight for this id also can't register without t.mu), and unlinks are
	// metadata ops — the full-file IO (snapshot writes) stays off this lock.
	// The base anchors the chain, so it is unlinked first and aborts the
	// eviction on failure; a delta segment whose unlink fails afterwards is
	// already useless (its base is gone) and just moves to the orphan share
	// for the GC.
	if t.local.Delete(victim.key) != nil {
		return false, false
	}
	t.diskBytes -= victim.bytes
	for i := range victim.deltas {
		sg := &victim.deltas[i]
		t.diskBytes -= sg.bytes
		if t.local.Delete(sg.key) != nil {
			t.orphanBytes += sg.bytes
		}
	}
	if victimClass == classDemote {
		// Cache drop: the entry survives remote-only; restores fall through
		// to the blob tier. Tenant spill accounting keeps charging the blob
		// copy (same content), so nothing is released here.
		victim.key, victim.local, victim.deltas = "", false, nil
		t.blobDemotions.Add(1)
		return true, false
	}
	delete(t.index, victimID)
	ten := TenantOf(victimID)
	t.mem.adjustSpill(ten, -victim.spillCharged)
	if victimClass == classLoss {
		// The session existed only on disk: dropping its chain forgets it.
		// Release the tenant's ownership charge and make the loss visible.
		t.mem.adjustOwned(ten, -1, -victim.charged)
		t.mem.chargeDiskEviction(ten)
		t.diskEvictions.Add(1)
		if t.onDiskEvict != nil {
			t.onDiskEvict(victimID)
		}
	}
	return true, false
}

// ownedKeysLocked adds the keys of every indexed file, and of every
// de-indexed file whose unlink is in flight, to m. Callers hold t.mu.
func (t *Tiered) ownedKeysLocked(m map[string]bool) map[string]bool {
	if m == nil {
		m = make(map[string]bool, len(t.index)+len(t.unlinking))
	}
	for _, e := range t.index {
		for _, kb := range e.localKeys() {
			m[kb.key] = true
		}
	}
	for key := range t.unlinking {
		m[key] = true
	}
	return m
}

// gcLoop runs gcOnce every interval until stop closes.
func (t *Tiered) gcLoop(stop <-chan struct{}, interval time.Duration) {
	defer t.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t.gcOnce()
		}
	}
}

// gcOnce is one age-based GC sweep: stale temp files and orphaned session
// and delta files (unindexed — left by crashes, or by unlink failures) older
// than gcAge are removed, files belonging to tombstoned sessions are removed
// regardless of age (and the tombstone's local side resolved once none
// remain), the orphan-byte share of the spill_dir_bytes gauge is refreshed
// from what remains, and the disk budget is re-enforced in case orphans
// pushed the gauge over it. The sweep ends with the blob maintenance pass.
func (t *Tiered) gcOnce() {
	// Temps younger than tmpFloor may be an in-flight spill.
	if t.faultAt("gc.unlink") == nil {
		t.gcRemovals.Add(int64(t.local.sweepTemps(max(t.gcAge, tmpFloor))))
	}
	// Snapshot, before listing, the keys the index owns and the tombstones
	// whose local side is unresolved (their files are swept on sight, and
	// headers must be read, off-lock, to know which files are theirs). A
	// listed file the index owned before the listing or owns after it is no
	// orphan: disk evictions, unlinks and publishes race the listing.
	t.mu.Lock()
	owned := t.ownedKeysLocked(nil)
	tombPending := make(map[string]bool)
	for id, ts := range t.tombstones {
		if !ts.localClean {
			tombPending[id] = true
		}
	}
	t.mu.Unlock()
	infos, err := t.local.List("")
	if err != nil {
		return
	}
	now := time.Now()
	owner := make(map[string]string) // key -> session id, when headers were read
	if len(tombPending) > 0 {
		for _, info := range infos {
			if obj, _ := classify(t.local, info); obj.id != "" {
				owner[info.Key] = obj.id
			}
		}
	}
	// Classify against the index and refresh the orphan gauge in one
	// critical section, so a spill publishing concurrently is never treated
	// as an orphan of the same sweep that counts its index entry.
	t.mu.Lock()
	owned = t.ownedKeysLocked(owned)
	var orphanBytes int64
	var remove []string
	tombRemain := make(map[string]int) // files still on disk per pending tombstone
	var tombFiles []string
	for _, info := range infos {
		id := owner[info.Key]
		switch {
		case info.Key == tombstoneFile:
		case owned[info.Key]:
			if tombPending[id] {
				tombRemain[id]++ // its unlink is in flight; resolve on a later sweep
			}
		case tombPending[id]:
			// Tombstoned session's leftover: sweep on sight, no age floor.
			tombRemain[id]++
			tombFiles = append(tombFiles, info.Key)
		case (strings.HasSuffix(info.Key, spillExt) || strings.HasSuffix(info.Key, deltaExt)) &&
			now.Sub(info.ModTime) >= t.gcAge:
			remove = append(remove, info.Key)
		default:
			orphanBytes += info.Size
		}
	}
	t.orphanBytes = orphanBytes
	if t.maxDiskBytes > 0 {
		for t.diskBytes+t.orphanBytes > t.maxDiskBytes {
			if ok, _ := t.evictSpillFileLocked(""); !ok {
				break
			}
		}
	}
	t.mu.Unlock()
	for _, key := range remove {
		if t.faultAt("gc.unlink") == nil && t.local.Delete(key) == nil {
			t.gcRemovals.Add(1)
		}
	}
	for _, key := range tombFiles {
		if t.faultAt("gc.unlink") == nil && t.local.Delete(key) == nil {
			t.gcRemovals.Add(1)
			tombRemain[owner[key]]--
		}
	}
	// A pending tombstone with no surviving local file is locally clean.
	for id := range tombPending {
		if tombRemain[id] == 0 {
			t.tombstoneResolve(id, tombLocal)
		}
	}
	// Blob pass: retry tombstoned deletes until they stick and re-push local
	// files whose upload failed, so the shared tier converges on the truth.
	t.blobMaintain()
}
