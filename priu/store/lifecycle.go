package store

import (
	"errors"
	"strings"
	"time"
)

// The spill-tier lifecycle manager: the write-behind queue that snapshots
// dirty sessions eagerly (so evictions drop resident copies instead of
// paying file IO under the victim's lock), the coalescing debounce that
// batches a dense mutation stream into one delta per N updates or quiet
// period, the disk-budget evictor that keeps the spill directory under
// -spill-max-bytes, and the age-based GC that sweeps orphaned leftovers.
// All state lives on Tiered; this file owns the background machinery.

// tmpFloor is the minimum age before the GC may touch a temp file: temps
// younger than this may be an in-flight spill.
const tmpFloor = time.Minute

// debEntry tracks one session sitting in the coalescing debounce: how many
// updates have accumulated since its last scheduled spill and when the most
// recent one arrived. Guarded by qmu.
type debEntry struct {
	sess  *Session
	count int
	last  time.Time
}

// armWriteBehind installs the dirty-notification hook on a session before it
// is published, so every mutation (MarkDirtyLocked) schedules an eager
// background snapshot. Harmless when write-behind is disabled.
func (t *Tiered) armWriteBehind(sess *Session) {
	if t.spillOnEvict && t.queueLen > 0 {
		sess.notifyDirty = t.enqueueSpill
	}
}

// enqueueSpill schedules a background snapshot of the session. It never
// blocks (it is called under Session.Mu): when the queue is full the request
// is dropped and counted — backpressure — and the eviction path's
// synchronous fallback keeps the session safe (it always cuts from the
// CURRENT generation, so a dropped enqueue can never surface stale state).
// With coalescing configured (n > 1), a mutation parks in the debounce until
// n updates accumulate (the quiet sweep handles the time axis); otherwise it
// goes straight to the queue. Duplicate requests for a session already
// queued coalesce for free, because the worker cuts whatever the session
// holds at dequeue time.
func (t *Tiered) enqueueSpill(sess *Session) {
	if t.queue == nil {
		return
	}
	t.qmu.Lock()
	if t.qClosed || t.pending[sess] {
		t.qmu.Unlock()
		return
	}
	if t.coalesceN > 1 {
		d := t.debounce[sess.ID]
		if d == nil {
			d = &debEntry{}
			t.debounce[sess.ID] = d
		}
		d.sess = sess
		d.count++
		d.last = time.Now()
		if d.count < t.coalesceN {
			t.qmu.Unlock()
			return
		}
		delete(t.debounce, sess.ID)
	}
	t.offerLocked(sess)
	t.qmu.Unlock()
}

// offerLocked makes the non-blocking queue send. Caller holds qmu and has
// already checked qClosed and pending.
func (t *Tiered) offerLocked(sess *Session) {
	select {
	case t.queue <- sess:
		t.pending[sess] = true
	default:
		t.queueFull.Add(1)
	}
}

// requeue re-schedules a session whose background publish lost the chain
// race, bypassing the debounce (the batch already waited its turn once).
// Called under Session.Mu like enqueueSpill.
func (t *Tiered) requeue(sess *Session) {
	if t.queue == nil {
		return
	}
	t.qmu.Lock()
	if !t.qClosed && !t.pending[sess] {
		t.offerLocked(sess)
	}
	t.qmu.Unlock()
}

// queueDepth reports the write-behind backlog (debounced + queued +
// in-flight).
func (t *Tiered) queueDepth() int {
	t.qmu.Lock()
	n := len(t.pending) + len(t.debounce)
	t.qmu.Unlock()
	return n + int(t.inflight.Load())
}

// startLifecycle launches the write-behind workers and, when configured, the
// coalescing quiet sweep (only with n > 1: at n = 1 nothing is ever
// debounced) and the GC sweep.
func (t *Tiered) startLifecycle() {
	needQuiet := t.spillOnEvict && t.queueLen > 0 && t.coalesceN > 1 && t.coalesceQuiet > 0
	if t.gcInterval > 0 || needQuiet {
		t.stopBG = make(chan struct{})
	}
	if t.spillOnEvict && t.queueLen > 0 {
		t.queue = make(chan *Session, t.queueLen)
		for i := 0; i < t.workers; i++ {
			t.wg.Add(1)
			go t.spillWorker()
		}
		if needQuiet {
			t.wg.Add(1)
			go t.coalesceLoop(t.stopBG)
		}
	}
	if t.gcInterval > 0 {
		t.wg.Add(1)
		go t.gcLoop(t.stopBG)
	}
}

// stopLifecycle stops the background loops and closes the queue, then waits
// for the workers to flush the remaining backlog — the drain ordering:
// everything the queue accepted is on disk before Close snapshots
// stragglers (sessions still parked in the debounce are among those
// stragglers; Close's synchronous drain covers them). Idempotent.
func (t *Tiered) stopLifecycle() {
	t.qmu.Lock()
	if !t.qClosed {
		t.qClosed = true
		if t.stopBG != nil {
			close(t.stopBG)
		}
		if t.queue != nil {
			close(t.queue)
		}
	}
	t.qmu.Unlock()
	t.wg.Wait()
}

// spillWorker drains the write-behind queue. Each dequeued session is CUT —
// counters and the O(batch) deletion-log copy — under its own lock, but
// serialized and published (temp write, fsync, rename) strictly after the
// lock is released: a mutation-heavy session never blocks its readers and
// writers on snapshot serialization or disk IO. The generation
// captured at the cut makes the split safe — a publish that loses the chain
// race to a newer synchronous spill is discarded by the guard and the
// session is re-queued, so the background copy converges on the latest
// state without ever masking it. Sessions that left the store (evicted with
// a synchronous spill, or deleted) are skipped via the gone flag; clean
// sessions whose chain is current are a no-op inside cutLocked.
func (t *Tiered) spillWorker() {
	defer t.wg.Done()
	for sess := range t.queue {
		t.inflight.Add(1)
		t.qmu.Lock()
		delete(t.pending, sess)
		t.qmu.Unlock()
		var cut *spillCut
		var needPush bool
		var err error
		sess.Mu.Lock()
		if !sess.gone.Load() {
			cut, needPush, err = t.cutLocked(sess)
		}
		sess.Mu.Unlock()
		if needPush {
			// Clean chain whose blob upload previously failed: heal it here,
			// strictly after releasing Session.Mu — the upload never runs
			// under the session lock.
			_ = t.blobPush(sess.ID)
		}
		if err == nil && cut != nil {
			wrote, perr := t.publishCut(cut)
			if perr == nil && wrote {
				t.writeBehind.Add(1)
			} else if errors.Is(perr, errStaleSpill) {
				sess.Mu.Lock()
				if !sess.gone.Load() && sess.Dirty() {
					t.requeue(sess)
				}
				sess.Mu.Unlock()
			}
		}
		t.inflight.Add(-1)
	}
}

// coalesceLoop periodically flushes debounced sessions whose quiet period
// elapsed without reaching the update threshold.
func (t *Tiered) coalesceLoop(stop <-chan struct{}) {
	defer t.wg.Done()
	period := t.coalesceQuiet / 2
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			t.flushQuiet(now)
		}
	}
}

// flushQuiet promotes every debounced session that has been quiet for the
// configured period onto the spill queue.
func (t *Tiered) flushQuiet(now time.Time) {
	t.qmu.Lock()
	for id, d := range t.debounce {
		if now.Sub(d.last) < t.coalesceQuiet {
			continue
		}
		delete(t.debounce, id)
		if !t.qClosed && !t.pending[d.sess] {
			t.offerLocked(d.sess)
		}
	}
	t.qmu.Unlock()
}

// Flush blocks until the write-behind queue has drained and no background
// snapshot or fold is in flight — a quiescence point for tests and for
// callers that want eager durability without closing the store (Close
// flushes implicitly). Debounced sessions are promoted first so a flush cannot wait
// on a quiet timer.
func (t *Tiered) Flush() {
	t.qmu.Lock()
	for id, d := range t.debounce {
		delete(t.debounce, id)
		if !t.qClosed && !t.pending[d.sess] {
			t.offerLocked(d.sess)
		}
	}
	t.qmu.Unlock()
	for t.queueDepth() > 0 {
		time.Sleep(time.Millisecond)
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

// gcLoop runs gcOnce every gcInterval until stop closes.
func (t *Tiered) gcLoop(stop <-chan struct{}) {
	defer t.wg.Done()
	tick := time.NewTicker(t.gcInterval)
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
