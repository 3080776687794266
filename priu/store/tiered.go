package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binio"
	"repro/priu"
)

// Spill-file envelope: a small header carrying the store-level identity,
// counters and the cumulative deletion log, followed by the self-contained
// snapshot (family + dataset + provenance, with an empty log section).
// Keeping the log in the envelope makes the disk tier log-structured: a
// spill of a mutated session appends a small delta segment carrying only the
// log suffix since the base, and a cut that finds the chain full folds it
// into a new base instead — the session's full log in the envelope, the old
// base's snapshot bytes copied verbatim, no model encode or decode. The
// spill directory is an FSBlob: files are content-addressed keys — named by
// the SHA-256 of their bytes — written through its stage/commit writer (temp
// file + fsync + rename), so a crash mid-spill leaves at worst an ignorable
// temp file, never a torn session or delta. Only version 2 is read: a local
// version-1 base (log inside the snapshot, written before the log-structured
// tier) fails NewTiered by name; a version-1 blob object is logged by key
// and left unserved.
const (
	spillMagic   = "PRSP"
	spillVersion = 2
	spillExt     = ".sess"

	// Delta segments: "<sha256>.delta" files appended to a v2 base. Each
	// carries the deletion-log suffix it adds, the (logLen, updates) tip it
	// extends — the chain guard — and the counters at its own tip.
	deltaMagic   = "PRDL"
	deltaVersion = 1
	deltaExt     = ".delta"

	// maxSpillName bounds decoded ID/family strings in envelopes.
	maxSpillName = 1 << 20
)

// deltaSeg is one published delta segment in a spill entry's chain.
type deltaSeg struct {
	key   string
	bytes int64
	// fromLen/fromUpdates name the chain tip this segment extends; a
	// segment chains iff they equal the previous element's tip exactly.
	fromLen     int64
	fromUpdates int64
	// entries is the number of deletion-log entries the segment appends;
	// updates/lastUpd are the session counters at the segment's tip.
	entries int64
	updates int64
	lastUpd float64
}

// spillEntry is the disk tier's index record for one session: a base
// snapshot plus an ordered delta-segment chain. At least one of
// local/remote is true: local means key names a base file (and deltas its
// chain) in the spill directory, remote means the shared blob tier holds
// the same logical tip (when both are set the local chain is a read cache
// of the blob object).
type spillEntry struct {
	key       string
	bytes     int64 // base file size; localBytes() for the whole chain
	deltas    []deltaSeg
	kind      string
	createdAt time.Time
	local     bool
	remote    bool
	// updates is the monotonic per-session update counter at the CHAIN TIP
	// — the newest-wins version used when deduplicating boot files and
	// reconciling against the blob tier.
	updates int64
	// logLen is the deletion-log length the chain tip covers — together
	// with updates it is the guard a delta publish must match.
	logLen int64
	// charged is what the session's tenant ownership was billed for this
	// session (guarded by Tiered.mu): the resident footprint when spilled by
	// this process, the file size when seeded from the boot scan (the
	// footprint isn't known without restoring). Restores settle the drift.
	charged int64
	// spillCharged is the tenant's current spill-byte charge for this entry
	// (guarded by Tiered.mu); every transition adjusts by the delta against
	// it, so the books can never drift from the files.
	spillCharged int64
	// lastUsed is a unix-nano LRU clock for the disk-budget file evictor:
	// bumped when the chain is written and when the session restores from it
	// (mtime at boot). Guarded by Tiered.mu.
	lastUsed int64
}

// localBytes is the entry's on-disk footprint: base plus delta segments
// (zero when the entry is remote-only).
func (e *spillEntry) localBytes() int64 {
	if !e.local {
		return 0
	}
	n := e.bytes
	for i := range e.deltas {
		n += e.deltas[i].bytes
	}
	return n
}

// localKeys returns every file the entry owns (base first, then the chain).
func (e *spillEntry) localKeys() []keyBytes {
	if !e.local {
		return nil
	}
	out := make([]keyBytes, 0, 1+len(e.deltas))
	out = append(out, keyBytes{e.key, e.bytes})
	for i := range e.deltas {
		out = append(out, keyBytes{e.deltas[i].key, e.deltas[i].bytes})
	}
	return out
}

// keyBytes pairs a spill-directory key with its accounted size.
type keyBytes struct {
	key   string
	bytes int64
}

// flight is one in-progress restore; joiners wait on done.
type flight struct {
	done chan struct{}
	sess *Session
	ok   bool
}

// Tiered wraps the in-memory tier with a spill directory: evictions spill,
// touches of cold sessions restore (singleflight), Close drains dirty
// residents, and NewTiered re-indexes whatever a previous process left. Its
// lifecycle manager (lifecycle.go) keeps the disk tier bounded and off the
// hot path: a write-behind worker snapshots dirty sessions eagerly so most
// evictions just drop the resident copy, a disk budget evicts
// least-recently-used spill files, and an age-based GC sweeps orphaned
// leftovers.
type Tiered struct {
	mem *Memory
	// local is the spill directory; every local read, write, delete and
	// listing goes through it.
	local *FSBlob

	// blob, when set (WithBlobStore), is the shared tier the spill directory
	// caches; see tieredblob.go.
	blob BlobStore

	// Lifecycle configuration (fixed after NewTiered). A cut folds a chain
	// of compactAfter deltas (0 = never); the GC removes orphans older than
	// gcAge.
	maxDiskBytes int64
	compactAfter int
	gcAge        time.Duration

	mu      sync.Mutex
	index   map[string]*spillEntry
	flights map[string]*flight
	// diskBytes is the total size of indexed spill files (bases + delta
	// chains); orphanBytes is what else the boot scan / GC sweeps found in
	// the directory (crash leftovers — in-flight temp files and the
	// tombstone object are excluded). Their sum is the served
	// spill_dir_bytes gauge, and the disk budget bounds it. Both are
	// guarded by mu.
	diskBytes   int64
	orphanBytes int64
	// blobPutting gates blob uploads (one in flight per session). Guarded
	// by mu.
	blobPutting map[string]bool
	// deleting counts Deletes between dropping an id's resident copy and
	// de-indexing its chain; the disk-budget evictor skips those ids, which
	// would otherwise look disk-only and have their tenant ownership
	// released a second time. Guarded by mu.
	deleting map[string]int
	// unlinking holds the keys of de-indexed files whose removeSpillFile has
	// not run yet: the GC neither counts them as orphans nor removes them.
	// Guarded by mu.
	unlinking map[string]bool
	// tombstones is the pending set of deletion tombstones (tombstone.go):
	// ids of acknowledged deletes whose local unlinks or blob delete have
	// not stuck yet. Read paths refuse tombstoned ids, boot reads the
	// persisted set, and the GC sweep retries until resolution. Guarded by
	// mu.
	tombstones map[string]*tombstone

	// Write-behind state (lifecycle.go), guarded by qmu: the dirty set, the
	// sessions a pass has taken and not finished, a broadcast after every
	// pass, a one-slot wake-up for the worker, and the loops' stop (nil when
	// none run).
	qmu      sync.Mutex
	dirty    map[*Session]bool
	spilling int
	drained  sync.Cond
	wake     chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup

	// tombMu serializes tombstone-set changes with the writes that persist
	// them (tombstone.go). tombUnsynced holds the retired ids whose
	// retirement no directory fsync has made durable yet; changed under
	// tombMu and mu, read under either.
	tombMu       sync.Mutex
	tombUnsynced map[string]bool

	spills        atomic.Int64
	deltaSpills   atomic.Int64
	compactions   atomic.Int64
	staleSpills   atomic.Int64
	restores      atomic.Int64
	spillErrors   atomic.Int64
	restoreErrors atomic.Int64
	unspillable   atomic.Int64
	writeBehind   atomic.Int64
	diskEvictions atomic.Int64
	gcRemovals    atomic.Int64
	blobPuts      atomic.Int64
	blobGets      atomic.Int64
	blobDeletes   atomic.Int64
	blobErrors    atomic.Int64
	blobDemotions atomic.Int64

	// metrics, when set (WithMetrics), receives tier-operation latency
	// observations; nil means every recording site is a single nil check.
	metrics *TierMetrics

	// fault, when set (tests only), is consulted at named crash points
	// inside spill/GC/drain; a non-nil return aborts the operation exactly
	// where a crash would, leaving on-disk state as a kill there would.
	fault func(point string) error
	// onDiskEvict, when set (tests only), observes disk-budget drops of
	// disk-only sessions; onEvictLost observes evictions that could not
	// preserve their victim (the spill failed). These
	// are the only paths that lose a session by design, and both fire
	// before the loss is observable through Get.
	onDiskEvict func(id string)
	onEvictLost func(id string)
}

// faultAt consults the injected crash-point hook (nil outside tests).
func (t *Tiered) faultAt(point string) error {
	if t.fault == nil {
		return nil
	}
	return t.fault(point)
}

// removeSpillFile unlinks a de-indexed spill file, keeping the disk gauge
// honest when the unlink fails (or a fault skips it): the file still
// occupies disk, so its bytes move to the orphan share — where the
// age-based GC will reclaim them — instead of vanishing from the books.
// Reports whether the file is actually gone. Callers must not hold t.mu.
func (t *Tiered) removeSpillFile(key string, bytes int64, faultPoint string) bool {
	gone := t.faultAt(faultPoint) == nil && t.local.Delete(key) == nil
	t.mu.Lock()
	delete(t.unlinking, key)
	if !gone {
		t.orphanBytes += bytes
	}
	t.mu.Unlock()
	return gone
}

// unlinkingLocked marks files a caller is about to remove with
// removeSpillFile once it releases t.mu. Callers hold t.mu.
func (t *Tiered) unlinkingLocked(files []keyBytes) {
	for _, kb := range files {
		t.unlinking[kb.key] = true
	}
}

// dropEntryLocked de-indexes id's entry, settles the disk gauge and marks
// its local files unlinking. Callers hold t.mu.
func (t *Tiered) dropEntryLocked(id string) (*spillEntry, bool) {
	e, ok := t.index[id]
	if ok {
		delete(t.index, id)
		t.diskBytes -= e.localBytes()
		t.unlinkingLocked(e.localKeys())
	}
	return e, ok
}

// TieredOption configures NewTiered.
type TieredOption func(*Tiered)

// WithSpillOnEvict has no effect: budget evictions always spill.
//
// Deprecated: drop the option.
func WithSpillOnEvict(bool) TieredOption { return noOption }

// WithSpillMaxBytes bounds the spill directory (0 = unbounded): when a new
// spill would take the indexed-plus-orphaned file bytes over the budget,
// least-recently-used spill files are evicted first — warm backups of
// resident sessions before disk-only sessions, whose drop loses the session
// and is counted in DiskEvictions.
func WithSpillMaxBytes(b int64) TieredOption {
	return func(t *Tiered) { t.maxDiskBytes = b }
}

// WithWriteBehind has no effect: one worker drains the dirty set whenever
// evictions spill.
//
// Deprecated: drop the option.
func WithWriteBehind(int, int) TieredOption { return noOption }

// WithSpillCoalesce has no effect: every mutation reaches the worker at once.
//
// Deprecated: drop the option.
func WithSpillCoalesce(int, time.Duration) TieredOption { return noOption }

// WithCompaction has no effect: a cut folds any chain of 8 deltas.
//
// Deprecated: drop the option.
func WithCompaction(int) TieredOption { return noOption }

// WithSpillGC has no effect: the GC sweep runs every minute and removes
// orphans older than an hour.
//
// Deprecated: drop the option.
func WithSpillGC(age, interval time.Duration) TieredOption { return noOption }

func noOption(*Tiered) {}

// NewTiered opens (creating if needed) the spill directory, re-indexes the
// session files a previous process left there, installs the spill hook on
// mem's evictions, and starts the lifecycle manager (the write-behind worker
// and the GC sweep). mem must be freshly constructed and not shared.
func NewTiered(dir string, mem *Memory, opts ...TieredOption) (*Tiered, error) {
	t, err := openTiered(dir, mem, opts...)
	if err != nil {
		return nil, err
	}
	t.startLifecycle(gcEvery)
	return t, nil
}

// openTiered is NewTiered without the background loops: nothing runs until
// the caller drives spillPending and gcOnce, or starts the loops.
func openTiered(dir string, mem *Memory, opts ...TieredOption) (*Tiered, error) {
	local, err := NewFSBlob(dir)
	if err != nil {
		return nil, err
	}
	t := &Tiered{
		mem:          mem,
		local:        local,
		index:        make(map[string]*spillEntry),
		flights:      make(map[string]*flight),
		dirty:        make(map[*Session]bool),
		wake:         make(chan struct{}, 1),
		blobPutting:  make(map[string]bool),
		deleting:     make(map[string]int),
		unlinking:    make(map[string]bool),
		tombstones:   make(map[string]*tombstone),
		tombUnsynced: make(map[string]bool),
		compactAfter: defaultCompactAfter,
		gcAge:        defaultGCAge,
	}
	t.drained.L = &t.qmu
	for _, opt := range opts {
		opt(t)
	}
	// This process owns the spill directory, so every temp in it is a
	// crashed write. Tombstones load before the listings are read: the boot
	// scan deletes (never indexes) files and objects of tombstoned sessions.
	t.local.sweepTemps(0)
	if err := t.loadTombstones(); err != nil {
		return nil, err
	}
	if err := t.boot(); err != nil {
		return nil, err
	}
	// Seed the tenants' cross-tier ownership and spill-file usage with what
	// a previous process left on disk, so quotas and spill caps count
	// rebooted spill files from the first request. mem is freshly
	// constructed (see above), so nothing double counts.
	for id, e := range t.index {
		mem.adjustOwned(TenantOf(id), 1, e.charged)
		mem.adjustSpill(TenantOf(id), e.spillCharged)
	}
	mem.onEvictLocked = func(sess *Session) int {
		// The write-behind worker usually got here first: a clean session
		// with a current disk copy is preserved by just dropping the
		// resident copy — no file IO under the victim's lock. The
		// synchronous spill is the fallback (a dirty victim the worker has
		// not reached yet); it runs under the victim's Session.Mu only
		// (enforceBudget holds no shard lock across this hook), and its
		// publish pushes to the blob tier there too. A clean chain whose
		// earlier push failed is left to the GC sweep's blob pass: nothing
		// is uploaded for it here.
		_, err := t.spillLocked(sess)
		if err == nil {
			return evictPreserved // the spill chain holds this state
		}
		if errors.Is(err, errSpillDiskPinned) {
			// The disk budget is full of files that cannot be reclaimed
			// (pinned by clean residents, or mid-restore). Dropping the
			// victim would silently lose a session to make room for a new
			// one; refuse instead — the enforcer tries another victim or
			// rejects the registration with typed pressure.
			return evictRefused
		}
		// The session is leaving memory carrying state the disk tier does
		// not have (the spill failed for a reason pressure cannot fix —
		// tenant cap, IO error). A stale disk copy must not resurrect on
		// the next touch — that would silently undo honored deletions — so
		// drop it: the session is lost, exactly like a memory-only
		// eviction.
		if t.onEvictLost != nil {
			t.onEvictLost(sess.ID)
		}
		// Mark the copy gone BEFORE invalidating: a worker publish racing
		// this eviction must observe the flag (publishCut's liveness guard)
		// and discard its cut, never re-create an index entry for state the
		// store just declared lost.
		sess.gone.Store(true)
		t.invalidate(sess.ID)
		return evictLost
	}
	return t, nil
}

// invalidate forgets a session's disk and blob copies (stale relative to
// state that was just lost with an eviction): a stale copy must not
// resurrect on the next touch — locally, through the read-through path, or
// after a reboot, which is why the forget is recorded as a durable
// tombstone before any unlink runs.
func (t *Tiered) invalidate(id string) {
	t.mu.Lock()
	e, ok := t.dropEntryLocked(id)
	t.mu.Unlock()
	if ok {
		t.dropEntryFiles(id, e, "invalidate.unlink")
		t.mem.adjustSpill(TenantOf(id), -e.spillCharged)
	}
}

// dropEntryFiles tombstones id and removes the entry's local chain files and
// blob object. The tombstone lands (durably) BEFORE any unlink, so a crash
// anywhere in the removal cannot leave a resurrectable copy behind: boot
// replays the tombstone, skips the files and retries the blob delete. The
// caller has already de-indexed the entry and settled the disk gauge.
func (t *Tiered) dropEntryFiles(id string, e *spillEntry, faultPoint string) {
	t.tombstoneAdd(id)
	if e.local {
		clean := true
		for _, kb := range e.localKeys() {
			if !t.removeSpillFile(kb.key, kb.bytes, faultPoint) {
				clean = false
			}
		}
		if clean {
			t.tombstoneResolve(id, tombLocal)
		}
	} else {
		t.tombstoneResolve(id, tombLocal)
	}
	// Remove the blob object whenever a blob tier is configured, not just
	// when the entry is marked remote: a push may be in flight (the entry
	// not yet certified), and the tombstone covers that race.
	t.blobRemove(id)
}

// Spillable reports whether a session of this family/updater can be written
// as a session snapshot and restored later.
func Spillable(kind string, upd priu.Updater) bool {
	if _, ok := upd.(priu.Snapshotter); !ok {
		return false
	}
	f, ok := priu.Lookup(kind)
	return ok && f.Restore != nil
}

// Put implements Store. The memory tier's ownership counters already span
// both tiers (a spill moves a session out of resident but not out of
// owned), so the quota check is the same single atomic compare: eviction to
// disk never frees quota, only an explicit Delete does. The accepted session
// is scheduled for an eager write-behind snapshot so the eviction that later
// targets it can drop instead of write.
func (t *Tiered) Put(sess *Session) error {
	t.mu.Lock()
	_, tombstoned := t.tombstones[sess.ID]
	unsynced := t.tombUnsynced[sess.ID]
	t.mu.Unlock()
	if tombstoned {
		// A re-registration under a tombstoned ID (the service seeds IDs to
		// avoid reuse, but the store stays correct without that): the
		// tombstone guarded the OLD state. Make one synchronous attempt to
		// clear the stale blob object, then retire the tombstone — the new
		// session's state owns the ID from here.
		t.blobRemove(sess.ID)
		t.tombstoneResolve(sess.ID, tombLocal|tombBlob)
	}
	if tombstoned || unsynced {
		t.tombstoneSettle(sess.ID)
	}
	sess.notifyDirty = t.enqueueSpill
	if err := t.mem.Put(sess); err != nil {
		return err
	}
	t.enqueueSpill(sess)
	return nil
}

// TenantUsage implements Store.
func (t *Tiered) TenantUsage(tenant string) TenantUsage { return t.mem.TenantUsage(tenant) }

// Get implements Store: a resident hit is lock-free beyond the shard RLock;
// a cold session is restored exactly once, no matter how many goroutines
// touch it concurrently — from its local chain, or (read-through) from the
// shared blob tier when this node holds no local state for it at all.
func (t *Tiered) Get(id string) (*Session, bool) {
	if sess, ok := t.mem.Get(id); ok {
		return sess, true
	}
	t.mu.Lock()
	if f, joining := t.flights[id]; joining {
		t.mu.Unlock()
		<-f.done
		return f.sess, f.ok
	}
	e := t.index[id]
	if e == nil && (t.blob == nil || t.tombstones[id] != nil) {
		t.mu.Unlock()
		// The session may have become resident between the miss and the
		// index check (a racing restore that just published). Tombstoned
		// keys belong to acknowledged deletes — never readopt them.
		return t.mem.Get(id)
	}
	f := &flight{done: make(chan struct{})}
	t.flights[id] = f
	if e != nil {
		// The chain is about to be read: bump its LRU clock so the
		// disk-budget evictor (which also skips any id with an in-flight
		// restore) treats it as hot, not as the coldest file on disk.
		e.lastUsed = time.Now().UnixNano()
	}
	t.mu.Unlock()

	// Leader path. Re-check residency first: a restore that completed
	// between our memory miss and the flight registration already published
	// the session (the index keeps its entry after a restore).
	if sess, ok := t.mem.Get(id); ok {
		f.sess, f.ok = sess, true
	} else if sess, err := t.restore(id, e); err != nil {
		t.restoreErrors.Add(1)
	} else if sess != nil {
		f.sess, f.ok = sess, true
	}
	t.mu.Lock()
	delete(t.flights, id)
	t.mu.Unlock()
	close(f.done)
	return f.sess, f.ok
}

// Delete implements Store: the session is forgotten in every tier. A
// durable tombstone is written BEFORE any unlink or blob delete, so once
// this returns (and the service acks the DELETE) no crash can resurrect the
// session: boot replays pending tombstones, removing stray chain files and
// retrying the blob delete until both stick.
func (t *Tiered) Delete(id string) bool {
	t.mu.Lock()
	t.deleting[id]++
	t.mu.Unlock()
	resident := t.mem.Delete(id)
	t.mu.Lock()
	if t.deleting[id]--; t.deleting[id] == 0 {
		delete(t.deleting, id)
	}
	e, spilled := t.dropEntryLocked(id)
	t.mu.Unlock()
	if spilled {
		// Spill-file hygiene: an explicit DELETE forgets the session in
		// every tier, including its on-disk chain and blob object — even
		// when a resident copy also existed (the copies would otherwise
		// outlive the session until the age-based GC or the next boot
		// scan, and a blob copy could resurrect through read-through).
		t.dropEntryFiles(id, e, "delete.unlink")
		t.mem.adjustSpill(TenantOf(id), -e.spillCharged)
		if !resident {
			// Count the disk-only delete on the same shard the session
			// would live on, keeping per-shard sums consistent, and release
			// the tenant's ownership charge (the resident path did this in
			// mem.Delete).
			t.mem.shards[ShardIndex(id)].explicitDeletes.Add(1)
			t.mem.chargeExplicitDelete(TenantOf(id))
			t.mem.adjustOwned(TenantOf(id), -1, -e.charged)
		}
	}
	return resident || spilled
}

// Range implements Store (resident sessions only; spilled sessions are
// listed by Stats without being restored).
func (t *Tiered) Range(fn func(*Session) bool) { t.mem.Range(fn) }

// Stats implements Store. SpillDirBytes is served from the lifecycle
// manager's maintained counters (indexed files + scanned orphans) — no
// per-request directory walk; the boot scan seeds it and GC sweeps
// refresh the orphan share.
func (t *Tiered) Stats() Stats {
	st := t.mem.Stats()
	st.Spills = t.spills.Load()
	st.DeltaSpills = t.deltaSpills.Load()
	st.Compactions = t.compactions.Load()
	st.StaleSpills = t.staleSpills.Load()
	st.Restores = t.restores.Load()
	st.Unspillable = t.unspillable.Load()
	st.SpillMaxBytes = t.maxDiskBytes
	st.WriteBehindSpills = t.writeBehind.Load()
	st.DiskEvictions = t.diskEvictions.Load()
	st.GCRemovals = t.gcRemovals.Load()
	t.qmu.Lock()
	st.SpillQueueDepth = len(t.dirty) + t.spilling
	t.qmu.Unlock()
	st.BlobTier = t.blob != nil
	st.BlobPuts = t.blobPuts.Load()
	st.BlobGets = t.blobGets.Load()
	st.BlobDeletes = t.blobDeletes.Load()
	st.BlobErrors = t.blobErrors.Load()
	st.BlobDemotions = t.blobDemotions.Load()
	t.mu.Lock()
	st.SpillDirBytes = t.diskBytes + t.orphanBytes
	st.PendingTombstones = len(t.tombstones)
	for id, e := range t.index {
		st.DeltaSegments += len(e.deltas)
		fileBytes := e.bytes
		if e.local {
			fileBytes = e.localBytes()
		}
		if e.remote {
			st.BlobSessions++
			st.BlobBytes += e.bytes
		}
		if t.mem.has(id) {
			continue // resident copy is authoritative; the file is a warm backup
		}
		st.Spilled++
		st.SpilledBytes += fileBytes
		st.SpilledSessions = append(st.SpilledSessions, SpilledSession{
			ID: id, Kind: e.kind, CreatedAt: e.createdAt, Bytes: fileBytes,
			Remote: e.remote && !e.local,
		})
		// Per-tenant spilled usage comes from the memory tier's ownership
		// counters (owned − resident), already in st.Tenants.
	}
	t.mu.Unlock()
	return st
}

// Close implements Store: the SIGTERM drain, ordered after the write-behind
// worker. The GC sweep stops, the worker makes its last pass over the dirty
// set, and then every dirty resident session is snapshotted to the
// spill directory so the next process restores the exact pre-shutdown
// state. Unspillable sessions are counted and skipped.
func (t *Tiered) Close() error {
	t.stopLifecycle()
	var firstErr error
	t.mem.Range(func(sess *Session) bool {
		if t.faultAt("drain.session") != nil {
			return false // simulated crash mid-drain
		}
		sess.Mu.Lock()
		_, err := t.spillLocked(sess)
		if err != nil {
			// The session's current state could not be persisted (cap, full
			// disk, IO error). Any older disk copy is now stale relative to
			// honored deletions — the next boot must not resurrect it, so
			// drop it, exactly like the eviction path does. The session's
			// state dies with this process either way; losing it entirely
			// beats silently undoing acknowledged deletions.
			t.invalidate(sess.ID)
		}
		sess.Mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return true
	})
	return firstErr
}

// Sentinel errors distinguishing why a publish could not land.
var (
	// errStaleSpill reports a publish discarded because the chain tip moved
	// between the cut and the rename (a racing publish won). The discarded
	// bytes never reach the index, so a stale publish can never mask a
	// newer one; callers re-cut from current state when durability is owed.
	errStaleSpill = errors.New("store: stale spill cut discarded")
	// errSpillDiskPinned reports a disk budget that could not admit the file
	// because nothing reclaimable remains (every candidate pinned by a clean
	// resident or mid-restore) — transient pressure, not an IO failure.
	errSpillDiskPinned = errors.New("store: disk budget exhausted and every spill file is pinned")
)

// spillCut is one consistent cut of a session's state, captured under
// Session.Mu (cutLocked) and serialized + published — temp file + fsync +
// atomic rename — by publishCut, after the lock is released on the
// write-behind path. The capture copies only the mutable fields (counters,
// the deletion-log slice); the training set and updater are immutable once
// captured (Update allocates its own scratch), so the expensive snapshot
// serialization reads them safely off-lock. payload holds the complete file
// bytes once serialized: a small delta segment carrying only the
// deletion-log suffix when the cut extends an existing chain, a full v2 base
// snapshot otherwise. A fold cut has no payload: it streams its base from
// the chain's old base file.
type spillCut struct {
	sess      *Session
	id        string
	kind      string
	createdAt time.Time
	// ds/upd are the immutable capture inputs a base cut serializes
	// off-lock; deleted is the full log copy for a base envelope, entries
	// the O(batch) suffix for a delta segment.
	ds      priu.TrainingSet
	upd     priu.Updater
	deleted []int
	entries []int
	// fold, when set, names the base file a fold cut copies its snapshot
	// section from (the cut is then a base, not a delta).
	fold string
	// gen is sess.gen at the cut; a successful publish advances
	// persistedGen to it (CAS-max, so a stale publish cannot mask a newer
	// mutation's dirtiness).
	gen       int64
	updates   int64
	lastUpd   float64
	footprint int64
	payload   []byte
	isDelta   bool
	// dirty records that gen was not yet persisted at the cut. Only then
	// can a racing publish make the cut redundant (covered); a cut of a
	// clean session re-creates a missing chain and must land.
	dirty bool
	// fromLen/fromUpdates name the chain tip a delta cut extends — the
	// publish guard; toLen is the deletion-log length at the cut.
	fromLen     int64
	fromUpdates int64
	toLen       int64
}

// cutLocked captures a consistent cut of the session's state — the only
// part of a spill that must happen under sess.Mu, and it is O(batch): copy
// the counters and the deletion-log suffix (or, for a base, the log slice),
// no snapshot serialization and no IO. Where the IO then runs depends on
// the caller: the write-behind worker publishes (file writes and the blob
// push) after releasing sess.Mu, while spillLocked's callers — the eviction
// fallback, the drain and the handoff — publish while still holding it. It
// returns a nil cut (no error) when there is nothing to write: the session
// is clean and its chain current. A chain whose blob push failed is not
// pushed again here; the GC sweep's blob pass and the boot scan retry it.
// When the indexed chain covers a prefix of the current deletion log, the
// cut is a delta segment — O(batch) bytes, not O(session) — unless the
// chain already holds compactAfter segments: then the cut folds it into a
// new base (O(log) under the lock, the snapshot bytes copied from the old
// base at publish), which publishes like every base: a crash leaves either
// the old chain or the new base authoritative. Otherwise it is a full base.
func (t *Tiered) cutLocked(sess *Session) (*spillCut, error) {
	if !sess.Dirty() {
		t.mu.Lock()
		_, onDisk := t.index[sess.ID]
		t.mu.Unlock()
		if onDisk {
			// Clean and already spilled: nothing to write. The disk-budget
			// evictor never reclaims a clean session's only copy (a clean
			// resident's chain without blob backing is pinned; a blob-backed
			// chain may be demoted but its entry survives), so the copy this
			// decision relies on cannot vanish underneath it.
			return nil, nil
		}
	}
	if !Spillable(sess.Kind, sess.Upd) {
		t.unspillable.Add(1)
		return nil, fmt.Errorf("store: session %s (family %q) cannot be snapshotted", sess.ID, sess.Kind)
	}
	cut := &spillCut{
		sess: sess, id: sess.ID, kind: sess.Kind, createdAt: sess.CreatedAt,
		gen: sess.gen.Load(), updates: sess.Updates, lastUpd: sess.LastUpdateSeconds,
		footprint: sess.footprint, toLen: int64(len(sess.Deleted)),
		dirty: sess.Dirty(),
	}
	var base string
	t.mu.Lock()
	if e := t.index[sess.ID]; e != nil && e.local && e.logLen <= cut.toLen {
		// The chain covers a prefix of the current log: spill only the
		// suffix. The deletion log is append-only per session, so a
		// prefix-length match means a content match — the publish guard
		// re-checks the tip under t.mu.
		cut.isDelta = true
		cut.fromLen = e.logLen
		cut.fromUpdates = e.updates
		if t.compactAfter > 0 && len(e.deltas) >= t.compactAfter {
			base = e.key
		}
	}
	t.mu.Unlock()
	if cut.isDelta && cut.fromLen == cut.toLen && cut.fromUpdates == cut.updates {
		// Dirty by generation but the chain tip already matches the log and
		// counters exactly — the chain holds this logical state (deletion is
		// the only mutation, and it always moves the log or the counter).
		sess.persistUpTo(cut.gen)
		return nil, nil
	}
	switch {
	case base != "":
		// The chain is full: this cut is a base that replaces it. Its
		// snapshot section is the old base's, which never changes after
		// capture (deletions only grow the envelope's log), so only the log
		// is copied here.
		cut.isDelta, cut.fold = false, base
		cut.deleted = append([]int(nil), sess.Deleted...)
	case cut.isDelta:
		cut.entries = append([]int(nil), sess.Deleted[cut.fromLen:cut.toLen]...)
	default:
		cut.ds, cut.upd = sess.DS, sess.Upd
		cut.deleted = append([]int(nil), sess.Deleted...)
	}
	return cut, nil
}

// covered reports whether another publish already persisted the cut's
// generation — the eviction's synchronous spill and a write-behind cut of
// the same generation race to publish, and the loser must not write the
// same state a second time.
func (cut *spillCut) covered() bool {
	return cut.dirty && cut.gen <= cut.sess.persistedGen.Load()
}

// serialize renders a delta or base cut's file bytes into the payload
// buffer. Called from publishCut, which the write-behind worker reaches
// after releasing the session lock — the capture copied every mutable
// input, and the training set and updater never mutate after capture, so
// even the O(session) base snapshot serializes without blocking readers.
func (cut *spillCut) serialize() error {
	var buf bytes.Buffer
	if cut.isDelta {
		if err := writeDeltaSegment(&buf, cut, cut.entries); err != nil {
			return fmt.Errorf("store: cutting delta for %s: %w", cut.id, err)
		}
	} else {
		// v2 base: the deletion log lives in the envelope; the embedded
		// snapshot's own log section is written empty, which is what lets a
		// fold or a blob push copy it byte for byte.
		if err := writeSpillEnvelope(&buf, cut.id, cut.kind, cut.createdAt, cut.updates, cut.lastUpd, cut.deleted); err != nil {
			return err
		}
		if err := priu.WriteSessionSnapshot(&buf, cut.kind, cut.ds, cut.upd, nil); err != nil {
			return fmt.Errorf("store: snapshotting session %s: %w", cut.id, err)
		}
	}
	cut.payload = buf.Bytes()
	return nil
}

// writeCut streams the cut's file bytes to w: the serialized payload, or for a
// fold the new envelope followed by the old base's snapshot section, which
// is never held whole in memory.
func (t *Tiered) writeCut(w io.Writer, cut *spillCut) error {
	if cut.fold == "" {
		_, err := w.Write(cut.payload)
		return err
	}
	return t.spliceBase(w, cut.id, cut.fold, func(env *spillEnvelope) error {
		env.updates, env.lastUpdateSeconds, env.deleted = cut.updates, cut.lastUpd, cut.deleted
		return nil
	})
}

// publishCut stages a cut's payload in the spill directory (temp file +
// fsync) and commits it with an atomic rename — all without holding the
// session's Mu (the write-behind worker calls it after releasing the lock;
// synchronous callers may still hold it). The stage runs off t.mu; the
// commit happens under t.mu behind the chain guard, so a cut never becomes
// a visible key before its guard passes, and a stale cut, a gone
// incarnation or a budget refusal aborts the temp instead. A delta
// lands only if the entry's tip still names exactly the (logLen, updates)
// the cut extends, and a base only if it is not older than the indexed tip —
// so a stale publish is discarded (errStaleSpill), never installed.
//
// Publishing enforces the storage bounds in order: the tenant's spill-byte
// cap (a *QuotaError rejection drops the write), then the global disk
// budget (evicting LRU spill files to make room), then the rename.
//
// A fold is a base like any other, and these guards are its whole guard: it
// reads nothing from the chain but the base's immutable snapshot section. If
// that base is gone by the time the fold opens it — a newer publish, a
// Delete or a disk eviction replaced the chain — the fold is stale.
func (t *Tiered) publishCut(cut *spillCut) (bool, error) {
	start := time.Now()
	if cut.covered() {
		t.staleSpills.Add(1)
		return false, errStaleSpill
	}
	if cut.fold == "" {
		if err := t.faultAt("spill.serialize"); err != nil {
			t.spillErrors.Add(1)
			return false, err
		}
		if err := cut.serialize(); err != nil {
			t.spillErrors.Add(1)
			return false, err
		}
	}
	if err := t.faultAt("spill.create-temp"); err != nil {
		t.spillErrors.Add(1)
		return false, err
	}
	h := sha256.New()
	tmp, err := t.local.stage(func(w io.Writer) error {
		return t.writeCut(io.MultiWriter(w, h), cut)
	})
	if err != nil {
		if cut.fold != "" && errors.Is(err, ErrBlobNotFound) {
			t.staleSpills.Add(1)
			return false, errStaleSpill
		}
		t.spillErrors.Add(1)
		return false, fmt.Errorf("store: writing spill temp file: %w", err)
	}
	if m := t.metrics; m != nil {
		m.FsyncSeconds.Observe(tmp.fsync.Seconds())
	}
	if err := t.faultAt("spill.after-temp"); err != nil {
		// Simulated crash after the temp write: the file stays behind, as a
		// real kill would leave it, for the boot sweep or GC to clean up.
		t.spillErrors.Add(1)
		return false, err
	}
	size := tmp.size
	ext := spillExt
	if cut.isDelta {
		ext = deltaExt
	}
	key := hex.EncodeToString(h.Sum(nil))[:32] + ext
	ten := TenantOf(cut.id)
	t.mu.Lock()
	e := t.index[cut.id]
	// A cut is stale when the copy it came from has left the store (a
	// Delete or lost eviction landed after the cut: installing it would
	// resurrect state the caller was told is gone, and if the id was
	// re-registered meanwhile the NEW incarnation's chain tip can coincide
	// with the old one — both at logLen=0/updates=0 — so only this flag
	// tells them apart; every removal path marks the outgoing copy gone
	// before releasing t.mu), when a racing publish of its generation landed
	// while the payload was written (covered, re-checked here where every
	// publish advances persistedGen), or when the chain guard fails.
	stale := cut.sess.gone.Load() || cut.covered()
	if cut.isDelta {
		stale = stale || e == nil || !e.local || e.logLen != cut.fromLen || e.updates != cut.fromUpdates
	} else {
		stale = stale || (e != nil && tipNewer(e.updates, e.logLen, cut.updates, cut.toLen))
	}
	if stale {
		t.mu.Unlock()
		t.local.abort(tmp)
		t.staleSpills.Add(1)
		return false, errStaleSpill
	}
	// Reserve and publish in one critical section. A delta charges only its
	// own bytes on top of the chain; a base replaces the whole chain, so
	// both the tenant cap and the disk budget are charged the byte DELTA
	// against it — a same-size rewrite near the cap never spuriously fails
	// (the brief both-files window between the rename and the old-file
	// unlinks is tolerated like in-flight temps).
	var oldCharge int64
	if e != nil {
		oldCharge = e.spillCharged
	}
	newCharge := size
	if cut.isDelta {
		newCharge = oldCharge + size
	}
	if err := t.mem.reserveSpill(ten, newCharge-oldCharge); err != nil {
		t.mu.Unlock()
		t.local.abort(tmp)
		t.spillErrors.Add(1)
		return false, err
	}
	// The disk gauge counts only local files: replacing a remote-only entry
	// (demoted cache, or adopted from the blob tier) charges the full new
	// file, not the delta against bytes that never lived here.
	diskDelta := size
	if !cut.isDelta && e != nil && e.local {
		diskDelta = size - e.localBytes()
	}
	ok, pinned := t.reserveDiskLocked(diskDelta, cut.id)
	if !ok {
		budget := t.maxDiskBytes
		t.mu.Unlock()
		t.mem.adjustSpill(ten, oldCharge-newCharge)
		t.local.abort(tmp)
		t.spillErrors.Add(1)
		if pinned {
			return false, fmt.Errorf("store: spilling %s: %d bytes cannot fit the %d-byte disk budget: %w",
				cut.id, size, budget, errSpillDiskPinned)
		}
		return false, fmt.Errorf("store: spilling %s: %d bytes cannot fit the %d-byte disk budget", cut.id, size, budget)
	}
	if err := t.local.commit(tmp, key); err != nil {
		t.diskBytes -= diskDelta
		t.mu.Unlock()
		t.mem.adjustSpill(ten, oldCharge-newCharge)
		t.spillErrors.Add(1)
		return false, err
	}
	now := time.Now().UnixNano()
	var oldFiles []keyBytes
	if cut.isDelta {
		e.deltas = append(e.deltas, deltaSeg{
			key: key, bytes: size, fromLen: cut.fromLen, fromUpdates: cut.fromUpdates,
			entries: cut.toLen - cut.fromLen, updates: cut.updates, lastUpd: cut.lastUpd,
		})
		e.logLen = cut.toLen
		e.updates = cut.updates
		e.spillCharged = newCharge
		// The blob object (if any) no longer holds the tip; the push below
		// (or the GC heal pass) re-certifies it from the spliced chain.
		e.remote = false
		e.lastUsed = now
	} else {
		if e != nil {
			for _, kb := range e.localKeys() {
				// When the content hash (and so the key) is identical the
				// rename already overwrote the old base in place.
				if kb.key != key {
					oldFiles = append(oldFiles, kb)
				}
			}
			t.unlinkingLocked(oldFiles)
		}
		t.index[cut.id] = &spillEntry{
			key: key, bytes: size, kind: cut.kind, createdAt: cut.createdAt,
			local: true, updates: cut.updates, logLen: cut.toLen,
			charged: cut.footprint, spillCharged: newCharge, lastUsed: now,
		}
	}
	// Advance persistedGen inside the same critical section that published
	// the entry: the disk-budget evictor classifies files by Dirty() under
	// t.mu, and must never observe the fresh chain still marked dirty — it
	// could reclaim it while a concurrent eviction concludes "preserved".
	// persistUpTo is a CAS-max, so if the session object was re-registered
	// or restored meanwhile this is a no-op, never a regression.
	cut.sess.persistUpTo(cut.gen)
	t.mu.Unlock()
	for _, kb := range oldFiles {
		t.removeSpillFile(kb.key, kb.bytes, "spill.unlink-old")
	}
	t.spills.Add(1)
	switch {
	case cut.isDelta:
		t.deltaSpills.Add(1)
	case cut.fold != "":
		t.compactions.Add(1)
	}
	if m := t.metrics; m != nil {
		hist := m.SpillSeconds
		if cut.fold != "" {
			hist = m.CompactionSeconds
		}
		observeSince(hist, start)
	}
	// Write-behind to the shared tier: push the just-published tip up. A
	// failure leaves the entry local-only — restorable here, healed upward by
	// the GC sweep — and never fails the spill (local durability landed).
	if t.blob != nil {
		_ = t.blobPush(cut.id)
	}
	return true, nil
}

// spillLocked writes the session's current state to the disk tier,
// reporting whether a file was actually written (clean sessions with a
// current chain are skipped). Callers hold sess.Mu, so the cut is
// consistent: any deletion applied after it will either be re-applied by a
// mutator that sees the gone flag or land in a later spill. A publish that
// loses the chain race to an OLDER in-flight background publish re-cuts
// from the (still locked, hence unchanged) current state and retries, so
// this never returns success for anything but the session's latest
// generation — the synchronous eviction fallback always persists the
// current state, never an enqueued stale buffer. The publish, its blob
// push included, runs under the caller's sess.Mu.
func (t *Tiered) spillLocked(sess *Session) (bool, error) {
	if sess.gone.Load() {
		// The copy already left the store (a concurrent Delete won the race
		// to sess.Mu before this caller): publishCut would discard every cut
		// as stale, so don't burn serialization attempts — there is nothing
		// of this copy left to persist.
		return false, nil
	}
	for attempt := 0; attempt < 8; attempt++ {
		cut, err := t.cutLocked(sess)
		if err != nil || cut == nil {
			return false, err
		}
		wrote, err := t.publishCut(cut)
		if errors.Is(err, errStaleSpill) {
			continue // an in-flight background publish moved the tip; re-cut
		}
		return wrote, err
	}
	return false, fmt.Errorf("store: spill of %s kept losing the publish race", sess.ID)
}

// tipNewer reports whether the chain tip (aUpd, aLen) is ahead of (bUpd,
// bLen): the per-session update counter decides, then the deletion-log
// length.
func tipNewer(aUpd, aLen, bUpd, bLen int64) bool {
	return aUpd > bUpd || (aUpd == bUpd && aLen > bLen)
}

// spillEnvelope is the decoded header of one spill file.
type spillEnvelope struct {
	id                string
	kind              string
	createdAt         time.Time
	updates           int64
	lastUpdateSeconds float64
	// deleted is the full deletion log, carried ahead of the embedded
	// snapshot so a fold or a blob push can splice logs without decoding the
	// model.
	deleted []int
}

// errSpillVersion marks a spill envelope this build does not read. A local
// base of another version fails the boot instead of being orphaned: the GC
// would delete it and drop the session from every tier unannounced. A blob
// object of another version is left in place and not served (the GC never
// deletes remote objects).
var errSpillVersion = errors.New("store: unsupported spill-file version")

// readSpillEnvelope decodes a version-2 spill file's header, returning the
// reader positioned at the embedded session snapshot.
func readSpillEnvelope(r io.Reader) (*binio.Reader, spillEnvelope, error) {
	br := binio.NewReader(r)
	var env spillEnvelope
	if err := br.Magic(spillMagic); err != nil {
		return nil, env, fmt.Errorf("store: %w", err)
	}
	if v := br.U64(); br.Err == nil && v != spillVersion {
		// Every version so far starts with the session ID: name it, so the
		// boot can tell a deleted session's leftover from a live base.
		env.id = br.Str(maxSpillName)
		return nil, env, fmt.Errorf("%w %d", errSpillVersion, v)
	}
	env.id = br.Str(maxSpillName)
	env.kind = br.Str(maxSpillName)
	env.createdAt = time.Unix(0, br.I64())
	env.updates = br.I64()
	env.lastUpdateSeconds = br.F64()
	n := br.U64()
	if br.Err == nil && n > uint64(binio.MaxElems) {
		return nil, env, fmt.Errorf("store: spill deletion log claims %d entries", n)
	}
	// Grow incrementally so a torn length prefix can't force a huge
	// allocation before the short read surfaces.
	env.deleted = make([]int, 0, min(int(n), 4096))
	for i := uint64(0); i < n && br.Err == nil; i++ {
		env.deleted = append(env.deleted, int(br.I64()))
	}
	if br.Err != nil {
		return nil, env, br.Err
	}
	if env.id == "" {
		return nil, env, fmt.Errorf("store: spill file has no session ID")
	}
	return br, env, nil
}

// writeSpillEnvelope writes a v2 spill-file header, including the full
// deletion log, leaving the writer positioned for the embedded snapshot
// (which is then written with a nil log).
func writeSpillEnvelope(w io.Writer, id, kind string, createdAt time.Time, updates int64, lastUpd float64, deleted []int) error {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(spillMagic))
	bw.U64(spillVersion)
	bw.Str(id)
	bw.Str(kind)
	bw.I64(createdAt.UnixNano())
	bw.I64(updates)
	bw.F64(lastUpd)
	bw.U64(uint64(len(deleted)))
	for _, v := range deleted {
		bw.I64(int64(v))
	}
	return bw.Flush()
}

// chainTail carries the deletion-log suffix and tip counters accumulated
// from a base's delta segments, to be replayed (or spliced) on top of it.
type chainTail struct {
	// fromLen/fromUpdates name the base tip the first segment extends.
	fromLen     int64
	fromUpdates int64
	entries     []int
	updates     int64
	lastUpd     float64
}

// readTail reads a chain's delta segments in order, verifying against the
// file contents that each one extends the tip before it. A nil tail means
// no segments.
func (t *Tiered) readTail(id string, segs []deltaSeg) (*chainTail, error) {
	if len(segs) == 0 {
		return nil, nil
	}
	tail := &chainTail{fromLen: segs[0].fromLen, fromUpdates: segs[0].fromUpdates}
	tipLen, tipUpd := tail.fromLen, tail.fromUpdates
	for _, sg := range segs {
		rc, _, err := t.local.Get(sg.key)
		if err != nil {
			return nil, fmt.Errorf("store: reading delta segment for %s: %w", id, err)
		}
		d, err := readDelta(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("store: reading delta segment for %s: %w", id, err)
		}
		if d.id != id || d.fromLen != tipLen || d.fromUpdates != tipUpd {
			return nil, fmt.Errorf("store: delta segment %s does not extend %s's chain", sg.key, id)
		}
		tail.entries = append(tail.entries, d.entries...)
		tipLen, tipUpd = tipLen+int64(len(d.entries)), d.updates
		tail.updates, tail.lastUpd = d.updates, d.lastUpd
	}
	return tail, nil
}

// extends reports whether the tail's first segment continues env's tip.
func (tail *chainTail) extends(env *spillEnvelope) bool {
	return tail.fromLen == int64(len(env.deleted)) && tail.fromUpdates == env.updates
}

// buildSession decodes a spill envelope and its embedded snapshot from r and
// rebuilds the session, replaying the full deletion log — the envelope's
// plus any delta-chain tail — in one Update call, so every honored deletion
// stays deleted in the restored model.
func (t *Tiered) buildSession(id string, r io.Reader, tail *chainTail) (*Session, spillEnvelope, error) {
	br, env, err := readSpillEnvelope(r)
	if err != nil {
		return nil, env, err
	}
	if env.id != id {
		return nil, env, fmt.Errorf("store: spill data holds session %s, want %s", env.id, id)
	}
	family, ds, upd, snapDeleted, err := priu.ReadSessionSnapshot(br.R)
	if err != nil {
		return nil, env, fmt.Errorf("store: restoring session %s: %w", id, err)
	}
	if len(snapDeleted) > 0 {
		return nil, env, fmt.Errorf("store: spill data of %s carries a log inside its snapshot", id)
	}
	deleted := env.deleted
	updates, lastUpd := env.updates, env.lastUpdateSeconds
	if tail != nil {
		if !tail.extends(&env) {
			return nil, env, fmt.Errorf("store: delta chain of %s does not extend its base", id)
		}
		deleted = append(deleted, tail.entries...)
		updates, lastUpd = tail.updates, tail.lastUpd
	}
	model := upd.Model()
	if len(deleted) > 0 {
		model, err = upd.Update(deleted)
		if err != nil {
			return nil, env, fmt.Errorf("store: replaying deletion log of %s: %w", id, err)
		}
	}
	sess := &Session{
		ID:                id,
		Kind:              family,
		CreatedAt:         env.createdAt,
		DS:                ds,
		Upd:               upd,
		Model:             model,
		Deleted:           deleted,
		Updates:           updates,
		LastUpdateSeconds: lastUpd,
		footprint:         TrainingSetBytes(ds) + upd.FootprintBytes(),
		// gen == persistedGen == 0: the spilled chain is exactly this state.
	}
	sess.Touch()
	return sess, env, nil
}

// restore rebuilds a session and publishes it to the in-memory tier — from
// the entry's local base + delta chain when it has one, from the shared
// blob tier otherwise. A nil entry is an adopt: the session has no local
// state at all (created by another replica, or handed off), and it is
// indexed remote-only once its envelope is read; a plain blob miss returns
// (nil, nil). The chain is snapshotted under t.mu so a racing publish
// cannot change it mid-read; only cuts of a resident session replace a
// chain, and the disk-budget evictor skips ids with a restore flight, so the
// snapshotted files stay on disk. Callers own the singleflight for id.
func (t *Tiered) restore(id string, e *spillEntry) (*Session, error) {
	start := time.Now()
	var (
		base string
		segs []deltaSeg
	)
	if e != nil {
		t.mu.Lock()
		if e.local {
			base, segs = e.key, append([]deltaSeg(nil), e.deltas...)
		}
		t.mu.Unlock()
	}
	var (
		src  io.ReadCloser
		size int64
		tail *chainTail
		err  error
	)
	if base != "" {
		if tail, err = t.readTail(id, segs); err != nil {
			return nil, err
		}
		if src, _, err = t.local.Get(base); err != nil {
			return nil, fmt.Errorf("store: opening spill file for %s: %w", id, err)
		}
	} else {
		if e == nil {
			t.tombstoneSettle(id) // an adopt may follow a retirement of id
		}
		if err := t.faultAt("blob.get"); err != nil {
			return nil, err
		}
		getStart := time.Now()
		if src, size, err = t.blob.Get(id); err != nil {
			if err != ErrBlobNotFound {
				t.blobErrors.Add(1)
			} else if e == nil {
				return nil, nil
			}
			return nil, fmt.Errorf("store: fetching %s from blob tier: %w", id, err)
		}
		t.blobGets.Add(1)
		if m := t.metrics; m != nil {
			observeSince(m.BlobGetSeconds, getStart)
		}
	}
	sess, env, err := t.buildSession(id, src, tail)
	src.Close()
	if err != nil {
		return nil, err
	}
	ten := TenantOf(id)
	t.mu.Lock()
	if e == nil {
		// Adopt: publish the remote-only entry and seed the tenant's
		// cross-tier ownership — this node has never accounted for the
		// session. A Delete or a concurrent publisher that got here first
		// wins.
		if t.tombstones[id] != nil {
			t.mu.Unlock()
			return nil, nil // an acknowledged delete owns this key
		}
		if t.index[id] != nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("store: adoption of %s raced a local publish", id)
		}
		if size < 0 {
			size = sess.footprint // streaming source of unknown length: approximate
		}
		t.index[id] = &spillEntry{
			remote: true, bytes: size, kind: sess.Kind, createdAt: sess.CreatedAt,
			charged: sess.footprint, spillCharged: size, updates: env.updates,
			logLen: int64(len(env.deleted)), lastUsed: time.Now().UnixNano(),
		}
		t.mu.Unlock()
		t.mem.adjustOwned(ten, 1, sess.footprint)
		t.mem.adjustSpill(ten, size)
	} else {
		// No quota check on a restore: the session already counts against
		// its tenant, only the resident-tier accounting moves. If the entry
		// was seeded from a reboot (billed at file size), settle the
		// ownership byte charge to the true resident footprint now.
		if t.index[id] == e {
			if e.charged != sess.footprint {
				t.mem.adjustOwned(ten, 0, sess.footprint-e.charged)
				e.charged = sess.footprint
			}
			e.lastUsed = time.Now().UnixNano()
		}
		t.mu.Unlock()
	}
	sess.notifyDirty = t.enqueueSpill
	t.restores.Add(1)
	if m := t.metrics; m != nil && e != nil {
		observeSince(m.RestoreSeconds, start) // adopts are not timed as restores
	}
	t.mem.putRestored(sess)
	// A Delete (or disk-budget eviction) that raced the restore removed the
	// index entry; honor it instead of resurrecting the session.
	t.mu.Lock()
	_, still := t.index[id]
	t.mu.Unlock()
	if !still {
		t.mem.drop(id)
		return nil, nil
	}
	return sess, nil
}

// spillObject is one classified object of a spill-directory or blob-tier
// listing: a base envelope or a delta segment. id is empty for foreign or
// unreadable bytes; torn marks a delta whose header decoded but whose
// entries did not follow in full.
type spillObject struct {
	BlobInfo
	id    string
	base  bool
	env   spillEnvelope
	delta deltaData
	torn  bool
}

// tip is the chain tip a base object or delta segment ends at.
func (o *spillObject) tip() (updates, logLen int64) {
	if o.base {
		return o.env.updates, int64(len(o.env.deleted))
	}
	return o.delta.updates, o.delta.fromLen + int64(len(o.delta.entries))
}

// classify reads the header of one listed object — the one classifier the
// boot scan and the GC share. A spill envelope of a version this build does
// not read is the only error, returned with the object's id; anything else
// unreadable is an orphan.
func classify(bs BlobStore, info BlobInfo) (spillObject, error) {
	obj := spillObject{BlobInfo: info}
	rc, _, err := bs.Get(info.Key)
	if err != nil {
		return obj, nil
	}
	defer rc.Close()
	br := binio.NewReader(rc)
	switch magic, _ := br.R.Peek(len(spillMagic)); string(magic) {
	case spillMagic:
		_, env, err := readSpillEnvelope(br.R)
		if errors.Is(err, errSpillVersion) {
			obj.id = env.id
			return obj, fmt.Errorf("store: spill file %s: %w", info.Key, err)
		}
		if err == nil {
			obj.id, obj.base, obj.env = env.id, true, env
		}
	case deltaMagic:
		d, err := readDelta(br.R)
		obj.id, obj.delta, obj.torn = d.id, d, err != nil
	}
	return obj, nil
}

// boot builds the index from the listings — the spill directory's and, with
// a blob tier, the shared tier's — in one pass with one newest-wins rule
// (tipNewer, then file mtime between local bases). Local bases are
// deduplicated (several claim one session after a crash between publishing
// a new base — a base spill or a fold — and unlinking the old chain), delta
// segments re-attach to the winner by (fromLen, fromUpdates) continuity, and
// every loser, unchained or torn segment is removed, so the indexed chain
// replays without gaps. Files and objects of tombstoned sessions are
// deleted, never indexed, whatever their version. A blob object ahead of the local chain means
// another replica advanced the session while this node was down: the local
// chain is a stale cache and is dropped; a local chain ahead of (or absent
// from) the blob tier is pushed up. Unreadable leftovers seed the orphan
// share of the spill_dir_bytes gauge for the GC. An unreachable blob tier
// fails the boot — a replica serving from a stale local cache would undo
// deletions other replicas honored — and so does a local base of a version
// this build does not read. A blob object of such a version is logged by
// key and left out of the index.
func (t *Tiered) boot() error {
	infos, err := t.local.List("")
	if err != nil {
		return fmt.Errorf("store: reading spill dir: %w", err)
	}
	bases := make(map[string][]spillObject)
	deltas := make(map[string][]spillObject)
	tombSwept := make(map[string]bool) // tombstoned ids whose files all unlinked cleanly
	for id := range t.tombstones {
		tombSwept[id] = true
	}
	for _, info := range infos {
		if info.Key == tombstoneFile {
			continue
		}
		obj, err := classify(t.local, info)
		switch {
		case obj.id != "" && t.tombstones[obj.id] != nil:
			if t.local.Delete(info.Key) != nil {
				tombSwept[obj.id] = false
			}
		case err != nil:
			return err
		case obj.id == "":
			t.orphanBytes += info.Size
		case obj.torn:
			// One of our segments with a truncated body: no restore can
			// replay it, so the intact chain prefix serves without it.
			_ = t.local.Delete(info.Key)
		case obj.base:
			bases[obj.id] = append(bases[obj.id], obj)
		default:
			deltas[obj.id] = append(deltas[obj.id], obj)
		}
	}
	for id, cands := range bases {
		best := cands[0]
		for _, b := range cands[1:] {
			bu, bl := b.tip()
			pu, pl := best.tip()
			if tipNewer(bu, bl, pu, pl) || (!tipNewer(pu, pl, bu, bl) && b.ModTime.After(best.ModTime)) {
				best = b
			}
		}
		for _, b := range cands {
			if b.Key != best.Key {
				_ = t.local.Delete(b.Key)
			}
		}
		e := &spillEntry{
			key: best.Key, bytes: best.Size, kind: best.env.kind, createdAt: best.env.createdAt,
			local: true, lastUsed: best.ModTime.UnixNano(),
		}
		e.updates, e.logLen = best.tip()
		rest := deltas[id]
		for {
			found := -1
			for i, d := range rest {
				if d.delta.fromLen == e.logLen && d.delta.fromUpdates == e.updates {
					found = i
					break
				}
			}
			if found < 0 {
				break
			}
			d := rest[found]
			rest = append(rest[:found], rest[found+1:]...)
			e.deltas = append(e.deltas, deltaSeg{
				key: d.Key, bytes: d.Size, fromLen: d.delta.fromLen,
				fromUpdates: d.delta.fromUpdates, entries: int64(len(d.delta.entries)),
				updates: d.delta.updates, lastUpd: d.delta.lastUpd,
			})
			e.updates, e.logLen = d.tip()
			e.lastUsed = max(e.lastUsed, d.ModTime.UnixNano())
		}
		deltas[id] = rest // unchained: superseded by a base or fold, or past a torn segment
		// The resident footprint isn't known without restoring; bill the
		// chain size until the first restore settles the difference.
		e.charged = e.localBytes()
		e.spillCharged = e.charged
		t.index[id] = e
		t.diskBytes += e.charged
	}
	// Segments that chain to no indexed base are unusable.
	for _, ds := range deltas {
		for _, d := range ds {
			_ = t.local.Delete(d.Key)
		}
	}
	// Every local file of a tombstoned session has now been unlinked (or
	// none existed): resolve the local side of those tombstones.
	for id, clean := range tombSwept {
		if clean {
			t.tombstoneResolve(id, tombLocal)
		}
	}
	if t.blob == nil {
		return nil
	}
	remote, err := t.blob.List("")
	if err != nil {
		return fmt.Errorf("store: listing blob tier: %w", err)
	}
	for _, info := range remote {
		id := info.Key
		if t.tombstones[id] != nil {
			t.blobRemove(id) // an acknowledged delete whose blob removal had not stuck
			continue
		}
		if t.faultAt("blob.get") != nil {
			continue
		}
		obj, err := classify(t.blob, info)
		if err != nil {
			// Written by an older release: left in place and not indexed.
			// A read of the id fails; a local chain of the id replaces it.
			log.Printf("%v (left in the blob tier, not served)", err)
			continue
		}
		if !obj.base || obj.id != id {
			continue // unreadable object: never certify it as anything
		}
		ru, rl := obj.tip()
		e := t.index[id]
		switch {
		case e == nil:
			t.index[id] = &spillEntry{
				remote: true, bytes: info.Size, kind: obj.env.kind, createdAt: obj.env.createdAt,
				charged: info.Size, spillCharged: info.Size,
				updates: ru, logLen: rl, lastUsed: info.ModTime.UnixNano(),
			}
		case tipNewer(ru, rl, e.updates, e.logLen):
			for _, kb := range e.localKeys() {
				_ = t.local.Delete(kb.key)
			}
			t.diskBytes -= e.localBytes()
			e.key, e.local, e.deltas, e.remote = "", false, nil, true
			e.bytes, e.charged, e.spillCharged = info.Size, info.Size, info.Size
			e.kind, e.createdAt = obj.env.kind, obj.env.createdAt
			e.updates, e.logLen = ru, rl
		case !tipNewer(e.updates, e.logLen, ru, rl):
			e.remote = true // same tip: the local chain caches the blob object
		}
	}
	for id, e := range t.index {
		if e.local && !e.remote {
			_ = t.blobPush(id)
		}
	}
	return nil
}
