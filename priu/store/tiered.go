package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binio"
	"repro/priu"
)

// Spill-file envelope: a small header carrying the store-level identity,
// counters and (since version 2) the cumulative deletion log, followed by
// the self-contained snapshot (family + dataset + provenance; the embedded
// snapshot's own log section is empty in v2 files). Keeping the log in the
// envelope makes the disk tier log-structured: a spill of a mutated session
// appends a small delta segment carrying only the log suffix since the
// base, and compaction folds a chain into a new base by splicing — merged
// envelope plus the base's snapshot bytes copied verbatim, no model decode.
// Files are content-addressed — named by the SHA-256 of their bytes — and
// written as temp-file + fsync + rename, so a crash mid-spill leaves at
// worst an ignorable temp file, never a torn session or delta. Version 1
// files (log inside the snapshot) remain readable; they are opaque to
// splicing, so the first dirty spill on top of one rewrites a v2 base.
const (
	spillMagic   = "PRSP"
	spillVersion = 2
	spillExt     = ".sess"
	spillTmp     = "tmp-"

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
	path  string
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
// local/remote is true: local means path names a base file (and deltas its
// chain) in the spill directory, remote means the shared blob tier holds
// the same logical tip (when both are set the local chain is a read cache
// of the blob object).
type spillEntry struct {
	path      string
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
	// with updates it is the guard a delta publish must match. -1 marks a
	// version-1 base whose log lives inside the snapshot (unknown without
	// decoding): such chains take no deltas; the next dirty spill rewrites
	// a v2 base.
	logLen int64
	// charged is what the session's tenant ownership was billed for this
	// session (guarded by Tiered.mu): the resident footprint when spilled by
	// this process, the file size when seeded from a reboot reindex (the
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

// localPaths returns every file the entry owns (base first, then the chain).
func (e *spillEntry) localPaths() []pathBytes {
	if !e.local {
		return nil
	}
	out := make([]pathBytes, 0, 1+len(e.deltas))
	out = append(out, pathBytes{e.path, e.bytes})
	for i := range e.deltas {
		out = append(out, pathBytes{e.deltas[i].path, e.deltas[i].bytes})
	}
	return out
}

// pathBytes pairs a file path with its accounted size.
type pathBytes struct {
	path  string
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
// hot path: a write-behind queue snapshots dirty sessions eagerly so most
// evictions just drop the resident copy, a disk budget evicts
// least-recently-used spill files, and an age-based GC sweeps orphaned
// leftovers.
type Tiered struct {
	mem *Memory
	dir string

	// blob, when set (WithBlobStore), is the shared tier the spill directory
	// caches; see tieredblob.go.
	blob BlobStore

	// Lifecycle configuration (fixed after NewTiered).
	spillOnEvict  bool
	maxDiskBytes  int64
	queueLen      int
	workers       int
	gcAge         time.Duration
	gcInterval    time.Duration
	coalesceN     int           // spill after this many updates (1 = every)
	coalesceQuiet time.Duration // ... or after this long with no new mutation (n > 1 only)
	compactAfter  int           // fold a chain once it holds this many deltas (0 = never)

	mu      sync.Mutex
	index   map[string]*spillEntry
	flights map[string]*flight
	// diskBytes is the total size of indexed spill files (bases + delta
	// chains); orphanBytes is what else the boot scan / GC sweeps found in
	// the directory (crash leftovers — in-flight temp files and the
	// tombstone sidecar are excluded). Their sum is the served
	// spill_dir_bytes gauge, and the disk budget bounds it. Both are
	// guarded by mu.
	diskBytes   int64
	orphanBytes int64
	// blobPutting gates blob uploads (one in flight per session);
	// compacting gates chain folds the same way. Guarded by mu.
	blobPutting map[string]bool
	compacting  map[string]bool
	// tombstones is the pending set of deletion tombstones (tombstone.go):
	// ids of acknowledged deletes whose local unlinks or blob delete have
	// not stuck yet. Read paths refuse tombstoned ids, boot replays the
	// sidecar log, and the GC sweep retries until resolution. Guarded by mu.
	tombstones map[string]*tombstone

	// Write-behind queue state (lifecycle.go). pending holds the queued
	// session records, keyed by record rather than ID: an evicted
	// incarnation still waiting in the queue must not stand in for the
	// restored one that replaced it.
	qmu      sync.Mutex
	queue    chan *Session
	pending  map[*Session]bool
	debounce map[string]*debEntry
	qClosed  bool
	inflight atomic.Int64
	// stopBG stops the background loops (GC sweep, coalescing quiet sweep).
	stopBG chan struct{}
	wg     sync.WaitGroup

	// tombMu serializes appends/rewrites of the tombstone sidecar log;
	// tombRecords counts records appended since the last rewrite (the GC
	// compacts the log when resolved records dominate). See tombstone.go.
	tombMu      sync.Mutex
	tombRecords int

	spills        atomic.Int64
	deltaSpills   atomic.Int64
	compactions   atomic.Int64
	staleSpills   atomic.Int64
	restores      atomic.Int64
	spillErrors   atomic.Int64
	restoreErrors atomic.Int64
	unspillable   atomic.Int64
	writeBehind   atomic.Int64
	queueFull     atomic.Int64
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
	// preserve their victim (spilling disabled or the spill failed). These
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
func (t *Tiered) removeSpillFile(path string, bytes int64, faultPoint string) bool {
	if t.faultAt(faultPoint) == nil {
		if err := os.Remove(path); err == nil || os.IsNotExist(err) {
			return true
		}
	}
	t.mu.Lock()
	t.orphanBytes += bytes
	t.mu.Unlock()
	return false
}

// TieredOption configures NewTiered.
type TieredOption func(*Tiered)

// WithSpillOnEvict controls whether budget evictions spill to disk (default
// true). When disabled, evictions drop sessions as in the plain memory store
// (and the write-behind queue is idle) but Close still snapshots dirty
// residents, giving restart durability without an eviction disk tier.
func WithSpillOnEvict(enabled bool) TieredOption {
	return func(t *Tiered) { t.spillOnEvict = enabled }
}

// WithSpillMaxBytes bounds the spill directory (0 = unbounded): when a new
// spill would take the indexed-plus-orphaned file bytes over the budget,
// least-recently-used spill files are evicted first — warm backups of
// resident sessions before disk-only sessions, whose drop loses the session
// and is counted in DiskEvictions.
func WithSpillMaxBytes(b int64) TieredOption {
	return func(t *Tiered) { t.maxDiskBytes = b }
}

// WithWriteBehind sizes the eager-spill queue (default 256 deep, 1 worker).
// A zero queue length disables write-behind entirely: every spill happens
// synchronously on the evicting goroutine, the pre-lifecycle behavior.
func WithWriteBehind(queueLen, workers int) TieredOption {
	return func(t *Tiered) {
		t.queueLen = queueLen
		if workers > 0 {
			t.workers = workers
		}
	}
}

// WithSpillCoalesce debounces the write-behind queue: with n > 1, a mutated
// session is scheduled for a spill only after n updates since its last
// spill, or after quiet with no new mutation — so a dense deletion stream
// pays one delta segment per batch of n, not one per update. With n <= 1
// (the default) every mutation schedules a spill immediately, quiet has no
// effect and no debounce state or quiet sweep exists. Eviction, drain and
// Flush are unaffected — they always persist the current state
// synchronously, so coalescing trades only how soon the background copy
// lands, never whether state survives.
func WithSpillCoalesce(n int, quiet time.Duration) TieredOption {
	return func(t *Tiered) {
		if n > 1 {
			t.coalesceN = n
		}
		if quiet > 0 {
			t.coalesceQuiet = quiet
		}
	}
}

// WithCompaction folds a session's delta chain into a new base snapshot in
// the background once it holds maxDeltas segments (default 8; <= 0 disables
// folding). Compaction is a byte splice — merged envelope plus the base's
// snapshot bytes copied verbatim — published with the same temp + fsync +
// rename discipline as spills: a crash at any point leaves either the old
// chain or the new base authoritative, never a mix.
func WithCompaction(maxDeltas int) TieredOption {
	return func(t *Tiered) { t.compactAfter = maxDeltas }
}

// WithSpillGC runs the age-based spill-directory GC every interval: orphaned
// session files (unindexed — typically left by crashes or failed unlinks of
// long-deleted sessions) and stale temp files older than age are removed,
// and the orphan-byte gauge is refreshed. A zero interval disables the
// background sweep (gcOnce can still be driven directly).
func WithSpillGC(age, interval time.Duration) TieredOption {
	return func(t *Tiered) {
		if age > 0 {
			t.gcAge = age
		}
		t.gcInterval = interval
	}
}

// NewTiered opens (creating if needed) the spill directory, re-indexes the
// session files a previous process left there, installs the spill hook on
// mem's evictions, and starts the lifecycle manager (write-behind workers
// and, when configured, the GC sweep). mem must be freshly constructed and
// not shared.
func NewTiered(dir string, mem *Memory, opts ...TieredOption) (*Tiered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating spill dir: %w", err)
	}
	t := &Tiered{
		mem:          mem,
		dir:          dir,
		index:        make(map[string]*spillEntry),
		flights:      make(map[string]*flight),
		pending:      make(map[*Session]bool),
		debounce:     make(map[string]*debEntry),
		blobPutting:  make(map[string]bool),
		compacting:   make(map[string]bool),
		tombstones:   make(map[string]*tombstone),
		spillOnEvict: true,
		queueLen:     256,
		workers:      1,
		coalesceN:    1,
		compactAfter: 8,
		gcAge:        time.Hour,
	}
	for _, opt := range opts {
		opt(t)
	}
	// Tombstones load before anything else reads the directory or the blob
	// listing: reindex skips (and deletes) files of tombstoned sessions, and
	// syncBlob refuses to re-adopt their objects.
	if err := t.loadTombstones(); err != nil {
		return nil, err
	}
	if err := t.reindex(); err != nil {
		return nil, err
	}
	if err := t.syncBlob(); err != nil {
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
		if t.spillOnEvict {
			// The write-behind queue usually got here first: a clean session
			// with a current disk copy is preserved by just dropping the
			// resident copy — no file IO under the victim's lock. The
			// synchronous spill is the fallback (dirty victim, queue
			// backlog, or write-behind disabled).
			_, needPush, err := t.spillLocked(sess)
			if err == nil {
				if needPush {
					// The chain's blob upload is owed, but the evictor holds
					// the victim's Mu (and a shard lock above it): heal from
					// a background goroutine, never under the locks.
					t.scheduleHealPush(sess.ID)
				}
				return evictPreserved // the spill chain holds this state
			}
			if errors.Is(err, errSpillDiskPinned) {
				// The disk budget is full of files that cannot be reclaimed
				// (pinned by clean residents, or mid-restore). Dropping the
				// victim would silently lose a session to make room for a
				// new one; refuse instead — the enforcer tries another
				// victim or rejects the registration with typed pressure.
				return evictRefused
			}
		} else if !sess.Dirty() {
			t.mu.Lock()
			_, onDisk := t.index[sess.ID]
			t.mu.Unlock()
			if onDisk {
				return evictPreserved // any disk copy is exactly this state
			}
		}
		// The session is leaving memory carrying state the disk tier does
		// not have (spilling disabled, or the spill failed for a reason
		// pressure cannot fix — tenant cap, IO error). A stale disk copy
		// must not resurrect on the next touch — that would silently undo
		// honored deletions — so drop it: the session is lost, exactly
		// like a memory-only eviction.
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
	t.startLifecycle()
	return t, nil
}

// invalidate forgets a session's disk and blob copies (stale relative to
// state that was just lost with an eviction): a stale copy must not
// resurrect on the next touch — locally, through the read-through path, or
// after a reboot, which is why the forget is recorded as a durable
// tombstone before any unlink runs.
func (t *Tiered) invalidate(id string) {
	t.mu.Lock()
	e, ok := t.index[id]
	if ok {
		delete(t.index, id)
		if e.local {
			t.diskBytes -= e.localBytes()
		}
	}
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
		for _, pb := range e.localPaths() {
			if !t.removeSpillFile(pb.path, pb.bytes, faultPoint) {
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
	t.mu.Unlock()
	if tombstoned {
		// A re-registration under a tombstoned ID (the service seeds IDs to
		// avoid reuse, but the store stays correct without that): the
		// tombstone guarded the OLD state. Make one synchronous attempt to
		// clear the stale blob object, then retire the tombstone — the new
		// session's state owns the ID from here.
		t.blobRemove(sess.ID)
		t.tombstoneForget(sess.ID)
	}
	t.armWriteBehind(sess)
	if err := t.mem.Put(sess); err != nil {
		return err
	}
	t.enqueueSpill(sess)
	return nil
}

// TenantUsage implements Store.
func (t *Tiered) TenantUsage(tenant string) TenantUsage { return t.mem.TenantUsage(tenant) }

// Get implements Store: a resident hit is lock-free beyond the shard RLock;
// a cold session is restored from its spill file exactly once, no matter how
// many goroutines touch it concurrently.
func (t *Tiered) Get(id string) (*Session, bool) {
	if sess, ok := t.mem.Get(id); ok {
		return sess, true
	}
	t.mu.Lock()
	if f, inflight := t.flights[id]; inflight {
		t.mu.Unlock()
		<-f.done
		return f.sess, f.ok
	}
	e, spilled := t.index[id]
	if !spilled {
		if t.blob == nil || t.tombstones[id] != nil {
			t.mu.Unlock()
			// The session may have become resident between the miss and the
			// index check (a racing restore that just published). Tombstoned
			// keys belong to acknowledged deletes — never readopt them.
			return t.mem.Get(id)
		}
		// Read-through: the session has no local state at all, but the shared
		// blob tier may hold it (created by another replica, or handed off).
		// Same singleflight as a local restore.
		f := &flight{done: make(chan struct{})}
		t.flights[id] = f
		t.mu.Unlock()
		if sess, ok := t.mem.Get(id); ok {
			f.sess, f.ok = sess, true
		} else if sess, err := t.adopt(id); err != nil {
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
	f := &flight{done: make(chan struct{})}
	t.flights[id] = f
	// The file is about to be read: bump its LRU clock so the disk-budget
	// evictor (which also skips any id with an in-flight restore) treats it
	// as hot, not as the coldest file on disk.
	e.lastUsed = time.Now().UnixNano()
	t.mu.Unlock()

	// Leader path. Re-check residency first: a restore that completed
	// between our memory miss and the flight registration already published
	// the session (the index keeps its entry after a restore).
	if sess, ok := t.mem.Get(id); ok {
		f.sess, f.ok = sess, true
	} else if sess, err := t.restore(id, e); err != nil {
		t.restoreErrors.Add(1)
	} else {
		// A Delete (or disk-budget eviction) that raced the restore removed
		// the index entry; honor it instead of resurrecting the session.
		t.mu.Lock()
		_, still := t.index[id]
		t.mu.Unlock()
		if still {
			f.sess, f.ok = sess, true
		} else {
			t.mem.drop(id)
		}
	}
	t.mu.Lock()
	delete(t.flights, id)
	t.mu.Unlock()
	close(f.done)
	return f.sess, f.ok
}

// Delete implements Store: the session is forgotten in every tier. A
// durable tombstone is appended BEFORE any unlink or blob delete, so once
// this returns (and the service acks the DELETE) no crash can resurrect the
// session: boot replays pending tombstones, removing stray chain files and
// retrying the blob delete until both stick.
func (t *Tiered) Delete(id string) bool {
	resident := t.mem.Delete(id)
	t.mu.Lock()
	e, spilled := t.index[id]
	if spilled {
		delete(t.index, id)
		if e.local {
			t.diskBytes -= e.localBytes()
		}
	}
	t.mu.Unlock()
	if spilled {
		// Spill-file hygiene: an explicit DELETE forgets the session in
		// every tier, including its on-disk chain and blob object — even
		// when a resident copy also existed (the copies would otherwise
		// outlive the session until the age-based GC or the next boot
		// reindex, and a blob copy could resurrect through read-through).
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

// Touch implements Store: touching a cold session restores it ("the LRU
// budget is a cache tier, not a cliff").
func (t *Tiered) Touch(id string) bool {
	_, ok := t.Get(id)
	return ok
}

// Range implements Store (resident sessions only; spilled sessions are
// listed by Stats without being restored).
func (t *Tiered) Range(fn func(*Session) bool) { t.mem.Range(fn) }

// Stats implements Store. SpillDirBytes is served from the lifecycle
// manager's maintained counters (indexed files + scanned orphans) — no
// per-request directory walk; the boot reindex seeds it and GC sweeps
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
	st.SpillQueueFull = t.queueFull.Load()
	st.DiskEvictions = t.diskEvictions.Load()
	st.GCRemovals = t.gcRemovals.Load()
	st.SpillQueueDepth = t.queueDepth()
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
// queue. The GC sweep stops, the queue is closed and its backlog flushed by
// the workers, and then every dirty resident session is snapshotted to the
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
		_, needPush, err := t.spillLocked(sess)
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
		if needPush {
			// Shutdown heal: the chain's blob upload is owed; push it now,
			// off the lock (the lifecycle is stopped, so the background heal
			// would be refused). Best-effort — boot's syncBlob heal pass is
			// the backstop.
			_ = t.blobPush(sess.ID)
		}
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
// atomic rename — after the lock is released (publishCut). The capture
// copies only the mutable fields (counters, the deletion-log slice); the
// training set and updater are immutable once captured (Update allocates
// its own scratch), so the expensive snapshot serialization reads them
// safely off-lock. payload holds the complete file bytes once serialized:
// a small delta segment carrying only the deletion-log suffix when the cut
// extends an existing chain, a full v2 base snapshot otherwise.
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
	// gen is sess.gen at the cut; a successful publish advances
	// persistedGen to it (CAS-max, so a stale publish cannot mask a newer
	// mutation's dirtiness).
	gen       int64
	updates   int64
	lastUpd   float64
	footprint int64
	payload   []byte
	sum       []byte
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
// no snapshot serialization and no IO — the no-IO-under-the-lock contract
// includes the blob tier, which is why the heal below is only signalled,
// never performed here. It returns a nil cut (no error) when there is
// nothing to write: the session is clean and its chain current. needPush
// reports a chain whose blob upload previously failed; the CALLER heals it
// (blobPush) after releasing sess.Mu — a network upload must never run
// under the session lock. When the indexed chain covers a prefix of the
// current deletion log, the cut is a delta segment — O(batch) bytes, not
// O(session) — otherwise a full v2 base.
func (t *Tiered) cutLocked(sess *Session) (cut *spillCut, needPush bool, err error) {
	if !sess.Dirty() {
		t.mu.Lock()
		e, onDisk := t.index[sess.ID]
		needPush = onDisk && t.blob != nil && e.local && !e.remote
		t.mu.Unlock()
		if onDisk {
			// Clean and already spilled: nothing to write. The disk-budget
			// evictor never reclaims a clean session's only copy (a clean
			// resident's chain without blob backing is pinned; a blob-backed
			// chain may be demoted but its entry survives), so the copy this
			// decision relies on cannot vanish underneath it.
			return nil, needPush, nil
		}
	}
	if !Spillable(sess.Kind, sess.Upd) {
		t.unspillable.Add(1)
		return nil, false, fmt.Errorf("store: session %s (family %q) cannot be snapshotted", sess.ID, sess.Kind)
	}
	cut = &spillCut{
		sess: sess, id: sess.ID, kind: sess.Kind, createdAt: sess.CreatedAt,
		gen: sess.gen.Load(), updates: sess.Updates, lastUpd: sess.LastUpdateSeconds,
		footprint: sess.footprint, toLen: int64(len(sess.Deleted)),
		dirty: sess.Dirty(),
	}
	t.mu.Lock()
	if e := t.index[sess.ID]; e != nil && e.local && e.logLen >= 0 && e.logLen <= cut.toLen {
		// The chain covers a prefix of the current log (v1 bases report -1
		// and force a base rewrite): spill only the suffix. The deletion
		// log is append-only per session, so a prefix-length match means a
		// content match — the publish guard re-checks the tip under t.mu.
		cut.isDelta = true
		cut.fromLen = e.logLen
		cut.fromUpdates = e.updates
	}
	t.mu.Unlock()
	if cut.isDelta && cut.fromLen == cut.toLen && cut.fromUpdates == cut.updates {
		// Dirty by generation but the chain tip already matches the log and
		// counters exactly — the chain holds this logical state (deletion is
		// the only mutation, and it always moves the log or the counter).
		sess.persistUpTo(cut.gen)
		return nil, false, nil
	}
	if cut.isDelta {
		cut.entries = append([]int(nil), sess.Deleted[cut.fromLen:cut.toLen]...)
	} else {
		cut.ds, cut.upd = sess.DS, sess.Upd
		cut.deleted = append([]int(nil), sess.Deleted...)
	}
	return cut, false, nil
}

// covered reports whether another publish already persisted the cut's
// generation — the eviction's synchronous spill and a write-behind cut of
// the same generation race to publish, and the loser must not write the
// same state a second time.
func (cut *spillCut) covered() bool {
	return cut.dirty && cut.gen <= cut.sess.persistedGen.Load()
}

// serialize renders the cut's file bytes into the payload buffer. Called
// from publishCut, which write-behind workers reach after releasing the
// session lock — the capture copied every mutable input, and the training
// set and updater never mutate after capture, so even the O(session) base
// snapshot serializes without blocking readers.
func (cut *spillCut) serialize() error {
	var buf bytes.Buffer
	h := sha256.New()
	w := io.MultiWriter(&buf, h)
	if cut.isDelta {
		if err := writeDeltaSegment(w, cut, cut.entries); err != nil {
			return fmt.Errorf("store: cutting delta for %s: %w", cut.id, err)
		}
	} else {
		// v2 base: the deletion log lives in the envelope; the embedded
		// snapshot's own log section is written empty, which is what makes
		// compaction a byte splice.
		if err := writeSpillEnvelope(w, cut.id, cut.kind, cut.createdAt, cut.updates, cut.lastUpd, cut.deleted); err != nil {
			return err
		}
		if err := priu.WriteSessionSnapshot(w, cut.kind, cut.ds, cut.upd, nil); err != nil {
			return fmt.Errorf("store: snapshotting session %s: %w", cut.id, err)
		}
	}
	cut.payload = buf.Bytes()
	cut.sum = h.Sum(nil)
	return nil
}

// publishCut writes a cut's payload to a temp file, fsyncs, and publishes it
// with an atomic rename — all without holding the session's Mu (write-behind
// workers call it after releasing the lock; synchronous callers may still
// hold it). The rename happens under t.mu behind the chain guard: a delta
// lands only if the entry's tip still names exactly the (logLen, updates)
// the cut extends, and a base only if it is not older than the indexed tip —
// so a stale publish is discarded (errStaleSpill), never installed.
//
// Publishing enforces the storage bounds in order: the tenant's spill-byte
// cap (a *QuotaError rejection drops the write), then the global disk
// budget (evicting LRU spill files to make room), then the rename.
func (t *Tiered) publishCut(cut *spillCut) (bool, error) {
	spillStart := time.Now()
	if cut.covered() {
		t.staleSpills.Add(1)
		return false, errStaleSpill
	}
	if cut.payload == nil {
		if err := t.faultAt("spill.serialize"); err != nil {
			t.spillErrors.Add(1)
			return false, err
		}
		if err := cut.serialize(); err != nil {
			t.spillErrors.Add(1)
			return false, err
		}
	}
	tmpName, err := t.writeTempPayload(cut.payload)
	if err != nil {
		t.spillErrors.Add(1)
		return false, err
	}
	size := int64(len(cut.payload))
	ext := spillExt
	if cut.isDelta {
		ext = deltaExt
	}
	final := filepath.Join(t.dir, hex.EncodeToString(cut.sum)[:32]+ext)
	ten := TenantOf(cut.id)
	t.mu.Lock()
	e := t.index[cut.id]
	if cut.sess.gone.Load() {
		// The copy the cut came from has left the store — a Delete or lost
		// eviction landed between the cut and this publish. Installing the
		// cut now would resurrect state the caller was told is gone; worse,
		// if the id was re-registered meanwhile, any entry under it belongs
		// to the NEW session incarnation, whose chain tip can coincide with
		// the old one (both at logLen=0/updates=0 for fresh sessions), so
		// neither the delta chain guard nor the base version guard can tell
		// the incarnations apart — only this flag can. (Every removal path —
		// Delete, eviction, duplicate Put — marks the outgoing copy gone
		// before releasing t.mu, so the flag is authoritative here.)
		t.mu.Unlock()
		_ = os.Remove(tmpName)
		t.staleSpills.Add(1)
		return false, errStaleSpill
	}
	if cut.covered() {
		// Re-checked under t.mu, where every publish advances persistedGen:
		// a racing publish of this generation landed while the payload was
		// being written.
		t.mu.Unlock()
		_ = os.Remove(tmpName)
		t.staleSpills.Add(1)
		return false, errStaleSpill
	}
	if cut.isDelta {
		if e == nil || !e.local || e.logLen != cut.fromLen || e.updates != cut.fromUpdates {
			t.mu.Unlock()
			_ = os.Remove(tmpName)
			t.staleSpills.Add(1)
			return false, errStaleSpill
		}
	} else if e != nil && (e.updates > cut.updates ||
		(e.updates == cut.updates && e.logLen > cut.toLen)) {
		t.mu.Unlock()
		_ = os.Remove(tmpName)
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
		_ = os.Remove(tmpName)
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
		_ = os.Remove(tmpName)
		t.spillErrors.Add(1)
		if pinned {
			return false, fmt.Errorf("store: spilling %s: %d bytes cannot fit the %d-byte disk budget: %w",
				cut.id, size, budget, errSpillDiskPinned)
		}
		return false, fmt.Errorf("store: spilling %s: %d bytes cannot fit the %d-byte disk budget", cut.id, size, budget)
	}
	if err := os.Rename(tmpName, final); err != nil {
		t.diskBytes -= diskDelta
		t.mu.Unlock()
		t.mem.adjustSpill(ten, oldCharge-newCharge)
		_ = os.Remove(tmpName)
		t.spillErrors.Add(1)
		return false, fmt.Errorf("store: publishing spill file: %w", err)
	}
	now := time.Now().UnixNano()
	var oldFiles []pathBytes
	chainLen := 0
	if cut.isDelta {
		e.deltas = append(e.deltas, deltaSeg{
			path: final, bytes: size, fromLen: cut.fromLen, fromUpdates: cut.fromUpdates,
			entries: cut.toLen - cut.fromLen, updates: cut.updates, lastUpd: cut.lastUpd,
		})
		e.logLen = cut.toLen
		e.updates = cut.updates
		e.spillCharged = newCharge
		// The blob object (if any) no longer holds the tip; the push below
		// (or the GC heal pass) re-certifies it from the spliced chain.
		e.remote = false
		e.lastUsed = now
		chainLen = len(e.deltas)
	} else {
		if e != nil && e.local {
			for _, pb := range e.localPaths() {
				// When the content hash (and so the path) is identical the
				// rename already overwrote the old base in place.
				if pb.path != final {
					oldFiles = append(oldFiles, pb)
				}
			}
		}
		t.index[cut.id] = &spillEntry{
			path: final, bytes: size, kind: cut.kind, createdAt: cut.createdAt,
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
	for _, pb := range oldFiles {
		t.removeSpillFile(pb.path, pb.bytes, "spill.unlink-old")
	}
	t.spills.Add(1)
	if cut.isDelta {
		t.deltaSpills.Add(1)
	}
	if m := t.metrics; m != nil {
		observeSince(m.SpillSeconds, spillStart)
	}
	// Write-behind to the shared tier: push the just-published tip up. A
	// failure leaves the entry local-only — restorable here, healed upward by
	// the GC sweep — and never fails the spill (local durability landed).
	if t.blob != nil {
		_ = t.blobPush(cut.id)
	}
	if cut.isDelta && t.compactAfter > 0 && chainLen >= t.compactAfter {
		t.scheduleCompact(cut.id)
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
// current state, never an enqueued stale buffer. needPush reports a clean
// chain whose blob upload is owed (see cutLocked); the caller heals it
// after releasing sess.Mu.
func (t *Tiered) spillLocked(sess *Session) (wrote bool, needPush bool, err error) {
	if sess.gone.Load() {
		// The copy already left the store (a concurrent Delete won the race
		// to sess.Mu before this caller): publishCut would discard every cut
		// as stale, so don't burn serialization attempts — there is nothing
		// of this copy left to persist.
		return false, false, nil
	}
	for attempt := 0; attempt < 8; attempt++ {
		cut, needPush, err := t.cutLocked(sess)
		if err != nil || cut == nil {
			return false, needPush, err
		}
		wrote, err := t.publishCut(cut)
		if errors.Is(err, errStaleSpill) {
			continue // an in-flight background publish moved the tip; re-cut
		}
		return wrote, false, err
	}
	return false, false, fmt.Errorf("store: spill of %s kept losing the publish race", sess.ID)
}

// writeTempPayload writes a serialized cut to a temp file in the spill
// directory and fsyncs it. The caller owns the temp file (rename or remove).
func (t *Tiered) writeTempPayload(payload []byte) (string, error) {
	if err := t.faultAt("spill.create-temp"); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(t.dir, spillTmp+"*")
	if err != nil {
		return "", fmt.Errorf("store: creating spill temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		_ = os.Remove(tmpName)
		return "", err
	}
	syncStart := time.Now()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		_ = os.Remove(tmpName)
		return "", err
	}
	if m := t.metrics; m != nil {
		observeSince(m.FsyncSeconds, syncStart)
	}
	if err := t.faultAt("spill.after-temp"); err != nil {
		// Simulated crash after the temp write: the file stays behind, as a
		// real kill would leave it, for reindex/GC to clean up.
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return "", err
	}
	return tmpName, nil
}

// spillEnvelope is the decoded header of one spill file.
type spillEnvelope struct {
	version           int
	id                string
	kind              string
	createdAt         time.Time
	updates           int64
	lastUpdateSeconds float64
	// deleted is the full deletion log — v2 envelopes carry it here, ahead
	// of the embedded snapshot, so compaction can splice logs without
	// decoding the model. v1 files keep the log inside the snapshot and
	// leave this nil.
	deleted []int
}

// logLen reports the envelope's deletion-log length for chain-tip purposes:
// v1 envelopes are opaque (-1) because their log is buried in the snapshot.
func (env *spillEnvelope) logLen() int64 {
	if env.version < 2 {
		return -1
	}
	return int64(len(env.deleted))
}

// readSpillEnvelope decodes a spill file's header (v1 or v2), returning the
// reader positioned at the embedded session snapshot.
func readSpillEnvelope(r io.Reader) (*binio.Reader, spillEnvelope, error) {
	br := binio.NewReader(r)
	var env spillEnvelope
	if err := br.Magic(spillMagic); err != nil {
		return nil, env, fmt.Errorf("store: %w", err)
	}
	v := br.U64()
	if br.Err == nil && v != 1 && v != spillVersion {
		return nil, env, fmt.Errorf("store: unsupported spill-file version %d", v)
	}
	env.version = int(v)
	env.id = br.Str(maxSpillName)
	env.kind = br.Str(maxSpillName)
	env.createdAt = time.Unix(0, br.I64())
	env.updates = br.I64()
	env.lastUpdateSeconds = br.F64()
	if env.version >= 2 {
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
// from a base's delta segments, to be replayed on top of it at restore.
type chainTail struct {
	entries []int
	updates int64
	lastUpd float64
}

// buildSession decodes a spill envelope and its embedded snapshot from r and
// rebuilds the session, replaying the full deletion log — the base's own log
// (envelope-carried for v2, snapshot-carried for v1) plus any delta-chain
// tail — in one Update call, so every honored deletion stays deleted in the
// restored model.
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
	deleted := env.deleted
	if len(snapDeleted) > 0 {
		deleted = append(deleted, snapDeleted...)
	}
	updates, lastUpd := env.updates, env.lastUpdateSeconds
	if tail != nil && len(tail.entries) > 0 {
		deleted = append(append([]int(nil), deleted...), tail.entries...)
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

// restore rebuilds a session from its spill entry — the local base + delta
// chain when one exists, the shared blob tier otherwise — and publishes it
// to the in-memory tier. The chain is snapshotted under t.mu so a racing
// publish cannot change it mid-read; compaction defers while a restore
// flight is registered, so the snapshotted files stay on disk.
func (t *Tiered) restore(id string, e *spillEntry) (*Session, error) {
	restoreStart := time.Now()
	t.mu.Lock()
	local := e.local
	base := e.path
	segs := append([]deltaSeg(nil), e.deltas...)
	t.mu.Unlock()
	var src io.ReadCloser
	var tail *chainTail
	if local {
		f, err := os.Open(base)
		if err != nil {
			return nil, fmt.Errorf("store: opening spill file for %s: %w", id, err)
		}
		src = f
		if len(segs) > 0 {
			tail = &chainTail{}
			for _, sg := range segs {
				d, err := readDeltaFile(sg.path)
				if err != nil {
					src.Close()
					return nil, fmt.Errorf("store: reading delta segment for %s: %w", id, err)
				}
				if d.id != id || d.fromLen != sg.fromLen || d.fromUpdates != sg.fromUpdates {
					src.Close()
					return nil, fmt.Errorf("store: delta segment %s does not extend %s's chain", sg.path, id)
				}
				tail.entries = append(tail.entries, d.entries...)
				tail.updates, tail.lastUpd = d.updates, d.lastUpd
			}
		}
	} else {
		if err := t.faultAt("blob.get"); err != nil {
			return nil, err
		}
		getStart := time.Now()
		rc, _, err := t.blob.Get(id)
		if err != nil {
			if err != ErrBlobNotFound {
				t.blobErrors.Add(1)
			}
			return nil, fmt.Errorf("store: fetching %s from blob tier: %w", id, err)
		}
		t.blobGets.Add(1)
		if m := t.metrics; m != nil {
			observeSince(m.BlobGetSeconds, getStart)
		}
		src = rc
	}
	defer src.Close()
	sess, _, err := t.buildSession(id, src, tail)
	if err != nil {
		return nil, err
	}
	t.armWriteBehind(sess)
	t.restores.Add(1)
	if m := t.metrics; m != nil {
		observeSince(m.RestoreSeconds, restoreStart)
	}
	// No quota check on a restore: the session already counts against its
	// tenant, only the resident-tier accounting moves. If the spill entry
	// was seeded from a reboot (billed at file size), settle the ownership
	// byte charge to the true resident footprint now that it is known.
	t.mu.Lock()
	if cur, ok := t.index[id]; ok && cur == e {
		if e.charged != sess.footprint {
			t.mem.adjustOwned(TenantOf(id), 0, sess.footprint-e.charged)
			e.charged = sess.footprint
		}
		e.lastUsed = time.Now().UnixNano()
	}
	t.mu.Unlock()
	t.mem.putRestored(sess)
	return sess, nil
}

// reindex scans the spill directory on boot: temp files from interrupted
// spills are removed, base files are indexed by the envelope header, and
// delta segments are re-attached to their base by (fromLen, fromUpdates)
// continuity. When several bases claim the same session (a crash between
// publishing a new base — spill or compaction — and unlinking the old
// chain) the newest wins, decided by the envelope's monotonic per-session
// update counter, then by deletion-log length (a just-compacted base ties
// its source chain's tip on updates), then file mtime. Files of tombstoned
// sessions are deleted, never indexed, so an acknowledged deletion cannot
// resurrect through a leftover chain. Torn delta segments (unreadable
// header or truncated entries) are dropped — the chain prefix before them
// remains authoritative. The scan also seeds the maintained
// spill_dir_bytes gauge (indexed files plus whatever unreadable leftovers
// remain for GC).
func (t *Tiered) reindex() error {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return fmt.Errorf("store: reading spill dir: %w", err)
	}
	type baseFile struct {
		path   string
		size   int64
		mtime  time.Time
		env    spillEnvelope
		logLen int64
	}
	type deltaFile struct {
		path  string
		size  int64
		mtime time.Time
		hdr   deltaHeader
	}
	bases := make(map[string][]baseFile)
	deltas := make(map[string][]deltaFile)
	var orphanBytes int64
	tombSwept := make(map[string]bool) // tombstoned ids whose files all unlinked cleanly
	for id := range t.tombstones {
		tombSwept[id] = true
	}
	tombDrop := func(id, path string) bool {
		ts := t.tombstones[id]
		if ts == nil || ts.localClean {
			return false
		}
		if err := os.Remove(path); err != nil {
			tombSwept[id] = false
		}
		return true
	}
	for _, de := range entries {
		name := de.Name()
		path := filepath.Join(t.dir, name)
		if strings.HasPrefix(name, spillTmp) {
			_ = os.Remove(path)
			continue
		}
		if de.IsDir() || name == tombstoneFile {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(name, spillExt):
			f, err := os.Open(path)
			if err != nil {
				orphanBytes += info.Size()
				continue
			}
			_, env, err := readSpillEnvelope(f)
			f.Close()
			if err != nil {
				// Unreadable header: not one of ours (or torn by something
				// other than our atomic writes); don't index it — the
				// age-based GC will sweep it once it is old enough.
				orphanBytes += info.Size()
				continue
			}
			if tombDrop(env.id, path) {
				continue
			}
			bases[env.id] = append(bases[env.id], baseFile{
				path: path, size: info.Size(), mtime: info.ModTime(),
				env: env, logLen: env.logLen(),
			})
		case strings.HasSuffix(name, deltaExt):
			hdr, err := readDeltaHeaderFile(path)
			if err != nil {
				if hdr.id != "" {
					// The header decoded but the entries are torn: this is
					// one of our segments with a truncated body, and no
					// restore can ever replay it — remove it now so the
					// intact chain prefix serves without a poisoned tail.
					_ = os.Remove(path)
				} else {
					orphanBytes += info.Size()
				}
				continue
			}
			if tombDrop(hdr.id, path) {
				continue
			}
			deltas[hdr.id] = append(deltas[hdr.id], deltaFile{
				path: path, size: info.Size(), mtime: info.ModTime(), hdr: hdr,
			})
		default:
			orphanBytes += info.Size()
		}
	}
	for id, cands := range bases {
		best := 0
		for i := 1; i < len(cands); i++ {
			b, p := cands[i], cands[best]
			if b.env.updates > p.env.updates ||
				(b.env.updates == p.env.updates && b.logLen > p.logLen) ||
				(b.env.updates == p.env.updates && b.logLen == p.logLen && b.mtime.After(p.mtime)) {
				best = i
			}
		}
		for i, b := range cands {
			if i != best {
				_ = os.Remove(b.path)
			}
		}
		b := cands[best]
		e := &spillEntry{
			path: b.path, bytes: b.size, kind: b.env.kind, createdAt: b.env.createdAt,
			local: true, updates: b.env.updates, logLen: b.logLen,
			lastUsed: b.mtime.UnixNano(),
		}
		// Re-attach the delta chain by tip continuity. v1 bases (-1) are
		// opaque — no deltas can extend them. Segments that don't chain
		// (superseded by a compaction, or following a torn segment) are
		// unlinked: the indexed chain must replay without gaps.
		rest := deltas[id]
		delete(deltas, id)
		if e.logLen >= 0 {
			for {
				found := -1
				for i, d := range rest {
					if d.hdr.fromLen == e.logLen && d.hdr.fromUpdates == e.updates {
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
					path: d.path, bytes: d.size, fromLen: d.hdr.fromLen,
					fromUpdates: d.hdr.fromUpdates, entries: d.hdr.entries,
					updates: d.hdr.updates, lastUpd: d.hdr.lastUpd,
				})
				e.logLen = d.hdr.fromLen + d.hdr.entries
				e.updates = d.hdr.updates
				if ts := d.mtime.UnixNano(); ts > e.lastUsed {
					e.lastUsed = ts
				}
			}
		}
		for _, d := range rest {
			_ = os.Remove(d.path)
		}
		// The resident footprint isn't known without restoring; bill the
		// chain size until the first restore settles the difference.
		total := e.localBytes()
		e.charged = total
		e.spillCharged = total
		t.index[id] = e
		t.diskBytes += total
	}
	// Delta segments with no base at all (their base's publish never landed,
	// or it was superseded and swept): unusable, remove.
	for _, ds := range deltas {
		for _, d := range ds {
			_ = os.Remove(d.path)
		}
	}
	// Every local file of a tombstoned session has now been unlinked (or
	// none existed): resolve the local side of those tombstones.
	for id, clean := range tombSwept {
		if clean {
			t.tombstoneResolve(id, tombLocal)
		}
	}
	t.orphanBytes = orphanBytes
	return nil
}
