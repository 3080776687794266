// Package store is the session-storage layer of the PrIU deletion service:
// it owns where a serving session (training set + captured provenance +
// cumulative deletion log + current model) lives, while priu/service owns
// only the HTTP wire formats on top of it.
//
// Two implementations are provided:
//
//   - Memory: the hash-sharded in-memory tier with per-shard locks and an
//     optional LRU budget (max sessions / max resident bytes). Evictions
//     drop sessions.
//   - Tiered: wraps Memory with a log-structured disk tier. A session's
//     disk copy is a chain: one self-contained base snapshot plus ordered
//     delta segments, each carrying only the deletion-log suffix one spill
//     appended — so a mutation-heavy stream pays O(batch) bytes per spill.
//     A cut that finds its chain full folds it into a new base by copying
//     the old base's snapshot bytes under the session's full log, so a
//     chain stays bounded. The spill directory is an FSBlob: every file lands
//     content-addressed through its one writer (temp file + fsync +
//     atomic rename); restore replays base + deltas in one update call
//     — so honored deletions stay deleted — with singleflight so concurrent
//     touches of a cold session trigger exactly one restore. Forgotten
//     sessions leave persistent tombstones (the pending set, rewritten as
//     one object on every change and read at boot) so an acknowledged
//     DELETE can never resurrect, even when the crash beat the unlink or
//     blob delete. Close snapshots every dirty resident session, and
//     NewTiered rebuilds the index from one scan of the spill directory
//     (and the blob tier's listing), so a kill/restart loses nothing.
//
// Mutators (the service's deletion handlers) hold Session.Mu while applying
// an update and must re-fetch through Get when GoneLocked reports the copy
// they hold was evicted or deleted concurrently: the spill happened under the
// same lock, so the re-fetched (restored) session includes every previously
// honored deletion.
package store

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/priu"
)

// Sessions are namespaced per tenant: the storage ID of a tenant-owned
// session is "tenant/wire-id", while the anonymous tenant's sessions keep
// their bare wire ID — so stores (and spill directories) written before
// multi-tenancy remain valid, and the tenant of a session survives tier
// moves and restarts without any envelope change.

// TenantOf returns the tenant that owns a storage ID ("" for the anonymous
// namespace).
func TenantOf(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[:i]
	}
	return ""
}

// LocalID strips the tenant namespace from a storage ID, returning the wire
// session ID the owning tenant sees.
func LocalID(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// TenantLimits is one tenant's storage quota (0 = unlimited).
type TenantLimits struct {
	// MaxSessions bounds the tenant's owned sessions across every tier.
	MaxSessions int
	// MaxBytes bounds the tenant's owned session bytes across every tier.
	MaxBytes int64
	// MaxSpillBytes bounds the tenant's spill-file bytes on disk. A spill
	// that would take the tenant over the cap is rejected (the eviction
	// drops the session instead of writing), and while the tenant sits at
	// or over the cap new registrations are rejected with a "spill_bytes"
	// *QuotaError until it deletes sessions.
	MaxSpillBytes int64
}

// LimitsFunc resolves a tenant's current quota. It is consulted on every
// registration, so hot-reloaded key files take effect without a restart.
type LimitsFunc func(tenant string) TenantLimits

// QuotaError reports a Put rejected because the session's tenant is at its
// quota. Unlike a global budget (which evicts), a tenant quota is a hard
// admission limit: the tenant must delete sessions (or have its quota
// raised) before registering more.
type QuotaError struct {
	Tenant    string
	Dimension string // "sessions", "bytes" or "spill_bytes"
	Used      int64  // usage across all tiers, including the rejected session
	Limit     int64
}

// DimensionSpillBytes is the QuotaError dimension of the per-tenant spill
// byte cap — a disk-side limit, which services report as 507 Insufficient
// Storage rather than 429.
const DimensionSpillBytes = "spill_bytes"

func (e *QuotaError) Error() string {
	return fmt.Sprintf("store: tenant %q at its %s quota (%d of %d)", e.Tenant, e.Dimension, e.Used, e.Limit)
}

// PressureError reports a Put rejected because the resident tier is over its
// budget and every evictable session is pinned by a long-running read — the
// store cannot make room without dropping state under an active stream.
// Unlike a quota (the tenant's problem, permanent until it deletes sessions)
// this is transient backpressure: services surface it as 503 with Retry-After
// and the registration should simply be retried once streams settle.
type PressureError struct {
	// Dimension is the exhausted budget: "sessions" or "bytes".
	Dimension string
	// Pinned counts the resident sessions held by long-running reads at the
	// time of the rejection.
	Pinned int
}

func (e *PressureError) Error() string {
	return fmt.Sprintf("store: resident %s budget exhausted and all %d evictable sessions are pinned", e.Dimension, e.Pinned)
}

// Session is one registered model with its captured provenance — the unit of
// storage. HTTP-facing request counters stay in the service; everything here
// is serving state that must survive tier moves.
type Session struct {
	ID        string
	Kind      string // priu family name ("linear", "logistic", ...)
	CreatedAt time.Time

	// Mu guards the mutable serving state below.
	Mu      sync.Mutex
	DS      priu.TrainingSet
	Upd     priu.Updater
	Model   *priu.Model // current model (after the latest deletion)
	Deleted []int       // cumulative deletion log
	// cursor is the live what-if cursor with Deleted folded in log order,
	// so a commit folds only its own batch (FoldLocked). Derived state:
	// never persisted, nil on every freshly built session — restore, blob
	// adopt, snapshot import — and after any failed fold; the next commit
	// rebuilds it from Deleted.
	cursor priu.WhatIfState
	// logged is the membership set of Deleted[:loggedLen]. Derived state
	// like the cursor: nil on every freshly built session, built on the
	// first membership query and caught up with the log's appended tail on
	// later ones.
	logged    RowSet
	loggedLen int

	// Updates / LastUpdateSeconds are per-session stats counters (guarded by
	// Mu); they ride along in spill files so restarts don't zero them.
	Updates           int64
	LastUpdateSeconds float64

	// footprint is the session's resident-memory charge (training data +
	// provenance), fixed at registration.
	footprint int64
	// lastUsed is a unix-nano timestamp of the latest access (LRU clock).
	lastUsed atomic.Int64
	// gen counts mutations: MarkDirtyLocked increments it with Mu held, so a
	// generation names one consistent cut of the serving state. persistedGen
	// is the newest generation the disk tier covers; the session is dirty
	// exactly when they differ. Both are atomics so the disk-budget evictor
	// can classify files without taking session locks under the index lock,
	// and so a publish that raced a newer one can never move persistedGen
	// backwards (persistUpTo is a CAS-max).
	gen          atomic.Int64
	persistedGen atomic.Int64
	// gone marks a copy that was evicted or deleted from the store: mutators
	// holding a gone session must re-fetch through Get. It is an atomic so
	// an off-lock publish can check liveness without acquiring Mu — a base
	// publish racing a delete must observe the flag and discard its cut.
	gone atomic.Bool
	// pins counts long-running readers (what-if evaluations, snapshot
	// exports) holding the session in the resident tier: the budget evictor
	// skips pinned sessions, and residency in turn pins the session's clean
	// spill file against the disk-budget evictor — so neither tier drops
	// state under an active stream. Explicit Delete ignores pins: a client
	// instruction to forget the session wins over an in-flight read.
	pins atomic.Int32
	// notifyDirty, when set (by the tiered store before the session is
	// published), is called by MarkDirtyLocked with Mu held — the
	// write-behind hook that schedules an eager background snapshot. It must
	// never block.
	notifyDirty func(*Session)
}

// NewSession builds a resident session. A nil model defaults to the updater's
// initial model; a non-empty deletion log (snapshot restore) comes with the
// model that already reflects it. New sessions start dirty: no disk tier has
// seen them yet.
func NewSession(id, kind string, ds priu.TrainingSet, upd priu.Updater, model *priu.Model, deleted []int) *Session {
	if model == nil {
		model = upd.Model()
	}
	sess := &Session{
		ID:        id,
		Kind:      kind,
		CreatedAt: time.Now(),
		DS:        ds,
		Upd:       upd,
		Model:     model,
		Deleted:   deleted,
		footprint: TrainingSetBytes(ds) + upd.FootprintBytes(),
	}
	sess.gen.Store(1) // dirty: no disk tier has seen generation 1 yet
	sess.Touch()
	return sess
}

// FoldLocked returns the model after folding fold — removal ids that are
// distinct and new to Deleted — on top of the deletion log, through the
// session's live cursor: the opt families pay O(|fold|) row work plus one
// evaluation instead of a full-log Update, with the same bits (log order is
// the fold order). It leaves Deleted and Model alone: the caller appends
// fold's batch to the log and installs the model, or — if it cannot commit
// after a successful fold — calls DropCursorLocked. Any error drops the
// cursor, so it never drifts from Deleted. Callers hold Mu.
func (sess *Session) FoldLocked(fold []int) (*priu.Model, error) {
	if sess.cursor == nil {
		cur, err := priu.ReplayLog(sess.Upd, sess.DS.N(), sess.Deleted)
		if err != nil {
			return nil, err
		}
		sess.cursor = cur
	}
	if err := sess.cursor.Apply(fold); err != nil {
		sess.cursor = nil
		return nil, err
	}
	model, err := sess.cursor.Eval()
	if err != nil {
		sess.cursor = nil
		return nil, err
	}
	return model, nil
}

// RowSet is a membership bitset over training rows: bit i of word i/64 is
// set when the set holds row i.
type RowSet []uint64

// Has reports whether the set holds row i.
func (s RowSet) Has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// Add puts row i in the set.
func (s RowSet) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// Remove takes row i out of the set.
func (s RowSet) Remove(i int) { s[i>>6] &^= 1 << (i & 63) }

// LoggedLocked returns the membership set of Deleted over the training
// rows. The caller may add ids it is checking — a batch's own repeats — but
// must remove them again before releasing Mu. Callers hold Mu.
func (sess *Session) LoggedLocked() RowSet {
	n := sess.DS.N()
	if sess.logged == nil || sess.loggedLen > len(sess.Deleted) {
		sess.logged, sess.loggedLen = make(RowSet, (n+63)/64), 0
	}
	for _, i := range sess.Deleted[sess.loggedLen:] {
		if i >= 0 && i < n {
			sess.logged.Add(i)
		}
	}
	sess.loggedLen = len(sess.Deleted)
	return sess.logged
}

// DropCursorLocked discards the live cursor (rebuilt from Deleted on the
// next fold). Callers hold Mu.
func (sess *Session) DropCursorLocked() { sess.cursor = nil }

// Touch advances the session's LRU clock.
func (sess *Session) Touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

// LastUsed returns the unix-nano timestamp of the latest access.
func (sess *Session) LastUsed() int64 { return sess.lastUsed.Load() }

// Footprint returns the session's resident-memory charge.
func (sess *Session) Footprint() int64 { return sess.footprint }

// MarkDirtyLocked advances the session's mutation generation (flagging
// serving state the disk tier hasn't seen) and, in a tiered store, schedules
// a write-behind snapshot so the next eviction can drop the resident copy
// instead of paying the spill IO. Callers hold Mu.
func (sess *Session) MarkDirtyLocked() {
	sess.gen.Add(1)
	if sess.notifyDirty != nil {
		sess.notifyDirty(sess)
	}
}

// Dirty reports whether the session carries mutations the disk tier has not
// persisted yet.
func (sess *Session) Dirty() bool {
	return sess.gen.Load() != sess.persistedGen.Load()
}

// persistUpTo records that the disk tier now covers generation g. It is a
// CAS-max: a stale publish (g older than what a racing spill already
// persisted) leaves the counter alone, so it can never mask a newer cut.
func (sess *Session) persistUpTo(g int64) {
	for {
		cur := sess.persistedGen.Load()
		if cur >= g || sess.persistedGen.CompareAndSwap(cur, g) {
			return
		}
	}
}

// GoneLocked reports whether this copy was evicted or deleted from the store.
// Callers hold Mu.
func (sess *Session) GoneLocked() bool { return sess.gone.Load() }

// Pin marks a long-running read in flight: the budget evictor will not pick
// the session while pinned. Pair every Pin with an Unpin (defer it).
func (sess *Session) Pin() { sess.pins.Add(1) }

// Unpin releases one Pin.
func (sess *Session) Unpin() { sess.pins.Add(-1) }

// Pinned reports whether any long-running read holds the session resident.
func (sess *Session) Pinned() bool { return sess.pins.Load() > 0 }

// TrainingSetBytes charges a training set's resident memory for eviction
// accounting.
func TrainingSetBytes(ds priu.TrainingSet) int64 {
	switch d := ds.(type) {
	case *dataset.Dataset:
		return int64(d.N())*int64(d.M())*8 + int64(d.N())*8
	case *dataset.SparseDataset:
		return d.X.FootprintBytes() + int64(d.N())*8
	default:
		return 0
	}
}

// NumShards is the in-memory tier's shard count. Shard selection hashes the
// session ID, so concurrent requests to different sessions rarely share a
// lock; 16 shards keep contention negligible well past hundreds of
// concurrent streams while the per-shard memory overhead stays trivial.
const NumShards = 16

// ShardIndex maps a session ID to its shard, exported so the service can
// align its per-shard request counters with the store's session placement.
func ShardIndex(id string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % NumShards)
}

// ShardStats is one in-memory shard's view within Stats.
type ShardStats struct {
	// Sessions counts the shard's resident sessions.
	Sessions int
	// BudgetEvictions counts LRU evictions forced by the session/byte budget.
	BudgetEvictions int64
	// ExplicitDeletes counts sessions dropped by Delete.
	ExplicitDeletes int64
}

// SpilledSession describes one disk-tier-only session (metadata comes from
// the spill-file envelope, so listing does not restore anything).
type SpilledSession struct {
	ID        string
	Kind      string
	CreatedAt time.Time
	Bytes     int64
	// Remote marks a session whose only spilled copy lives in the shared
	// blob tier (no local cache file).
	Remote bool
}

// TenantStats is one tenant's view within Stats. The anonymous namespace
// appears under the "" key.
type TenantStats struct {
	Resident        int
	ResidentBytes   int64
	Spilled         int
	SpilledBytes    int64
	BudgetEvictions int64
	ExplicitDeletes int64
	QuotaRejections int64
	// SpillFileBytes is the tenant's actual on-disk spill-file usage — the
	// quantity its MaxSpillBytes cap is checked against (file bytes, not the
	// resident footprint SpilledBytes approximates).
	SpillFileBytes int64
	// DiskEvictions counts the tenant's disk-only sessions dropped by the
	// global disk budget.
	DiskEvictions int64
}

// TenantUsage is a tenant's live storage charge across tiers — the quantity
// its quota is checked against.
type TenantUsage struct {
	Resident      int
	ResidentBytes int64
	Spilled       int
	SpilledBytes  int64
	// SpillFileBytes is the tenant's on-disk spill-file usage (the
	// MaxSpillBytes cap dimension).
	SpillFileBytes int64
}

// Sessions returns the tenant's owned session count across tiers.
func (u TenantUsage) Sessions() int { return u.Resident + u.Spilled }

// Bytes returns the tenant's owned session bytes across tiers.
func (u TenantUsage) Bytes() int64 { return u.ResidentBytes + u.SpilledBytes }

// Stats is a point-in-time view of the store, split per tier. Budget
// evictions and explicit deletes are separate counters: an eviction is a
// budget decision (and, in the tiered store, a spill), a delete is a client
// instruction to forget the session.
type Stats struct {
	// Resident / ResidentBytes describe the in-memory tier.
	Resident      int
	ResidentBytes int64
	// BudgetEvictions / ExplicitDeletes aggregate the per-shard counters.
	BudgetEvictions int64
	ExplicitDeletes int64
	// Disk-tier counters (zero for Memory).
	Spilled      int
	SpilledBytes int64
	Spills       int64
	Restores     int64
	Unspillable  int64
	// DeltaSpills counts spills written as delta segments (a subset of
	// Spills; the rest were full base snapshots). Compactions counts folds:
	// base spills cut from a full delta chain, whose snapshot bytes were
	// copied from the chain's base (also a subset of Spills). DeltaSegments
	// is the current number of live delta files across all chains.
	DeltaSpills   int64
	Compactions   int64
	DeltaSegments int
	// StaleSpills counts publishes discarded because a newer cut reached the
	// index first (the generation/chain guard) — each one re-enqueues, so
	// this gauges write-behind churn, not data loss.
	StaleSpills int64
	// PendingTombstones is the number of deletion tombstones not yet fully
	// resolved (local files unlinked and the blob delete stuck). Pending
	// tombstones are replayed at boot so an acknowledged delete can never
	// resurrect.
	PendingTombstones int
	// SpillDirBytes is the on-disk size of the spill directory — indexed
	// spill files plus any orphaned leftovers — maintained incrementally by
	// the lifecycle manager (seeded by a boot-time scan, refreshed on GC
	// sweeps; in-flight temp files are excluded). Zero for Memory.
	SpillDirBytes int64
	// SpillMaxBytes echoes the configured disk budget (0 = unbounded).
	SpillMaxBytes int64
	// WriteBehindSpills counts spills performed by the write-behind worker
	// (a subset of Spills); the rest were synchronous — eviction fallbacks,
	// the shutdown drain or the fleet handoff.
	WriteBehindSpills int64
	// SpillQueueDepth is the write-behind backlog: sessions in the dirty
	// set plus those the worker's current pass has not finished.
	SpillQueueDepth int
	// SpillQueueFull counted write-behind enqueues dropped by a full queue.
	// The dirty set never drops one.
	//
	// Deprecated: always 0.
	SpillQueueFull int64
	// DiskEvictions counts disk-only sessions dropped to keep the spill
	// directory under SpillMaxBytes.
	DiskEvictions int64
	// GCRemovals counts orphaned spill-directory files removed by the
	// age-based GC.
	GCRemovals int64
	// BlobTier reports whether a shared blob tier is configured; the Blob*
	// counters below are zero without one.
	BlobTier bool
	// BlobSessions / BlobBytes describe the index entries whose spill state
	// the shared blob tier holds (local cache files may also exist).
	BlobSessions int
	BlobBytes    int64
	// BlobPuts / BlobGets / BlobDeletes count completed blob operations;
	// BlobErrors counts failed ones (retried by the GC sweep where safe).
	BlobPuts    int64
	BlobGets    int64
	BlobDeletes int64
	BlobErrors  int64
	// BlobDemotions counts local cache files dropped by the disk budget
	// whose sessions survived remote-only in the blob tier (pure cache
	// drops — compare DiskEvictions, which lose the session).
	BlobDemotions int64
	// Shards is the per-shard breakdown of the in-memory tier.
	Shards [NumShards]ShardStats
	// SpilledSessions lists the disk-tier-only sessions.
	SpilledSessions []SpilledSession
	// Tenants is the per-tenant breakdown ("" = the anonymous namespace).
	Tenants map[string]TenantStats
}

// Store is the session-storage abstraction the service is built on.
type Store interface {
	// Put registers a session and enforces any budget (which may evict — and
	// in a tiered store spill — least-recently-used sessions, never sess
	// itself). When the session's tenant is at its quota the registration is
	// rejected with a *QuotaError and nothing is stored: a quota is a hard
	// admission limit, a budget is a cache boundary.
	Put(sess *Session) error
	// Get returns the session, restoring it from a colder tier if needed,
	// and bumps its LRU clock.
	Get(id string) (*Session, bool)
	// Delete forgets the session in every tier, reporting whether it existed.
	Delete(id string) bool
	// Touch bumps the session's LRU clock (restoring it if cold), reporting
	// whether it exists.
	Touch(id string) bool
	// Range calls fn for every resident session until fn returns false.
	Range(fn func(*Session) bool)
	// Stats returns a point-in-time view of every tier.
	Stats() Stats
	// TenantUsage returns one tenant's live storage charge across tiers —
	// cheaper than Stats when only an admission check is needed.
	TenantUsage(tenant string) TenantUsage
	// Close flushes whatever durability the store offers (the tiered store
	// snapshots all dirty resident sessions — the SIGTERM drain).
	Close() error
}
