package store

import (
	"sync"
	"sync/atomic"
)

// memShard is one lock domain of the in-memory tier.
type memShard struct {
	mu       sync.RWMutex
	sessions map[string]*Session

	// Counters are lock-free so hot paths never take the shard lock just to
	// bump a metric.
	budgetEvictions atomic.Int64
	explicitDeletes atomic.Int64
}

// memTenant is one tenant's accounting entry (guarded by Memory.tmu).
// resident/residentBytes track the in-memory tier; owned/ownedBytes track
// the sessions the tenant owns across every tier — a spill moves a session
// out of resident but not out of owned, so the quota check is a single
// O(1) compare under one lock with no colder-tier scan (and no window where
// a concurrent eviction hides a session from both tiers' counts).
type memTenant struct {
	resident        int
	residentBytes   int64
	owned           int
	ownedBytes      int64
	budgetEvictions int64
	explicitDeletes int64
	quotaRejections int64
	// spillBytes is the tenant's on-disk spill-file usage, maintained by the
	// tiered store as files are published and unlinked — the MaxSpillBytes
	// cap dimension.
	spillBytes int64
	// diskEvictions counts the tenant's disk-only sessions dropped by the
	// global disk budget.
	diskEvictions int64
}

// Memory is the hash-sharded in-memory tier with an optional LRU budget.
// The zero value is not usable; call NewMemory.
type Memory struct {
	shards [NumShards]memShard

	// Eviction budgets (0 = unbounded) and accounting.
	maxSessions int
	maxBytes    int64
	curBytes    atomic.Int64

	// limits resolves per-tenant quotas (nil = no tenant quotas). tmu guards
	// the tenants map; quota check + reservation share one acquisition so
	// concurrent registrations can never jointly overshoot a quota.
	limits  LimitsFunc
	tmu     sync.Mutex
	tenants map[string]*memTenant

	// onEvictLocked, when set (by Tiered), is called with the victim's Mu
	// held before it is removed from the map or marked gone — the spill
	// hook. It runs outside all shard locks and reports the eviction
	// outcome: evictPreserved keeps the tenant's ownership charge (the
	// session survives in a colder tier), evictLost releases it (the
	// session is dropped), and evictRefused vetoes the eviction entirely —
	// the victim stays resident and the budget enforcer must pick another
	// (or report pressure), because dropping it would lose state the disk
	// tier cannot take right now.
	onEvictLocked func(*Session) int
}

// MemoryOption configures NewMemory.
type MemoryOption func(*Memory)

// WithMaxSessions bounds the number of resident sessions; the least recently
// used session is evicted when a registration exceeds the budget (0 =
// unbounded).
func WithMaxSessions(n int) MemoryOption { return func(m *Memory) { m.maxSessions = n } }

// WithMaxBytes bounds resident session memory (training data + provenance,
// as charged by priu.Updater.FootprintBytes); least recently used sessions
// are evicted when a registration exceeds the budget (0 = unbounded).
func WithMaxBytes(b int64) MemoryOption { return func(m *Memory) { m.maxBytes = b } }

// WithTenantLimits installs per-tenant quotas: Put rejects a registration
// (with *QuotaError) when it would take the session's tenant over its limit.
// The function is consulted on every registration, so hot-reloaded limits
// apply immediately. The anonymous namespace ("") is never quota-checked.
func WithTenantLimits(f LimitsFunc) MemoryOption { return func(m *Memory) { m.limits = f } }

// NewMemory returns an empty in-memory session store.
func NewMemory(opts ...MemoryOption) *Memory {
	m := &Memory{tenants: make(map[string]*memTenant)}
	for i := range m.shards {
		m.shards[i].sessions = make(map[string]*Session)
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// tenant returns (creating if needed) a tenant's accounting entry. Callers
// hold tmu.
func (m *Memory) tenant(name string) *memTenant {
	tu, ok := m.tenants[name]
	if !ok {
		tu = &memTenant{}
		m.tenants[name] = tu
	}
	return tu
}

// Put implements Store: the quota check and ownership reservation are one
// atomic step under tmu, so concurrent registrations (and concurrent spills,
// which never touch the owned counters) cannot jointly overshoot a quota.
func (m *Memory) Put(sess *Session) error {
	ten := TenantOf(sess.ID)
	m.tmu.Lock()
	tu := m.tenant(ten)
	if m.limits != nil && ten != "" {
		lim := m.limits(ten)
		if lim.MaxSessions > 0 && tu.owned+1 > lim.MaxSessions {
			tu.quotaRejections++
			m.tmu.Unlock()
			return &QuotaError{
				Tenant: ten, Dimension: "sessions",
				Used: int64(tu.owned + 1), Limit: int64(lim.MaxSessions),
			}
		}
		if lim.MaxBytes > 0 && tu.ownedBytes+sess.footprint > lim.MaxBytes {
			tu.quotaRejections++
			m.tmu.Unlock()
			return &QuotaError{
				Tenant: ten, Dimension: "bytes",
				Used: tu.ownedBytes + sess.footprint, Limit: lim.MaxBytes,
			}
		}
		// A tenant sitting at its spill-byte cap cannot register more
		// sessions: its disk usage must shrink (explicit deletes) before the
		// store takes on state it may be unable to preserve.
		if lim.MaxSpillBytes > 0 && tu.spillBytes >= lim.MaxSpillBytes {
			tu.quotaRejections++
			m.tmu.Unlock()
			return &QuotaError{
				Tenant: ten, Dimension: DimensionSpillBytes,
				Used: tu.spillBytes, Limit: lim.MaxSpillBytes,
			}
		}
	}
	tu.owned++
	tu.ownedBytes += sess.footprint
	tu.resident++
	tu.residentBytes += sess.footprint
	m.tmu.Unlock()
	if pe := m.insert(sess); pe != nil {
		// The resident tier is over budget and every evictable session is
		// pinned by an active stream: evicting would drop state under a
		// reader, and admitting without evicting would let pinned load grow
		// the tier without bound. Undo the registration and report the
		// transient pressure — the caller retries once streams settle.
		sh := &m.shards[ShardIndex(sess.ID)]
		sh.mu.Lock()
		delete(sh.sessions, sess.ID)
		sh.mu.Unlock()
		m.curBytes.Add(-sess.footprint)
		m.tmu.Lock()
		tu := m.tenant(ten)
		tu.owned--
		tu.ownedBytes -= sess.footprint
		tu.resident--
		tu.residentBytes -= sess.footprint
		m.tmu.Unlock()
		sess.Mu.Lock()
		sess.gone.Store(true)
		sess.Mu.Unlock()
		return pe
	}
	return nil
}

// putRestored publishes a session re-materialized from a colder tier. No
// quota check and no ownership charge: the session already counts against
// its tenant (it existed), only the resident-tier accounting moves.
func (m *Memory) putRestored(sess *Session) {
	ten := TenantOf(sess.ID)
	m.tmu.Lock()
	tu := m.tenant(ten)
	tu.resident++
	tu.residentBytes += sess.footprint
	m.tmu.Unlock()
	m.insert(sess)
}

// adjustOwned shifts a tenant's cross-tier ownership charge directly — the
// tiered store uses it to seed reboot-indexed spill files and to settle
// byte-charge drift on restores and disk-only deletes.
func (m *Memory) adjustOwned(tenant string, dSessions int, dBytes int64) {
	m.tmu.Lock()
	tu := m.tenant(tenant)
	tu.owned += dSessions
	tu.ownedBytes += dBytes
	m.tmu.Unlock()
}

// reserveSpill charges delta spill-file bytes against the tenant, enforcing
// its MaxSpillBytes cap: a charge that would cross the cap is rejected with
// a *QuotaError and nothing is charged. Negative deltas (file unlinks)
// always succeed. The anonymous namespace is never capped.
func (m *Memory) reserveSpill(tenant string, delta int64) error {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	tu := m.tenant(tenant)
	if delta > 0 && m.limits != nil && tenant != "" {
		if lim := m.limits(tenant); lim.MaxSpillBytes > 0 && tu.spillBytes+delta > lim.MaxSpillBytes {
			return &QuotaError{
				Tenant: tenant, Dimension: DimensionSpillBytes,
				Used: tu.spillBytes + delta, Limit: lim.MaxSpillBytes,
			}
		}
	}
	tu.spillBytes += delta
	return nil
}

// adjustSpill shifts a tenant's spill-file usage without a cap check — the
// release path (unlinks) and the boot seed, which must account for what
// already exists on disk.
func (m *Memory) adjustSpill(tenant string, delta int64) {
	m.tmu.Lock()
	m.tenant(tenant).spillBytes += delta
	m.tmu.Unlock()
}

// chargeDiskEviction counts a disk-budget drop of one of the tenant's
// disk-only sessions.
func (m *Memory) chargeDiskEviction(tenant string) {
	m.tmu.Lock()
	m.tenant(tenant).diskEvictions++
	m.tmu.Unlock()
}

// insert publishes an already-accounted session and enforces the global
// budgets, reporting unresolvable resident pressure (every evictable session
// pinned). Put rejects on pressure; putRestored ignores it — a restore must
// succeed, the budget is temporarily exceeded instead.
func (m *Memory) insert(sess *Session) *PressureError {
	sh := &m.shards[ShardIndex(sess.ID)]
	sess.Touch()
	sh.mu.Lock()
	sh.sessions[sess.ID] = sess
	sh.mu.Unlock()
	m.curBytes.Add(sess.footprint)
	return m.enforceBudget(sess.ID)
}

// Eviction outcomes reported by onEvictLocked.
const (
	// evictPreserved: the victim's state survives in a colder tier; drop
	// the resident copy and keep the tenant's ownership charge.
	evictPreserved = iota
	// evictLost: the victim could not be preserved (no colder tier, or the
	// spill failed); the session is dropped and its ownership released.
	evictLost
	// evictRefused: the disk tier is under pressure it cannot relieve
	// (every reclaimable file pinned) — the victim must NOT be dropped.
	// The enforcer skips it and reports *PressureError if nothing else is
	// evictable.
	evictRefused
)

// Removal reasons for tenant accounting.
const (
	// removalEvict is a budget eviction; ownership is released only when the
	// session did not survive to a colder tier.
	removalEvict = iota
	// removalDelete is an explicit Delete: the session is gone everywhere.
	removalDelete
	// removalDrop undoes a restore that raced a Delete: the resident copy
	// leaves, but the ownership charge was already settled by the Delete.
	removalDrop
)

// uncharge updates the owning tenant's accounting when a session leaves the
// resident tier. preserved reports whether the session survives in a colder
// tier (only meaningful for removalEvict).
func (m *Memory) uncharge(sess *Session, reason int, preserved bool) {
	m.tmu.Lock()
	tu := m.tenant(TenantOf(sess.ID))
	tu.resident--
	tu.residentBytes -= sess.footprint
	switch reason {
	case removalEvict:
		tu.budgetEvictions++
		if !preserved {
			tu.owned--
			tu.ownedBytes -= sess.footprint
		}
	case removalDelete:
		tu.explicitDeletes++
		tu.owned--
		tu.ownedBytes -= sess.footprint
	}
	m.tmu.Unlock()
}

// chargeExplicitDelete counts an explicit delete that removed no resident
// copy (the tiered store's disk-only deletes) against the owning tenant.
func (m *Memory) chargeExplicitDelete(tenant string) {
	m.tmu.Lock()
	m.tenant(tenant).explicitDeletes++
	m.tmu.Unlock()
}

// Get implements Store.
func (m *Memory) Get(id string) (*Session, bool) {
	sh := &m.shards[ShardIndex(id)]
	sh.mu.RLock()
	sess, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if ok {
		sess.Touch()
	}
	return sess, ok
}

// peek returns a resident session without touching the LRU clock (used by
// the tiered store's stats and disk-budget evictor).
func (m *Memory) peek(id string) (*Session, bool) {
	sh := &m.shards[ShardIndex(id)]
	sh.mu.RLock()
	sess, ok := sh.sessions[id]
	sh.mu.RUnlock()
	return sess, ok
}

// has reports residency without touching the LRU clock.
func (m *Memory) has(id string) bool {
	_, ok := m.peek(id)
	return ok
}

// Delete implements Store.
func (m *Memory) Delete(id string) bool {
	sh := &m.shards[ShardIndex(id)]
	sh.mu.Lock()
	sess, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if !ok {
		return false
	}
	sh.explicitDeletes.Add(1)
	m.curBytes.Add(-sess.footprint)
	m.uncharge(sess, removalDelete, false)
	sess.Mu.Lock()
	sess.gone.Store(true)
	sess.Mu.Unlock()
	return true
}

// drop removes a session without touching the explicit-delete counter — used
// by the tiered store to undo a restore that raced a Delete.
func (m *Memory) drop(id string) {
	sh := &m.shards[ShardIndex(id)]
	sh.mu.Lock()
	sess, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if !ok {
		return
	}
	m.curBytes.Add(-sess.footprint)
	m.uncharge(sess, removalDrop, false)
	sess.Mu.Lock()
	sess.gone.Store(true)
	sess.Mu.Unlock()
}

// Range implements Store. fn runs without any shard lock held, so it may
// lock Session.Mu.
func (m *Memory) Range(fn func(*Session) bool) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		sessions := make([]*Session, 0, len(sh.sessions))
		for _, sess := range sh.sessions {
			sessions = append(sessions, sess)
		}
		sh.mu.RUnlock()
		for _, sess := range sessions {
			if !fn(sess) {
				return
			}
		}
	}
}

// Stats implements Store.
func (m *Memory) Stats() Stats {
	st := Stats{ResidentBytes: m.curBytes.Load()}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		st.Shards[i].Sessions = len(sh.sessions)
		sh.mu.RUnlock()
		st.Shards[i].BudgetEvictions = sh.budgetEvictions.Load()
		st.Shards[i].ExplicitDeletes = sh.explicitDeletes.Load()
		st.Resident += st.Shards[i].Sessions
		st.BudgetEvictions += st.Shards[i].BudgetEvictions
		st.ExplicitDeletes += st.Shards[i].ExplicitDeletes
	}
	m.tmu.Lock()
	st.Tenants = make(map[string]TenantStats, len(m.tenants))
	for name, tu := range m.tenants {
		st.Tenants[name] = TenantStats{
			Resident:        tu.resident,
			ResidentBytes:   tu.residentBytes,
			Spilled:         tu.owned - tu.resident,
			SpilledBytes:    tu.ownedBytes - tu.residentBytes,
			BudgetEvictions: tu.budgetEvictions,
			ExplicitDeletes: tu.explicitDeletes,
			QuotaRejections: tu.quotaRejections,
			SpillFileBytes:  tu.spillBytes,
			DiskEvictions:   tu.diskEvictions,
		}
	}
	m.tmu.Unlock()
	return st
}

// TenantUsage implements Store. Spilled usage is derived from the ownership
// counters (owned − resident), so the call is O(1) for both tiers.
func (m *Memory) TenantUsage(tenant string) TenantUsage {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	tu, ok := m.tenants[tenant]
	if !ok {
		return TenantUsage{}
	}
	return TenantUsage{
		Resident:       tu.resident,
		ResidentBytes:  tu.residentBytes,
		Spilled:        tu.owned - tu.resident,
		SpilledBytes:   tu.ownedBytes - tu.residentBytes,
		SpillFileBytes: tu.spillBytes,
	}
}

// Close implements Store (the in-memory tier has nothing to flush).
func (m *Memory) Close() error { return nil }

// sessionCount returns the number of resident sessions.
func (m *Memory) sessionCount() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		total += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return total
}

// enforceBudget evicts least-recently-used sessions until the store is back
// under the session-count and byte budgets. The session named keepID (the
// one that triggered enforcement) is never evicted, so a single oversized
// registration still lands. Evictions are charged to the victim's tenant.
// When the budget stays exceeded because every candidate is pinned by a
// long-running read, a *PressureError names the exhausted dimension; a
// budget exceeded with nothing else resident at all (one oversized
// registration) is not pressure.
func (m *Memory) enforceBudget(keepID string) *PressureError {
	if m.maxSessions <= 0 && m.maxBytes <= 0 {
		return nil
	}
	// refused collects victims the eviction hook vetoed this enforcement
	// (disk tier under unrelievable pressure): they are skipped like pinned
	// sessions instead of silently dropped, and count toward the pressure
	// report — the registration is rejected, not someone else's state.
	var refused map[string]bool
	for {
		over := (m.maxSessions > 0 && m.sessionCount() > m.maxSessions) ||
			(m.maxBytes > 0 && m.curBytes.Load() > m.maxBytes)
		if !over {
			return nil
		}
		victim, vShard, pinned := m.pickVictim(keepID, refused)
		if victim == nil {
			if pinned+len(refused) == 0 {
				return nil // nothing evictable left (oversized single session)
			}
			dim := "bytes"
			if m.maxSessions > 0 && m.sessionCount() > m.maxSessions {
				dim = "sessions"
			}
			return &PressureError{Dimension: dim, Pinned: pinned + len(refused)}
		}
		// Spill (if tiered) BEFORE removing the session from the resident
		// map, so a concurrent Get always finds it in at least one tier —
		// never a window where the session is in neither. Spill and the gone
		// flag share one Mu acquisition: an update serialized before the
		// flag flips is in the spill file, an update that loses the lock
		// race sees gone and re-fetches the restored copy — either way no
		// honored deletion is lost. Mutators that re-fetch while the session
		// is still briefly in the map just retry until the removal below
		// lands.
		victim.Mu.Lock()
		if victim.gone.Load() {
			victim.Mu.Unlock()
			continue // a concurrent evictor or deleter won
		}
		outcome := evictLost
		if m.onEvictLocked != nil {
			outcome = m.onEvictLocked(victim)
		}
		if outcome == evictRefused {
			victim.Mu.Unlock()
			if refused == nil {
				refused = make(map[string]bool)
			}
			refused[victim.ID] = true
			continue // victim stays resident; try the next candidate
		}
		preserved := outcome == evictPreserved
		victim.gone.Store(true)
		victim.Mu.Unlock()
		vShard.mu.Lock()
		// Re-check under the lock: a concurrent deleter may have won.
		if _, still := vShard.sessions[victim.ID]; !still {
			vShard.mu.Unlock()
			continue
		}
		delete(vShard.sessions, victim.ID)
		vShard.mu.Unlock()
		vShard.budgetEvictions.Add(1)
		m.curBytes.Add(-victim.footprint)
		m.uncharge(victim, removalEvict, preserved)
	}
}

// victimCand is one eviction candidate found by the shard scan.
type victimCand struct {
	sess  *Session
	shard *memShard
	lu    int64
}

// pickVictim chooses the session to evict: with a single tenant resident it
// is the plain global LRU session, with several it is fair-share — the
// victim comes from the tenant furthest over its equal share of resident
// bytes (LRU within that tenant), so one hot tenant churning registrations
// cannot monopolize the resident tier by aging out everyone else's
// sessions. The session named keepID is never picked, nor is any session
// pinned by a long-running read or in the caller's skip set (eviction
// refused this enforcement) — when everything evictable is pinned or
// refused, enforcement rejects the registration with a *PressureError
// rather than dropping state under an active stream. The pinned count of
// skipped sessions rides along so the caller can tell "all pinned"
// (transient pressure) from "nothing else resident" (an oversized single
// session).
func (m *Memory) pickVictim(keepID string, skip map[string]bool) (*Session, *memShard, int) {
	var global victimCand
	pinned := 0
	perTenant := map[string]victimCand{}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, sess := range sh.sessions {
			if sess.ID == keepID || skip[sess.ID] {
				continue
			}
			if sess.Pinned() {
				pinned++
				continue // a long-running read holds it resident
			}
			lu := sess.lastUsed.Load()
			if global.sess == nil || lu < global.lu {
				global = victimCand{sess, sh, lu}
			}
			ten := TenantOf(sess.ID)
			if c, ok := perTenant[ten]; !ok || lu < c.lu {
				perTenant[ten] = victimCand{sess, sh, lu}
			}
		}
		sh.mu.RUnlock()
	}
	if len(perTenant) <= 1 {
		return global.sess, global.shard, pinned
	}
	// Several tenants have evictable sessions: weight by resident working
	// set. Fair share is an equal split of the candidates' total resident
	// bytes; the tenant with the largest excess loses its LRU session, ties
	// (e.g. perfectly balanced tenants) falling back to the global LRU.
	m.tmu.Lock()
	resident := make(map[string]int64, len(perTenant))
	var total int64
	for ten := range perTenant {
		if tu, ok := m.tenants[ten]; ok {
			resident[ten] = tu.residentBytes
			total += tu.residentBytes
		}
	}
	m.tmu.Unlock()
	fair := total / int64(len(perTenant))
	var (
		best       victimCand
		bestExcess int64
	)
	for ten, c := range perTenant {
		excess := resident[ten] - fair
		if excess <= 0 {
			continue
		}
		if best.sess == nil || excess > bestExcess ||
			(excess == bestExcess && c.lu < best.lu) {
			best, bestExcess = c, excess
		}
	}
	if best.sess == nil {
		return global.sess, global.shard, pinned
	}
	return best.sess, best.shard, pinned
}
