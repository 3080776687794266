package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/priu"
)

// newTestTiered builds a tiered store whose lifecycle (the write-behind
// worker, the GC loop) is stopped when the test ends, so background spills
// never race the TempDir cleanup.
func newTestTiered(t testing.TB, dir string, mem *Memory, opts ...TieredOption) *Tiered {
	t.Helper()
	ti, err := NewTiered(dir, mem, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ti.stopLifecycle)
	return ti
}

// newSteppedTiered builds a tiered store that starts no background loops and
// folds chains at compactAfter segments (0 never folds), sweeping orphans
// older than gcAge. Nothing spills unless the test drives it: an eviction
// pays the synchronous spill, Flush runs the write-behind pass
// (spillPending) on the caller's goroutine, and gcOnce runs when called. A
// test that wants the loops after all starts them with startLifecycle.
func newSteppedTiered(t testing.TB, dir string, mem *Memory, compactAfter int, gcAge time.Duration, opts ...TieredOption) *Tiered {
	t.Helper()
	ti, err := openTiered(dir, mem, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ti.compactAfter, ti.gcAge = compactAfter, gcAge
	t.Cleanup(ti.stopLifecycle)
	return ti
}

// trainSession builds a resident session on a small deterministic dataset.
func trainSession(t testing.TB, id string, seed int64) *Session {
	t.Helper()
	d, err := priu.GenerateRegression("st-"+id, 60, 4, 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	u, err := priu.Train("linear", d,
		priu.WithEta(0.01), priu.WithLambda(0.05), priu.WithBatchSize(15),
		priu.WithIterations(20), priu.WithSeed(seed), priu.WithFullCaches())
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(id, "linear", d, u, nil, nil)
}

// applyDeletion mimics the service's mutation path: cumulative log + new
// model + dirty flag, under Mu.
func applyDeletion(t testing.TB, sess *Session, removed []int) []float64 {
	t.Helper()
	sess.Mu.Lock()
	defer sess.Mu.Unlock()
	all := append(append([]int(nil), sess.Deleted...), removed...)
	m, err := sess.Upd.Update(all)
	if err != nil {
		t.Fatal(err)
	}
	sess.Deleted = all
	sess.Model = m
	sess.Updates++
	sess.MarkDirtyLocked()
	return m.Vec()
}

func TestMemoryBudgetAndCounterSplit(t *testing.T) {
	m := NewMemory(WithMaxSessions(2))
	a, b, c := trainSession(t, "sess-1", 1), trainSession(t, "sess-2", 2), trainSession(t, "sess-3", 3)
	m.Put(a)
	m.Put(b)
	m.Touch("sess-1") // make sess-2 the LRU victim
	m.Put(c)

	if _, ok := m.Get("sess-2"); ok {
		t.Fatal("LRU session should be evicted")
	}
	if _, ok := m.Get("sess-1"); !ok {
		t.Fatal("touched session should survive")
	}
	if !m.Delete("sess-3") {
		t.Fatal("explicit delete should succeed")
	}
	if m.Delete("sess-3") {
		t.Fatal("second delete should report missing")
	}
	st := m.Stats()
	if st.BudgetEvictions != 1 || st.ExplicitDeletes != 1 {
		t.Fatalf("counter split wrong: budget=%d explicit=%d, want 1/1", st.BudgetEvictions, st.ExplicitDeletes)
	}
	if st.Resident != 1 {
		t.Fatalf("resident = %d, want 1", st.Resident)
	}
	var sum int64
	for _, sh := range st.Shards {
		sum += sh.BudgetEvictions + sh.ExplicitDeletes
	}
	if sum != 2 {
		t.Fatalf("per-shard counters sum to %d, want 2", sum)
	}
	// The evicted copy is flagged so a mutator holding it re-fetches.
	b.Mu.Lock()
	gone := b.GoneLocked()
	b.Mu.Unlock()
	if !gone {
		t.Fatal("evicted session should be marked gone")
	}
}

func TestTieredSpillRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Synchronous spills keep the exact Spills count deterministic; the
	// write-behind path has its own tests below.
	ti := newSteppedTiered(t, dir, NewMemory(WithMaxSessions(1)), defaultCompactAfter, defaultGCAge)
	a := trainSession(t, "sess-1", 11)
	wantVec := applyDeletion(t, a, []int{3, 9})
	ti.Put(a)
	ti.Put(trainSession(t, "sess-2", 12)) // evicts and spills sess-1

	st := ti.Stats()
	if st.Spilled != 1 || st.Spills != 1 || st.SpilledBytes <= 0 {
		t.Fatalf("spill stats %+v", st)
	}
	if len(st.SpilledSessions) != 1 || st.SpilledSessions[0].ID != "sess-1" {
		t.Fatalf("spilled listing %+v", st.SpilledSessions)
	}

	got, ok := ti.Get("sess-1")
	if !ok {
		t.Fatal("cold session should restore on touch")
	}
	if got == a {
		t.Fatal("restore should produce a fresh session object")
	}
	got.Mu.Lock()
	vec := got.Model.Vec()
	deleted := append([]int(nil), got.Deleted...)
	updates := got.Updates
	got.Mu.Unlock()
	if len(deleted) != 2 || deleted[0] != 3 || deleted[1] != 9 {
		t.Fatalf("restored deletion log %v", deleted)
	}
	if updates != 1 {
		t.Fatalf("restored updates counter %d, want 1", updates)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d: %v vs %v", i, vec[i], wantVec[i])
		}
	}
	if ti.Stats().Restores != 1 {
		t.Fatalf("restores = %d, want 1", ti.Stats().Restores)
	}
}

// TestTieredConcurrentRestore hammers a cold session from many goroutines:
// the singleflight must run exactly one restore and hand every caller the
// same session object. Run under -race.
func TestTieredConcurrentRestore(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)))
	a := trainSession(t, "sess-1", 21)
	applyDeletion(t, a, []int{1, 2})
	ti.Put(a)
	ti.Put(trainSession(t, "sess-2", 22)) // spill sess-1

	const touchers = 16
	got := make([]*Session, touchers)
	var wg sync.WaitGroup
	for g := 0; g < touchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, ok := ti.Get("sess-1")
			if !ok {
				t.Errorf("toucher %d: restore failed", g)
				return
			}
			got[g] = sess
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for g := 1; g < touchers; g++ {
		if got[g] != got[0] {
			t.Fatalf("touchers %d and 0 got different session objects", g)
		}
	}
	if r := ti.Stats().Restores; r != 1 {
		t.Fatalf("concurrent touches triggered %d restores, want exactly 1", r)
	}
}

func TestTieredCloseDrainAndReboot(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	a := trainSession(t, "sess-1", 31)
	wantVec := applyDeletion(t, a, []int{5})
	ti.Put(a)
	// Never evicted — only the Close drain (the SIGTERM path) persists it.
	if err := ti.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Leave a torn temp file; reboot must clean it up and ignore it.
	if err := os.WriteFile(filepath.Join(dir, blobTmp+"dead"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	ti2 := newTestTiered(t, dir, NewMemory())
	st := ti2.Stats()
	if st.Spilled != 1 || st.Resident != 0 {
		t.Fatalf("reboot stats %+v", st)
	}
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("rebooted store should restore the drained session")
	}
	got.Mu.Lock()
	vec := got.Model.Vec()
	got.Mu.Unlock()
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("rebooted model differs at %d", i)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, blobTmp+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("temp files survived reboot: %v", files)
	}
}

func TestTieredDeleteRemovesBothTiers(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)))
	ti.Put(trainSession(t, "sess-1", 41))
	ti.Put(trainSession(t, "sess-2", 42)) // spill sess-1
	if !ti.Delete("sess-1") {
		t.Fatal("delete of a spilled session should succeed")
	}
	if _, ok := ti.Get("sess-1"); ok {
		t.Fatal("deleted session must not restore")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "sess-1") {
			t.Fatalf("spill file %s for deleted session survived", f)
		}
	}
	if st := ti.Stats(); st.ExplicitDeletes != 1 {
		t.Fatalf("explicit deletes = %d, want 1", st.ExplicitDeletes)
	}
}

func TestTieredCleanReSpillSkipsWrite(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)))
	ti.Put(trainSession(t, "sess-1", 51))
	ti.Put(trainSession(t, "sess-2", 52)) // spill sess-1 (1 write)
	if _, ok := ti.Get("sess-1"); !ok {   // restore (clean), spills sess-2
		t.Fatal("restore failed")
	}
	if _, ok := ti.Get("sess-2"); !ok { // restore sess-2, re-evicts clean sess-1
		t.Fatal("restore failed")
	}
	st := ti.Stats()
	// sess-1 spilled once, sess-2 spilled once; the clean re-eviction of
	// sess-1 must not rewrite its unchanged file.
	if st.Spills != 2 {
		t.Fatalf("spills = %d, want 2 (clean re-eviction must skip the write)", st.Spills)
	}
}

func TestTieredStaleCopyNeverResurrects(t *testing.T) {
	// With spilling disabled (or a failed spill), evicting a session whose
	// state has moved past its disk copy must drop that copy: restoring it
	// would silently undo honored deletions.
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)), WithSpillOnEvict(false))
	a := trainSession(t, "sess-1", 61)
	ti.Put(a)
	if err := ti.Close(); err != nil { // drain: disk copy with 0 deletions
		t.Fatal(err)
	}
	applyDeletion(t, a, []int{2, 4})      // disk copy is now stale
	ti.Put(trainSession(t, "sess-2", 62)) // evicts dirty sess-1 without spilling

	if _, ok := ti.Get("sess-1"); ok {
		t.Fatal("stale disk copy resurrected a session past its persisted state")
	}
	if st := ti.Stats(); st.Spilled != 0 {
		t.Fatalf("stale entry still indexed: %+v", st.SpilledSessions)
	}

	// A clean eviction under -spill=false keeps the (current) disk copy.
	b := trainSession(t, "sess-3", 63)
	ti.Put(b)
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	ti.Put(trainSession(t, "sess-4", 64)) // evicts clean sess-3
	if _, ok := ti.Get("sess-3"); !ok {
		t.Fatal("clean eviction dropped a current disk copy")
	}
}

func TestSessionIDsNeverCollideAcrossBoots(t *testing.T) {
	// Guard the content-addressing assumption: two sessions with identical
	// payloads still produce distinct spill files because the envelope
	// carries the session ID.
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)))
	for i := 1; i <= 3; i++ {
		ti.Put(trainSession(t, fmt.Sprintf("sess-%d", i), 7)) // same seed → same payload
	}
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("%d spill files for 3 identical-payload sessions, want 3", len(files))
	}
}

func TestTenantHelpers(t *testing.T) {
	cases := []struct{ id, tenant, local string }{
		{"sess-1", "", "sess-1"},
		{"acme/sess-2", "acme", "sess-2"},
		{"a/b/sess-3", "a/b", "sess-3"}, // defensive: last separator wins
	}
	for _, c := range cases {
		if got := TenantOf(c.id); got != c.tenant {
			t.Fatalf("TenantOf(%q) = %q, want %q", c.id, got, c.tenant)
		}
		if got := LocalID(c.id); got != c.local {
			t.Fatalf("LocalID(%q) = %q, want %q", c.id, got, c.local)
		}
	}
}

// limitsMap is a static LimitsFunc for tests.
func limitsMap(m map[string]TenantLimits) LimitsFunc {
	return func(tenant string) TenantLimits { return m[tenant] }
}

func TestMemoryTenantQuota(t *testing.T) {
	m := NewMemory(WithTenantLimits(limitsMap(map[string]TenantLimits{
		"acme": {MaxSessions: 2},
	})))
	if err := m.Put(trainSession(t, "acme/sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(trainSession(t, "acme/sess-2", 2)); err != nil {
		t.Fatal(err)
	}
	err := m.Put(trainSession(t, "acme/sess-3", 3))
	qe, ok := err.(*QuotaError)
	if !ok {
		t.Fatalf("third Put error = %v, want *QuotaError", err)
	}
	if qe.Tenant != "acme" || qe.Dimension != "sessions" || qe.Limit != 2 {
		t.Fatalf("quota error %+v", qe)
	}
	// Other tenants (and the anonymous namespace) are unaffected.
	if err := m.Put(trainSession(t, "rival/sess-4", 4)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(trainSession(t, "sess-5", 5)); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if ts := st.Tenants["acme"]; ts.Resident != 2 || ts.QuotaRejections != 1 {
		t.Fatalf("acme tenant stats %+v", ts)
	}
	if ts := st.Tenants["rival"]; ts.Resident != 1 {
		t.Fatalf("rival tenant stats %+v", ts)
	}
	// An explicit delete frees quota.
	if !m.Delete("acme/sess-1") {
		t.Fatal("delete failed")
	}
	if err := m.Put(trainSession(t, "acme/sess-6", 6)); err != nil {
		t.Fatalf("Put after freeing quota: %v", err)
	}
	if u := m.TenantUsage("acme"); u.Resident != 2 || u.ResidentBytes <= 0 {
		t.Fatalf("acme usage %+v", u)
	}
}

func TestMemoryTenantByteQuota(t *testing.T) {
	one := trainSession(t, "probe/sess-0", 9)
	fp := one.Footprint()
	m := NewMemory(WithTenantLimits(limitsMap(map[string]TenantLimits{
		"acme": {MaxBytes: fp + fp/2}, // room for one session, not two
	})))
	if err := m.Put(trainSession(t, "acme/sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	err := m.Put(trainSession(t, "acme/sess-2", 2))
	qe, ok := err.(*QuotaError)
	if !ok || qe.Dimension != "bytes" {
		t.Fatalf("byte-quota Put error = %v, want bytes *QuotaError", err)
	}
}

func TestMemoryEvictionChargedToOwningTenant(t *testing.T) {
	m := NewMemory(WithMaxSessions(1))
	if err := m.Put(trainSession(t, "acme/sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(trainSession(t, "rival/sess-2", 2)); err != nil {
		t.Fatal(err) // evicts acme's LRU session
	}
	st := m.Stats()
	if ts := st.Tenants["acme"]; ts.Resident != 0 || ts.BudgetEvictions != 1 {
		t.Fatalf("acme stats after cross-tenant eviction %+v", ts)
	}
	if ts := st.Tenants["rival"]; ts.Resident != 1 || ts.BudgetEvictions != 0 {
		t.Fatalf("rival stats %+v", ts)
	}
}

func TestTieredTenantQuotaCountsSpilled(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(
		WithMaxSessions(1),
		WithTenantLimits(limitsMap(map[string]TenantLimits{"acme": {MaxSessions: 2}})),
	))
	if err := ti.Put(trainSession(t, "acme/sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Put(trainSession(t, "acme/sess-2", 2)); err != nil {
		t.Fatal(err) // spills sess-1; acme still owns both
	}
	if u := ti.TenantUsage("acme"); u.Resident != 1 || u.Spilled != 1 || u.SpilledBytes <= 0 {
		t.Fatalf("acme usage across tiers %+v", u)
	}
	if _, ok := ti.Put(trainSession(t, "acme/sess-3", 3)).(*QuotaError); !ok {
		t.Fatal("spilled sessions must count against the tenant quota")
	}
	// Restores bypass the quota: the session already counts.
	if _, ok := ti.Get("acme/sess-1"); !ok {
		t.Fatal("restore failed")
	}
	// Deleting a spilled session frees quota.
	if _, ok := ti.Get("acme/sess-2"); !ok { // make sess-2 resident, sess-1 spills
		t.Fatal("restore failed")
	}
	if !ti.Delete("acme/sess-1") {
		t.Fatal("delete failed")
	}
	if err := ti.Put(trainSession(t, "acme/sess-3", 3)); err != nil {
		t.Fatalf("Put after delete freed quota: %v", err)
	}
	st := ti.Stats()
	if ts := st.Tenants["acme"]; ts.ExplicitDeletes != 1 {
		t.Fatalf("acme stats %+v", ts)
	}
}

// readDirBytes is the ground-truth directory scan the maintained
// spill_dir_bytes counter replaced: the cross-check oracle.
func readDirBytes(t testing.TB, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func TestTieredSpillDirBytesGauge(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)))
	if ti.Stats().SpillDirBytes != 0 {
		t.Fatal("empty spill dir should gauge 0")
	}
	if err := ti.Put(trainSession(t, "sess-1", 71)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Put(trainSession(t, "sess-2", 72)); err != nil {
		t.Fatal(err) // evicts sess-1
	}
	ti.Flush() // both sessions eagerly snapshotted
	st := ti.Stats()
	if st.SpillDirBytes <= 0 || st.SpillDirBytes < st.SpilledBytes {
		t.Fatalf("spill dir gauge %d vs spilled bytes %d", st.SpillDirBytes, st.SpilledBytes)
	}
	// The maintained counter must agree with a real directory walk (the
	// cross-check for the per-request ReadDir it replaced).
	if scan := readDirBytes(t, dir); st.SpillDirBytes != scan {
		t.Fatalf("maintained gauge %d != directory scan %d", st.SpillDirBytes, scan)
	}
	// Explicit deletes of both sessions empty the directory and the gauge.
	if !ti.Delete("sess-1") || !ti.Delete("sess-2") {
		t.Fatal("delete failed")
	}
	if got := ti.Stats().SpillDirBytes; got != 0 {
		t.Fatalf("spill dir gauge %d after deleting every session, want 0", got)
	}
	if scan := readDirBytes(t, dir); scan != 0 {
		t.Fatalf("directory scan %d after deleting every session, want 0", scan)
	}
}

// TestTieredRebootSeedsGaugeFromScan covers the boot-time seed: a fresh
// process must serve spill_dir_bytes from what the reindex scan found —
// including unreadable orphans it refuses to index.
func TestTieredRebootSeedsGaugeFromScan(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	ti.Put(trainSession(t, "sess-1", 73))
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	// An orphan the reindex cannot parse still occupies disk.
	orphan := []byte("not a spill file, but bytes on disk all the same")
	if err := os.WriteFile(filepath.Join(dir, "junk"+spillExt), orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	ti2 := newTestTiered(t, dir, NewMemory())
	if got, scan := ti2.Stats().SpillDirBytes, readDirBytes(t, dir); got != scan {
		t.Fatalf("rebooted gauge %d != directory scan %d", got, scan)
	}
}

func TestTieredRebootSeedsTenantOwnership(t *testing.T) {
	// Spill files left by a previous process must count against their
	// tenant's quota from boot, before any restore.
	dir := t.TempDir()
	lim := limitsMap(map[string]TenantLimits{"acme": {MaxSessions: 2}})
	ti := newTestTiered(t, dir, NewMemory(WithTenantLimits(lim)))
	if err := ti.Put(trainSession(t, "acme/sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Close(); err != nil { // drain sess-1 to disk
		t.Fatal(err)
	}

	ti2 := newTestTiered(t, dir, NewMemory(WithTenantLimits(lim)))
	if u := ti2.TenantUsage("acme"); u.Sessions() != 1 || u.SpilledBytes <= 0 {
		t.Fatalf("rebooted usage %+v, want 1 owned spilled session", u)
	}
	if err := ti2.Put(trainSession(t, "acme/sess-2", 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ti2.Put(trainSession(t, "acme/sess-3", 3)).(*QuotaError); !ok {
		t.Fatal("rebooted spill file must count against the tenant quota")
	}
	// Restoring the rebooted session settles the byte charge to the true
	// footprint without changing the session count.
	if _, ok := ti2.Get("acme/sess-1"); !ok {
		t.Fatal("restore failed")
	}
	fp := trainSession(t, "probe/sess-0", 1).Footprint()
	if u := ti2.TenantUsage("acme"); u.Sessions() != 2 || u.Bytes() != 2*fp {
		t.Fatalf("post-restore usage %+v, want 2 sessions / %d bytes", u, 2*fp)
	}
}

// TestTieredConcurrentQuotaNeverOvershoots churns one tenant at its quota
// with concurrent registrations while evictions spill its residents: the
// ownership counters are the quota source of truth, so no interleaving of
// Put and spill may admit more sessions than the quota. Run under -race.
func TestTieredConcurrentQuotaNeverOvershoots(t *testing.T) {
	const quota = 4
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(
		WithMaxSessions(1), // every Put evicts/spills the previous resident
		WithTenantLimits(limitsMap(map[string]TenantLimits{"acme": {MaxSessions: quota}})),
	))
	sessions := make([]*Session, 12)
	for i := range sessions {
		sessions[i] = trainSession(t, fmt.Sprintf("acme/sess-%d", i+1), int64(i+1))
	}
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for _, sess := range sessions {
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			if err := ti.Put(sess); err == nil {
				admitted.Add(1)
			} else if _, ok := err.(*QuotaError); !ok {
				t.Errorf("unexpected Put error: %v", err)
			}
		}(sess)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := admitted.Load(); got != quota {
		t.Fatalf("admitted %d sessions, want exactly %d", got, quota)
	}
	if u := ti.TenantUsage("acme"); u.Sessions() != quota {
		t.Fatalf("owned usage %+v, want %d sessions", u, quota)
	}
}
