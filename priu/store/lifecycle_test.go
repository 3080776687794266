package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFairShareEviction(t *testing.T) {
	m := NewMemory(WithMaxSessions(4))
	// mouse's single session is the global LRU; hog then fills the tier.
	if err := m.Put(trainSession(t, "mouse/sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // strictly order the LRU clocks
	for i := 1; i <= 3; i++ {
		if err := m.Put(trainSession(t, fmt.Sprintf("hog/sess-%d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// The 5th registration must evict from hog (3/4 of the working set),
	// not mouse's globally-oldest session.
	if err := m.Put(trainSession(t, "hog/sess-4", 9)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("mouse/sess-1"); !ok {
		t.Fatal("fair-share eviction took the small tenant's only session instead of the hot tenant's LRU")
	}
	if _, ok := m.Get("hog/sess-1"); ok {
		t.Fatal("hot tenant's LRU session should have been the victim")
	}
	st := m.Stats()
	if ts := st.Tenants["hog"]; ts.BudgetEvictions != 1 {
		t.Fatalf("hog stats %+v, want the eviction charged to it", ts)
	}
	if ts := st.Tenants["mouse"]; ts.BudgetEvictions != 0 {
		t.Fatalf("mouse stats %+v, want no evictions", ts)
	}
}

// spillFileSize measures one session's spill-file footprint. The probe ID
// must have the same length as the test's IDs: the envelope embeds it, so
// file sizes are uniform only for same-shape datasets AND same-length IDs.
func spillFileSize(t *testing.T, id string) int64 {
	t.Helper()
	ti := newTestTiered(t, t.TempDir(), NewMemory())
	if err := ti.Put(trainSession(t, id, 1)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	size := ti.Stats().SpillDirBytes
	if size <= 0 {
		t.Fatal("probe spill produced no file")
	}
	return size
}

func TestTieredDiskBudgetEvictsLRUFiles(t *testing.T) {
	fs := spillFileSize(t, "sess-0")
	dir := t.TempDir()
	var dropped []string
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)),
		WithSpillMaxBytes(fs*2+fs/2)) // room for two files, not three
	ti.onDiskEvict = func(id string) { dropped = append(dropped, id) }

	for i := 1; i <= 4; i++ {
		if err := ti.Put(trainSession(t, fmt.Sprintf("sess-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
		ti.Flush()
		if got := ti.Stats().SpillDirBytes; got > fs*2+fs/2 {
			t.Fatalf("after session %d the spill dir holds %d bytes, budget %d", i, got, fs*2+fs/2)
		}
	}
	// Four sessions, room for two files + one resident: the two oldest
	// disk-only sessions were dropped, LRU first.
	st := ti.Stats()
	if st.DiskEvictions != 2 {
		t.Fatalf("disk evictions = %d, want 2 (dropped: %v)", st.DiskEvictions, dropped)
	}
	if len(dropped) != 2 || dropped[0] != "sess-1" || dropped[1] != "sess-2" {
		t.Fatalf("dropped %v, want [sess-1 sess-2] in LRU order", dropped)
	}
	if _, ok := ti.Get("sess-1"); ok {
		t.Fatal("disk-evicted session must be gone")
	}
	if _, ok := ti.Get("sess-3"); !ok {
		t.Fatal("surviving spill file must restore")
	}
	// The dropped sessions released their ownership: the anonymous tenant
	// owns exactly the two survivors plus the resident.
	if u := ti.TenantUsage(""); u.Sessions() != 2 {
		// sess-3 restored above evicted sess-4's resident copy (preserved on
		// disk); owned = sess-3 + sess-4.
		t.Fatalf("anonymous usage %+v, want 2 owned sessions", u)
	}
}

// TestTieredDiskBudgetPrefersWarmBackups: when the budget forces a file
// eviction, a warm backup (session also resident) goes before any disk-only
// session, because dropping it loses nothing.
func TestTieredDiskBudgetPrefersWarmBackups(t *testing.T) {
	fs := spillFileSize(t, "sess-0")
	dir := t.TempDir()
	var dropped []string
	ti := newTestTiered(t, dir, NewMemory(), WithSpillMaxBytes(fs*2+fs/2))
	ti.onDiskEvict = func(id string) { dropped = append(dropped, id) }

	// Three resident sessions, eagerly snapshotted: the third publish must
	// evict a warm backup (all are warm), not drop a session.
	for i := 1; i <= 3; i++ {
		if err := ti.Put(trainSession(t, fmt.Sprintf("sess-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
		ti.Flush()
	}
	st := ti.Stats()
	if st.DiskEvictions != 0 || len(dropped) != 0 {
		t.Fatalf("warm-backup eviction dropped sessions: %v (stats %+v)", dropped, st)
	}
	if st.SpillDirBytes > fs*2+fs/2 {
		t.Fatalf("spill dir %d bytes over the %d budget", st.SpillDirBytes, fs*2+fs/2)
	}
	for i := 1; i <= 3; i++ {
		if _, ok := ti.Get(fmt.Sprintf("sess-%d", i)); !ok {
			t.Fatalf("sess-%d lost despite only warm backups being evicted", i)
		}
	}
}

func TestTieredPerTenantSpillCap(t *testing.T) {
	fs := spillFileSize(t, "acme/sess-0")
	limits := map[string]TenantLimits{"acme": {MaxSpillBytes: fs + fs/2}}
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(
		WithMaxSessions(1),
		WithTenantLimits(limitsMap(limits)),
	))
	if err := ti.Put(trainSession(t, "acme/sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // acme now holds one spill file, under its cap
	if u := ti.TenantUsage("acme"); u.SpillFileBytes != fs {
		t.Fatalf("acme spill usage %d, want %d", u.SpillFileBytes, fs)
	}

	// A second session is admitted (usage under the cap) but its spill would
	// cross the cap: the write-behind attempt is rejected, and the eviction
	// that later needs to preserve it drops it instead of overshooting.
	if err := ti.Put(trainSession(t, "acme/sess-2", 2)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	if u := ti.TenantUsage("acme"); u.SpillFileBytes > limits["acme"].MaxSpillBytes {
		t.Fatalf("acme spill usage %d exceeds its %d cap", u.SpillFileBytes, limits["acme"].MaxSpillBytes)
	}
	if err := ti.Put(trainSession(t, "acme/sess-3", 3)); err != nil {
		t.Fatal(err) // evicts sess-2, whose spill the cap rejects → dropped
	}
	if _, ok := ti.Get("acme/sess-2"); ok {
		t.Fatal("sess-2's spill was over the cap; the eviction should have dropped it")
	}
	if _, ok := ti.Get("acme/sess-1"); !ok {
		t.Fatal("sess-1's file is under the cap and must restore")
	}

	// Lowering the cap below current usage turns away new registrations
	// with the typed spill_bytes dimension (the service's 507).
	limits["acme"] = TenantLimits{MaxSpillBytes: fs / 2}
	err := ti.Put(trainSession(t, "acme/sess-4", 4))
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Dimension != DimensionSpillBytes {
		t.Fatalf("Put over the spill cap returned %v, want a %s *QuotaError", err, DimensionSpillBytes)
	}
}

// TestTieredWriteBehindEvictionDrops is the tentpole behavior: with the
// write-behind queue keeping snapshots current, evictions never pay spill IO
// — every spill in the run was performed by the background worker.
func TestTieredWriteBehindEvictionDrops(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)))
	a := trainSession(t, "sess-1", 1)
	wantVec := applyDeletion(t, a, []int{2, 4})
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // eager snapshot, before any eviction pressure
	if err := ti.Put(trainSession(t, "sess-2", 2)); err != nil {
		t.Fatal(err) // evicts clean sess-1: a drop, not a write
	}
	ti.Flush()
	st := ti.Stats()
	if st.Spills != st.WriteBehindSpills {
		t.Fatalf("%d of %d spills ran synchronously on the eviction path; write-behind should cover all",
			st.Spills-st.WriteBehindSpills, st.Spills)
	}
	if st.Spills == 0 {
		t.Fatal("nothing was ever spilled")
	}
	got, ok := ti.Get("sess-1")
	if !ok {
		t.Fatal("dropped session must restore from its write-behind snapshot")
	}
	got.Mu.Lock()
	vec := got.Model.Vec()
	nDel := len(got.Deleted)
	got.Mu.Unlock()
	if nDel != 2 {
		t.Fatalf("restored deletion log has %d entries, want 2", nDel)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d", i)
		}
	}
}

// TestTieredWriteBehindBackpressure gates the worker on a fault hook to fill
// the queue: overflowing enqueues are dropped and counted, the session stays
// safe (the Close drain snapshots it), and nothing deadlocks.
func TestTieredWriteBehindBackpressure(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(), WithWriteBehind(1, 1))
	gate := make(chan struct{})
	ti.fault = func(point string) error {
		if point == "spill.create-temp" {
			<-gate // stall the worker inside its first spill
		}
		return nil
	}
	sessions := make([]*Session, 3)
	for i := range sessions {
		sessions[i] = trainSession(t, fmt.Sprintf("sess-%d", i+1), int64(i+1))
		if err := ti.Put(sessions[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Worker is stalled on the first session; the depth-1 queue holds the
	// second; the third enqueue must have been dropped by backpressure.
	deadline := time.Now().Add(5 * time.Second)
	for ti.queueFull.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backpressure drop never happened")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // the hook now falls through immediately; workers still read it
	if err := ti.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every session — including the one whose enqueue was dropped — is on
	// disk after the drain.
	ti2 := newTestTiered(t, dir, NewMemory())
	for i := range sessions {
		if _, ok := ti2.Get(fmt.Sprintf("sess-%d", i+1)); !ok {
			t.Fatalf("sess-%d lost after backpressure + drain", i+1)
		}
	}
}

// TestTieredEagerSpillStartsNoQuietSweep: at coalesce n = 1 nothing is ever
// debounced, so a quiet period starts no background loop and a mutation goes
// straight to the write-behind queue without touching the debounce map.
func TestTieredEagerSpillStartsNoQuietSweep(t *testing.T) {
	ti := newTestTiered(t, t.TempDir(), NewMemory(), WithSpillCoalesce(1, 5*time.Millisecond))
	if ti.stopBG != nil {
		t.Fatal("coalesce n=1 with no GC interval started a background loop")
	}
	ti.debounce = nil // any write to the debounce map now panics
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	applyDeletion(t, a, []int{2, 4})
	ti.Flush()
	if st := ti.Stats(); st.WriteBehindSpills < 2 || st.DeltaSpills < 1 {
		t.Fatalf("mutation was not spilled eagerly: %d write-behind spills, %d delta spills",
			st.WriteBehindSpills, st.DeltaSpills)
	}
}

// TestTieredGCRemovesOrphans: unindexed session files and stale temps are
// swept once old enough, and the gauge self-heals to match the directory.
func TestTieredGCRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(), WithSpillGC(50*time.Millisecond, 0))
	if err := ti.Put(trainSession(t, "sess-1", 1)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	if err := os.WriteFile(filepath.Join(dir, "orphan"+spillExt), []byte("orphaned bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	ti.gcOnce()
	// Too young: counted in the gauge, not removed.
	st := ti.Stats()
	if st.GCRemovals != 0 {
		t.Fatalf("gc removed a too-young orphan (removals %d)", st.GCRemovals)
	}
	if scan := readDirBytes(t, dir); st.SpillDirBytes != scan {
		t.Fatalf("gauge %d != scan %d with an orphan present", st.SpillDirBytes, scan)
	}
	time.Sleep(60 * time.Millisecond)
	ti.gcOnce()
	st = ti.Stats()
	if st.GCRemovals != 1 {
		t.Fatalf("gc removals = %d, want 1", st.GCRemovals)
	}
	if scan := readDirBytes(t, dir); st.SpillDirBytes != scan {
		t.Fatalf("gauge %d != scan %d after the sweep", st.SpillDirBytes, scan)
	}
	// The indexed spill file was never touched.
	if _, ok := ti.Get("sess-1"); !ok {
		t.Fatal("gc removed an indexed spill file")
	}
}

// TestTieredWriteBehindQueuesRestoredIncarnation: a session evicted while its
// write-behind request still waits in the queue, then restored and mutated,
// must be queued again — the stale incarnation's queue entry is not the
// restored one's. The single worker is stalled on another session's lock so
// the evicted copy stays queued across the restore.
func TestTieredWriteBehindQueuesRestoredIncarnation(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(2)))
	a := trainSession(t, "sess-a", 1)
	b := trainSession(t, "sess-b", 2)
	for _, sess := range []*Session{a, b} {
		if err := ti.Put(sess); err != nil {
			t.Fatal(err)
		}
	}
	ti.Flush()

	// Stall the worker: it dequeues b and blocks on b's lock. The pin keeps
	// b out of the evictions below, which would need that lock too.
	b.Pin()
	b.Mu.Lock()
	b.MarkDirtyLocked()
	deadline := time.Now().Add(5 * time.Second)
	for ti.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the worker never picked up the stalling session")
		}
		time.Sleep(time.Millisecond)
	}

	// Dirty a (its request waits behind b), evict it with a synchronous
	// spill, restore it and commit to the restored copy.
	applyDeletion(t, a, []int{2, 4})
	if err := ti.Put(trainSession(t, "sess-c", 3)); err != nil {
		t.Fatal(err)
	}
	a2, ok := ti.Get("sess-a")
	if !ok || a2 == a {
		t.Fatalf("sess-a was not evicted and restored (ok=%v, same record=%v)", ok, a2 == a)
	}
	wantVec := applyDeletion(t, a2, []int{7, 9})

	b.Mu.Unlock()
	b.Unpin()
	ti.Flush()
	if a2.Dirty() {
		t.Fatal("the restored session's commit was never spilled: write-behind skipped it")
	}

	hardKill(ti)
	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-a")
	if !ok {
		t.Fatal("sess-a lost across the reboot")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 4 {
		t.Fatalf("reboot served %d of 4 logged deletions", nDel)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("rebooted model differs at %d", i)
		}
	}
}
