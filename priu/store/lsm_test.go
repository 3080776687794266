package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// LSM spill-tier suite: delta segments, chain compaction, the off-lock
// cut/serialize/publish split, the stale-cut generation guard, persistent
// tombstones across reboot, and the pinned-disk-budget refusal path.

// TestTieredDeltaChainCompactsAndSurvivesReboot is the end-to-end LSM
// lifecycle: a base spill, O(batch) delta spills on top, background
// compaction folding the chain into a new base once it crosses the
// threshold, and a kill/restart that restores the bitwise-identical model
// and deletion log from the folded file.
func TestTieredDeltaChainCompactsAndSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(), WithCompaction(2))
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // base
	applyDeletion(t, a, []int{3})
	ti.Flush() // delta 1
	wantVec := applyDeletion(t, a, []int{11})
	ti.Flush() // delta 2 -> chain hits the compaction threshold

	deadline := time.Now().Add(5 * time.Second)
	for ti.compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compaction never ran on a chain at the threshold")
		}
		time.Sleep(time.Millisecond)
	}
	st := ti.Stats()
	if st.DeltaSpills != 2 {
		t.Fatalf("DeltaSpills = %d, want 2 (mutation spills must be deltas)", st.DeltaSpills)
	}
	if st.Compactions == 0 || st.DeltaSegments != 0 {
		t.Fatalf("compaction left %d segments (Compactions=%d), want a folded chain", st.DeltaSegments, st.Compactions)
	}
	if deltas, _ := filepath.Glob(filepath.Join(dir, "*"+deltaExt)); len(deltas) != 0 {
		t.Fatalf("%d delta files on disk after compaction, want 0", len(deltas))
	}
	hardKill(ti)

	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost across the compaction reboot")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 2 {
		t.Fatalf("restored %d deletions, want 2", nDel)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d: folded chain is not bitwise-identical", i)
		}
	}
}

// TestSpillPublishRunsOffSessionLock asserts the tentpole locking contract:
// the write-behind path serializes the snapshot and performs the temp write
// + fsync WITHOUT holding Session.Mu — a mutation-heavy session never
// blocks its readers on spill IO. The fault hook fires inside serialization
// and right after the fsync; with no other goroutine touching the session,
// a failed TryLock there can only mean the spill path itself holds the
// lock.
func TestSpillPublishRunsOffSessionLock(t *testing.T) {
	ti := newTestTiered(t, t.TempDir(), NewMemory())
	a := trainSession(t, "sess-1", 1)
	var lockHeld atomic.Int64
	ti.fault = func(p string) error {
		if p == "spill.serialize" || p == "spill.after-temp" {
			if a.Mu.TryLock() {
				a.Mu.Unlock()
			} else {
				lockHeld.Add(1)
			}
		}
		return nil
	}
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // base spill: the O(session) snapshot serialization
	applyDeletion(t, a, []int{2, 9})
	ti.Flush() // delta spill
	if ti.writeBehind.Load() < 2 {
		t.Fatalf("write-behind published %d spills, want 2", ti.writeBehind.Load())
	}
	if n := lockHeld.Load(); n != 0 {
		t.Fatalf("%d serialize/fsync points ran under Session.Mu, want 0", n)
	}
}

// TestSyncSpillFallbackUsesCurrentGeneration pins the write-behind drop
// accounting bug: when a synchronous spill overtakes a parked background
// publish, the sync path must cut from the session's CURRENT generation —
// and the overtaken background cut, now stale, must be discarded by the
// chain guard rather than masking the newer file.
func TestSyncSpillFallbackUsesCurrentGeneration(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // base published, session clean

	// Park the background worker inside its next publish, after it cut the
	// first mutation but before anything reaches disk.
	var parked atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	ti.fault = func(p string) error {
		if p == "spill.serialize" && parked.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return nil
	}
	applyDeletion(t, a, []int{1})
	ti.flushQuiet(time.Now().Add(time.Hour)) // promote past the debounce
	<-entered

	// Second mutation lands while the worker is parked; the sync fallback
	// (the eviction path) spills now and must capture BOTH mutations.
	wantVec := applyDeletion(t, a, []int{2})
	wantGen := a.gen.Load()
	a.Mu.Lock()
	wrote, _, err := ti.spillLocked(a)
	a.Mu.Unlock()
	if err != nil || !wrote {
		t.Fatalf("sync spill = (%v, %v), want a real write", wrote, err)
	}
	if got := a.persistedGen.Load(); got != wantGen {
		t.Fatalf("sync spill persisted generation %d, session is at %d — spilled a stale cut", got, wantGen)
	}

	// Unpark the worker: its cut extends a chain tip that no longer exists,
	// so the publish guard must discard it.
	close(release)
	ti.Flush()
	if ti.staleSpills.Load() == 0 {
		t.Fatal("overtaken background cut was installed instead of discarded")
	}
	if a.Dirty() {
		t.Fatal("stale discard moved the generation counter backwards")
	}

	hardKill(ti)
	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 2 {
		t.Fatalf("restored %d deletions, want both mutations", nDel)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d from the newest generation", i)
		}
	}
}

// TestChaosTornDeltaSegmentDropped kills the store, tears the tail off a
// published delta segment (a crash mid-append at the filesystem level), and
// reboots: the torn segment must be detected and removed, with the intact
// chain prefix still serving.
func TestChaosTornDeltaSegmentDropped(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	a := trainSession(t, "sess-1", 1)
	baseVec, _, _ := sessionState(t, a)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	applyDeletion(t, a, []int{5, 9})
	ti.Flush()
	hardKill(ti)

	deltas, _ := filepath.Glob(filepath.Join(dir, "*"+deltaExt))
	if len(deltas) != 1 {
		t.Fatalf("%d delta files on disk, want 1", len(deltas))
	}
	info, err := os.Stat(deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(deltas[0], info.Size()-4); err != nil {
		t.Fatal(err)
	}

	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost: a torn delta must not poison its base")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 0 {
		t.Fatalf("restored %d deletions from a torn segment, want the base state", nDel)
	}
	for i := range vec {
		if vec[i] != baseVec[i] {
			t.Fatalf("restored model differs at %d from the base generation", i)
		}
	}
	if deltas, _ := filepath.Glob(filepath.Join(dir, "*"+deltaExt)); len(deltas) != 0 {
		t.Fatalf("reboot kept %d torn delta files, want 0", len(deltas))
	}
}

// TestChaosCrashMidCompactionOldChainAuthoritative crashes compaction after
// the folded temp file is written but before the rename: the old base +
// delta chain must stay authoritative across the reboot, the temp swept.
func TestChaosCrashMidCompactionOldChainAuthoritative(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	wantVec := applyDeletion(t, a, []int{7})
	ti.Flush()

	var armed atomic.Bool
	ti.fault = faultOn("compact.after-temp", &armed)
	armed.Store(true)
	ti.compactOnce("sess-1")
	armed.Store(false)
	if tmps, _ := filepath.Glob(filepath.Join(dir, blobTmp+"*")); len(tmps) != 1 {
		t.Fatalf("%d temp files after the mid-compaction crash, want the torn fold left behind", len(tmps))
	}
	hardKill(ti)

	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost after mid-compaction crash")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 1 {
		t.Fatalf("restored %d deletions, want 1 — the old chain is authoritative", nDel)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d", i)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, blobTmp+"*")); len(tmps) != 0 {
		t.Fatalf("reboot left torn compaction temps: %v", tmps)
	}
}

// TestChaosTombstoneSurvivesRebootBeforeBlobDeleteSticks is the regression
// for the resurrection hole this PR closes: kill the node BETWEEN the
// DELETE ack and the blob delete sticking, reboot on the same directory and
// blob tier, and the acknowledged 404 must stay a 404 — the persistent
// tombstone replays at boot, refuses re-adoption, and drives the blob
// delete until it lands.
func TestChaosTombstoneSurvivesRebootBeforeBlobDeleteSticks(t *testing.T) {
	bs := sharedBlob(t)
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs))
	if err := ti.Put(trainSession(t, "acme/sess-1", 5)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	if !ti.isRemote("acme/sess-1") {
		t.Fatal("setup: session never reached the blob tier")
	}

	var armed atomic.Bool
	ti.fault = faultOn("blob.delete", &armed)
	armed.Store(true)
	if !ti.Delete("acme/sess-1") {
		t.Fatal("delete reported the session missing")
	}
	if _, _, err := bs.Get("acme/sess-1"); err != nil {
		t.Fatalf("test premise broken: the blob delete should have failed (%v)", err)
	}
	// Kill RIGHT HERE — no retry sweep ran, the object is still in the
	// shared tier, and the only thing standing between it and resurrection
	// is the fsynced tombstone record.
	hardKill(ti)

	reboot := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs))
	if _, ok := reboot.Get("acme/sess-1"); ok {
		t.Fatal("acknowledged deletion resurrected after reboot: tombstone did not persist")
	}
	// Boot reconciliation deletes (never adopts) tombstoned objects.
	if _, _, err := bs.Get("acme/sess-1"); err != ErrBlobNotFound {
		t.Fatalf("boot left the tombstoned object in the blob tier: %v", err)
	}
	if st := reboot.Stats(); st.PendingTombstones != 0 {
		t.Fatalf("%d tombstones still pending after both sides resolved, want 0", st.PendingTombstones)
	}
	// And the resolution is itself durable: a third boot starts clean.
	hardKill(reboot)
	again := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs))
	if _, ok := again.Get("acme/sess-1"); ok {
		t.Fatal("deletion resurrected on the second reboot")
	}
}

// TestChaosTornTombstoneLogTailTruncatedAtBoot pins how boot reads a
// tombstone set whose object ends in garbage (a torn record, as a crash
// mid-append by an earlier build that appended records could leave): the
// whole records before the garbage replay pending, and the rebooted
// process's next add rewrites the whole set as one object (tombstoneAdd
// through the directory's stage/commit writer), so a DELETE it
// acknowledges is readable at the following boot — never lost behind the
// garbage.
func TestChaosTornTombstoneLogTailTruncatedAtBoot(t *testing.T) {
	bs := sharedBlob(t)
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs))
	if err := ti.Put(trainSession(t, "acme/s1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Put(trainSession(t, "acme/s2", 2)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	if !ti.isRemote("acme/s1") || !ti.isRemote("acme/s2") {
		t.Fatal("setup: sessions never reached the blob tier")
	}
	var armed atomic.Bool
	ti.fault = faultOn("blob.delete", &armed)
	armed.Store(true)
	if !ti.Delete("acme/s1") {
		t.Fatal("delete reported acme/s1 missing")
	}
	hardKill(ti) // s1's tombstone pending: its blob delete never stuck

	// A torn tail at the filesystem level: garbage after the last whole
	// record.
	logPath := filepath.Join(dir, tombstoneFile)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reboot with the blob tier still refusing deletes, so s1 stays pending
	// and the next add rewrites the set. The DELETE this process
	// acknowledges must land where the NEXT boot can replay it.
	var armed2 atomic.Bool
	armed2.Store(true)
	ti2 := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs), func(ti *Tiered) {
		ti.fault = faultOn("blob.delete", &armed2)
	})
	if st := ti2.Stats(); st.PendingTombstones != 1 {
		t.Fatalf("%d tombstones pending after the torn-tail reboot, want s1's alone", st.PendingTombstones)
	}
	if !ti2.Delete("acme/s2") {
		t.Fatal("delete reported acme/s2 missing")
	}
	hardKill(ti2)

	// Third boot, blob deletes work again: BOTH pending tombstones must
	// replay — s2's object is deleted, never adopted.
	ti3 := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs))
	if _, ok := ti3.Get("acme/s2"); ok {
		t.Fatal("acknowledged deletion resurrected: the torn tail swallowed s2's tombstone record")
	}
	if _, _, err := bs.Get("acme/s2"); err != ErrBlobNotFound {
		t.Fatalf("boot left the tombstoned object acme/s2 in the blob tier: %v", err)
	}
	if _, ok := ti3.Get("acme/s1"); ok {
		t.Fatal("acknowledged deletion of acme/s1 resurrected")
	}
}

// TestDeltaPublishDiscardedAfterDeleteAndReput pins the session-incarnation
// guard on the delta branch: a worker's delta cut taken just before a
// Delete + re-Put of the same id extends a chain tip that the NEW session's
// fresh base can reproduce exactly (logLen=0, updates=0), so the chain-tip
// guard alone would append the OLD incarnation's deletion entries to the
// new session's chain. The gone flag must discard the cut.
func TestDeltaPublishDiscardedAfterDeleteAndReput(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // base A published: chain tip (logLen=0, updates=0)

	// Park the worker inside the publish of a's first deletion — it holds a
	// delta cut extending tip (0, 0).
	var parked atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	ti.fault = func(p string) error {
		if p == "spill.serialize" && parked.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return nil
	}
	applyDeletion(t, a, []int{1})
	ti.flushQuiet(time.Now().Add(time.Hour)) // promote past the debounce
	<-entered

	// Delete the session and re-register the same id: the new session's
	// base lands on the exact same chain tip the parked delta extends.
	if !ti.Delete("sess-1") {
		t.Fatal("delete reported the session missing")
	}
	b := trainSession(t, "sess-1", 2)
	wantVec, _, _ := sessionState(t, b)
	if err := ti.Put(b); err != nil {
		t.Fatal(err)
	}
	b.Mu.Lock()
	wrote, _, err := ti.spillLocked(b)
	b.Mu.Unlock()
	if err != nil || !wrote {
		t.Fatalf("new incarnation's base spill = (%v, %v), want a real write", wrote, err)
	}

	// Unpark the old incarnation's delta publish: same tip, wrong session —
	// it must be discarded, not appended to b's chain.
	close(release)
	ti.Flush()
	if ti.staleSpills.Load() == 0 {
		t.Fatal("old incarnation's delta was installed on the new session's chain")
	}

	hardKill(ti)
	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("re-registered session lost")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 0 {
		t.Fatalf("restored %d deletions, want 0 — the old incarnation's delta leaked onto the new chain", nDel)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d from the new incarnation", i)
		}
	}
}

// TestHealPushRunsOffSessionLock extends the off-lock contract to the heal
// path: when a clean session's chain is local-only because its blob upload
// previously failed, the write-behind worker re-pushes it — strictly after
// releasing Session.Mu. The blob.put fault point probes the lock exactly
// like TestSpillPublishRunsOffSessionLock does for serialization.
func TestHealPushRunsOffSessionLock(t *testing.T) {
	bs := sharedBlob(t)
	ti := newTestTiered(t, t.TempDir(), NewMemory(), WithBlobStore(bs))
	a := trainSession(t, "acme/s1", 1)
	var failPut atomic.Bool
	var lockHeld atomic.Int64
	ti.fault = func(p string) error {
		if p != "blob.put" {
			return nil
		}
		if failPut.Load() {
			return errFault
		}
		if a.Mu.TryLock() {
			a.Mu.Unlock()
		} else {
			lockHeld.Add(1)
		}
		return nil
	}
	failPut.Store(true)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // base lands locally; the push fails
	if ti.isRemote("acme/s1") {
		t.Fatal("setup: the first blob push should have failed")
	}
	failPut.Store(false)

	// Re-run the clean session through the worker: cutLocked signals the
	// heal, and the worker must push after dropping the lock.
	ti.enqueueSpill(a)
	ti.Flush()
	if !ti.isRemote("acme/s1") {
		t.Fatal("heal push never certified the blob copy")
	}
	if n := lockHeld.Load(); n != 0 {
		t.Fatalf("%d heal pushes ran under Session.Mu, want 0", n)
	}
}

// TestTieredEvictHealPushRunsInBackground covers the eviction flavor of the
// heal: the evictor's hook runs under the victim's Session.Mu AND a shard
// lock, so when its spill signals a needed blob push the upload must be
// handed to a background goroutine (scheduleHealPush) rather than run
// inline — and it must still land.
func TestTieredEvictHealPushRunsInBackground(t *testing.T) {
	bs := sharedBlob(t)
	ti := newTestTiered(t, t.TempDir(), NewMemory(WithMaxSessions(1)), WithBlobStore(bs))
	a := trainSession(t, "acme/s1", 1)
	var failPut atomic.Bool
	ti.fault = func(p string) error {
		if p == "blob.put" && failPut.Load() {
			return errFault
		}
		return nil
	}
	failPut.Store(true)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // base lands locally; the blob push fails — clean but uncertified
	if ti.isRemote("acme/s1") {
		t.Fatal("setup: the first blob push should have failed")
	}
	failPut.Store(false)

	// Registering a second session evicts a; the hook's spill finds a clean
	// + on-disk + not-remote and schedules the heal off-lock.
	if err := ti.Put(trainSession(t, "acme/s2", 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !ti.isRemote("acme/s1") {
		if time.Now().After(deadline) {
			t.Fatal("evict-path heal push never certified the blob copy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTieredReputUnderPendingTombstoneRetiresItDurably pins re-registration
// under a pending tombstone: a Put under an id whose tombstone is still
// pending (its blob delete never stuck) retires it — tombstoneResolve on
// both sides, then tombstoneSettle makes the shrunken set durable before
// the new session publishes. The tombstone guarded the OLD state, and
// replaying it pending at the next boot would destroy the NEW session's
// files.
func TestTieredReputUnderPendingTombstoneRetiresItDurably(t *testing.T) {
	bs := sharedBlob(t)
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs))
	if err := ti.Put(trainSession(t, "acme/s1", 1)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	if !ti.isRemote("acme/s1") {
		t.Fatal("setup: session never reached the blob tier")
	}
	var armed atomic.Bool
	ti.fault = faultOn("blob.delete", &armed)
	armed.Store(true)
	if !ti.Delete("acme/s1") {
		t.Fatal("delete reported the session missing")
	}
	if st := ti.Stats(); st.PendingTombstones != 1 {
		t.Fatalf("%d tombstones pending after the faulted blob delete, want 1", st.PendingTombstones)
	}
	armed.Store(false)

	b := trainSession(t, "acme/s1", 2)
	if err := ti.Put(b); err != nil {
		t.Fatal(err)
	}
	if st := ti.Stats(); st.PendingTombstones != 0 {
		t.Fatalf("%d tombstones pending after the re-registration, want 0", st.PendingTombstones)
	}
	// The last tombstone retired, so the set object is deleted.
	if _, err := os.Stat(filepath.Join(dir, tombstoneFile)); !os.IsNotExist(err) {
		t.Fatalf("tombstone log still present after the last tombstone retired (stat err=%v)", err)
	}
	wantVec, _, _ := sessionState(t, b)
	ti.Flush()
	hardKill(ti)

	ti2 := newTestTiered(t, dir, NewMemory(), WithBlobStore(bs))
	got, ok := ti2.Get("acme/s1")
	if !ok {
		t.Fatal("re-registered session lost after reboot: the retired tombstone replayed pending")
	}
	vec, _, _ := sessionState(t, got)
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d — the old incarnation's state won", i)
		}
	}
}

// TestTieredPinnedDiskBudgetRefusesInsteadOfDropping is the admission
// regression: when the disk budget is fully occupied by pinned spill files
// (clean residents' only copies) and every resident is pinned or refuses to
// leave, registering a new session must fail with a typed *PressureError —
// never silently drop a dirty session that could not be preserved.
func TestTieredPinnedDiskBudgetRefusesInsteadOfDropping(t *testing.T) {
	fileSize := spillFileSize(t, "sess-1")
	ti := newTestTiered(t, t.TempDir(), NewMemory(WithMaxSessions(2)),
		WithSpillMaxBytes(fileSize+fileSize/2)) // room for exactly one base
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // a: spilled, clean — its file is pinned by the clean resident
	b := trainSession(t, "sess-2", 2)
	if err := ti.Put(b); err != nil {
		t.Fatal(err)
	}
	applyDeletion(t, b, []int{4}) // b: dirty, nothing on disk
	ti.Flush()                    // b's write-behind spill cannot fit; b stays dirty

	// Pin a (a long-running read). Now the memory tier is full, a is
	// unevictable, and evicting b requires a sync spill the pinned disk
	// cannot admit.
	got, ok := ti.Get("sess-1")
	if !ok {
		t.Fatal("setup: sess-1 missing")
	}
	got.Pin()
	defer got.Unpin()

	err := ti.Put(trainSession(t, "sess-3", 3))
	var pe *PressureError
	if !errors.As(err, &pe) {
		t.Fatalf("Put under a fully pinned disk budget = %v, want *PressureError", err)
	}
	if pe.Pinned == 0 {
		t.Fatalf("PressureError = %+v, want a pinned count naming the blocage", pe)
	}
	// The refusal must not have cost b its state: still resident, still
	// dirty, nothing dropped.
	if _, ok := ti.Get("sess-2"); !ok {
		t.Fatal("pressure refusal silently dropped the dirty session")
	}
	if !b.Dirty() {
		t.Fatal("b should still be dirty — no spill could have landed")
	}
}
