package store

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
)

// LSM spill-tier suite: delta segments, folds of full chains, the off-lock
// cut/serialize/publish split, the stale-cut generation guard, persistent
// tombstones across reboot, and the pinned-disk-budget refusal path.

// TestTieredDeltaChainCompactsAndSurvivesReboot is the end-to-end LSM
// lifecycle: a base spill, O(batch) delta spills on top until the chain is
// full, the next cut folding the chain into a new base, and a kill/restart
// that restores the bitwise-identical model and deletion log from the
// folded file.
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
	applyDeletion(t, a, []int{11})
	ti.Flush() // delta 2: the chain is full
	wantVec := applyDeletion(t, a, []int{19})
	ti.Flush() // the cut folds the chain

	st := ti.Stats()
	if st.DeltaSpills != 2 {
		t.Fatalf("DeltaSpills = %d, want 2 (mutation spills must be deltas)", st.DeltaSpills)
	}
	if st.Compactions != 1 || st.DeltaSegments != 0 {
		t.Fatalf("fold left %d segments (Compactions=%d), want a folded chain", st.DeltaSegments, st.Compactions)
	}
	if deltas, _ := filepath.Glob(filepath.Join(dir, "*"+deltaExt)); len(deltas) != 0 {
		t.Fatalf("%d delta files on disk after the fold, want 0", len(deltas))
	}
	hardKill(ti)

	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost across the fold reboot")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 3 {
		t.Fatalf("restored %d deletions, want 3", nDel)
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
	<-entered

	// Second mutation lands while the worker is parked; the sync fallback
	// (the eviction path) spills now and must capture BOTH mutations.
	wantVec := applyDeletion(t, a, []int{2})
	wantGen := a.gen.Load()
	a.Mu.Lock()
	wrote, err := ti.spillLocked(a)
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

// TestChaosCrashMidCompactionOldChainAuthoritative crashes a fold cut after
// the folded temp file is written but before the rename: the old base +
// delta chain must stay authoritative across the reboot, the temp swept.
func TestChaosCrashMidCompactionOldChainAuthoritative(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(), WithCompaction(1))
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	wantVec := applyDeletion(t, a, []int{7})
	ti.Flush() // one delta: the chain is full

	var armed atomic.Bool
	ti.fault = faultOn("spill.after-temp", &armed)
	armed.Store(true)
	applyDeletion(t, a, []int{13})
	ti.Flush() // the fold cut crashes after its temp write
	armed.Store(false)
	if ti.spillErrors.Load() != 1 || ti.compactions.Load() != 0 {
		t.Fatalf("spillErrors = %d, compactions = %d: the fold cut must crash, not publish",
			ti.spillErrors.Load(), ti.compactions.Load())
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, blobTmp+"*")); len(tmps) != 1 {
		t.Fatalf("%d temp files after the mid-fold crash, want the torn fold left behind", len(tmps))
	}
	hardKill(ti)

	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost after mid-fold crash")
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
		t.Fatalf("reboot left torn fold temps: %v", tmps)
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
	wrote, err := ti.spillLocked(b)
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

// healProbe is a blob.put fault point for the heal tests: it counts push
// attempts, fails them while failPut is set, and otherwise probes whether
// the resident session's Mu is held during the upload, like
// TestSpillPublishRunsOffSessionLock does for serialization.
type healProbe struct {
	failPut  atomic.Bool
	puts     atomic.Int64
	lockHeld atomic.Int64
	resident atomic.Pointer[Session]
}

func (p *healProbe) fault(name string) error {
	if name != "blob.put" {
		return nil
	}
	p.puts.Add(1)
	if p.failPut.Load() {
		return errFault
	}
	if s := p.resident.Load(); s != nil {
		if s.Mu.TryLock() {
			s.Mu.Unlock()
		} else {
			p.lockHeld.Add(1)
		}
	}
	return nil
}

// TestHealPushRunsOffSessionLock pins the heal of a clean session whose
// chain is local-only because its blob push failed: the write-behind worker
// does not push it again, and the GC sweep's blob pass certifies it with the
// session's Mu free during the upload.
func TestHealPushRunsOffSessionLock(t *testing.T) {
	bs := sharedBlob(t)
	ti := newTestTiered(t, t.TempDir(), NewMemory(), WithBlobStore(bs))
	var p healProbe
	ti.fault = p.fault
	a := trainSession(t, "acme/s1", 1)
	p.failPut.Store(true)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // base lands locally; the push fails
	if ti.isRemote("acme/s1") {
		t.Fatal("setup: the first blob push should have failed")
	}
	p.failPut.Store(false)
	p.resident.Store(a)
	before := p.puts.Load()

	// The worker finds a clean and current: no cut, and no push.
	ti.enqueueSpill(a)
	ti.Flush()
	if n := p.puts.Load() - before; n != 0 || ti.isRemote("acme/s1") {
		t.Fatalf("the worker attempted %d blob pushes, want 0", n)
	}

	// The GC sweep's blob pass is the heal.
	ti.gcOnce()
	if !ti.isRemote("acme/s1") {
		t.Fatal("the GC sweep never certified acme/s1")
	}
	if n := p.puts.Load() - before; n != 1 {
		t.Fatalf("the GC sweep made %d push attempts, want 1", n)
	}
	if n := p.lockHeld.Load(); n != 0 {
		t.Fatalf("%d heal pushes ran under Session.Mu, want 0", n)
	}
}

// TestTieredEvictHealPushRunsInBackground covers the eviction side of the
// heal: the evictor runs under the victim's Session.Mu, so it pushes
// nothing for a clean victim whose chain is local-only. The victim is
// evicted as preserved on the strength of that chain, Get restores it from
// there, and the heal is left to the background GC sweep, which certifies it
// with the restored session's Mu free.
func TestTieredEvictHealPushRunsInBackground(t *testing.T) {
	bs := sharedBlob(t)
	ti := newTestTiered(t, t.TempDir(), NewMemory(WithMaxSessions(1)), WithBlobStore(bs))
	var p healProbe
	ti.fault = p.fault
	var lost atomic.Int64
	ti.onEvictLost = func(string) { lost.Add(1) }

	// b is certified in the blob tier; a's base and delta land locally, but
	// both of their pushes fail.
	if err := ti.Put(trainSession(t, "acme/s2", 2)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	p.failPut.Store(true)
	a := trainSession(t, "acme/s1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	wantVec := applyDeletion(t, a, []int{3})
	ti.Flush()
	if !ti.isRemote("acme/s2") || ti.isRemote("acme/s1") {
		t.Fatal("setup: want acme/s2 certified and acme/s1 local-only")
	}
	p.failPut.Store(false)
	before := p.puts.Load()

	// Restoring acme/s2 evicts the clean, uncertified a: preserved by its
	// local chain, with no push from the evictor.
	if _, ok := ti.Get("acme/s2"); !ok {
		t.Fatal("acme/s2 lost")
	}
	ti.Flush()
	if ti.mem.has("acme/s1") || lost.Load() != 0 {
		t.Fatalf("acme/s1 resident=%v, %d evictions lost their victim; want it evicted as preserved",
			ti.mem.has("acme/s1"), lost.Load())
	}
	if n := p.puts.Load() - before; n != 0 {
		t.Fatalf("the evictor attempted %d blob pushes, want 0", n)
	}
	got, ok := ti.Get("acme/s1")
	if !ok {
		t.Fatal("evicted acme/s1 did not restore")
	}
	vec, nDel, _ := sessionState(t, got)
	if nDel != 1 || !slices.Equal(vec, wantVec) {
		t.Fatalf("restored acme/s1 with %d deletions (want 1) or different bits", nDel)
	}
	if n := p.puts.Load() - before; n != 0 || ti.isRemote("acme/s1") {
		t.Fatalf("the restore attempted %d blob pushes, want 0", n)
	}

	// The GC sweep's blob pass is the heal.
	p.resident.Store(got)
	ti.gcOnce()
	if !ti.isRemote("acme/s1") {
		t.Fatal("the GC sweep never certified acme/s1")
	}
	if n := p.puts.Load() - before; n != 1 {
		t.Fatalf("the GC sweep made %d push attempts, want 1", n)
	}
	if n := p.lockHeld.Load(); n != 0 {
		t.Fatalf("%d heal pushes ran under Session.Mu, want 0", n)
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

// TestTieredFoldCutRacesDeleteEvictionAndNewerSpill blocks a fold cut inside
// its publish, before it opens the chain's base, and lands a Delete, a warm
// disk-budget eviction of the same chain, or a newer synchronous spill in
// that window. In each case the fold is discarded as stale, no file of an
// outdated state remains, SpillDirBytes matches the listing after a GC, and
// a reboot serves exactly what the store acknowledged.
func TestTieredFoldCutRacesDeleteEvictionAndNewerSpill(t *testing.T) {
	for _, race := range []string{"delete", "warm-eviction", "newer-spill"} {
		t.Run(race, func(t *testing.T) {
			dir := t.TempDir()
			// No write-behind: every cut below is driven by the test.
			ti := newTestTiered(t, dir, NewMemory(), WithWriteBehind(0, 0), WithCompaction(1))
			s := trainSession(t, "sess-1", 1)
			if err := ti.Put(s); err != nil {
				t.Fatal(err)
			}
			spill := func() {
				t.Helper()
				s.Mu.Lock()
				_, err := ti.spillLocked(s)
				s.Mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			spill() // base
			applyDeletion(t, s, []int{3})
			spill() // one delta: the chain is full
			applyDeletion(t, s, []int{11})
			s.Mu.Lock()
			cut, err := ti.cutLocked(s)
			s.Mu.Unlock()
			if err != nil || cut == nil || cut.fold == "" {
				t.Fatalf("cut = %+v, err = %v: want a fold cut of the full chain", cut, err)
			}

			var armed atomic.Bool
			armed.Store(true)
			entered, release := make(chan struct{}), make(chan struct{})
			ti.fault = func(p string) error {
				if p == "spill.create-temp" && armed.CompareAndSwap(true, false) {
					close(entered)
					<-release
				}
				return nil
			}
			errc := make(chan error, 1)
			go func() {
				_, err := ti.publishCut(cut)
				errc <- err
			}()
			<-entered
			switch race {
			case "delete":
				if !ti.Delete("sess-1") {
					t.Fatal("Delete missed the session")
				}
			case "warm-eviction":
				ti.mu.Lock()
				ok, _ := ti.evictSpillFileLocked("")
				_, indexed := ti.index["sess-1"]
				ti.mu.Unlock()
				if !ok || indexed {
					t.Fatalf("warm eviction ok=%v, chain still indexed=%v", ok, indexed)
				}
			case "newer-spill":
				applyDeletion(t, s, []int{19})
				spill() // a fold of its own, published first
			}
			close(release)
			if err := <-errc; !errors.Is(err, errStaleSpill) {
				t.Fatalf("fold publish after the %s returned %v, want errStaleSpill", race, err)
			}
			if race == "warm-eviction" {
				spill() // the dirty session re-spills as a fresh base
			}

			ti.mu.Lock()
			want := map[string]bool{}
			if e := ti.index["sess-1"]; e != nil {
				for _, kb := range e.localKeys() {
					want[kb.key] = true
				}
			}
			ti.mu.Unlock()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range ents {
				if name := de.Name(); name != tombstoneFile && !want[name] {
					t.Errorf("%s left %s in the spill directory, outside the indexed chain", race, name)
				}
			}
			ti.gcOnce()
			if got, listed := ti.Stats().SpillDirBytes, spillListingBytes(t, dir); got != listed {
				t.Errorf("SpillDirBytes = %d after a GC, the listing holds %d", got, listed)
			}
			hardKill(ti)

			ti2 := newTestTiered(t, dir, NewMemory())
			got, ok := ti2.Get("sess-1")
			if race == "delete" {
				if ok {
					t.Fatal("deleted session served after reboot")
				}
				return
			}
			if !ok {
				t.Fatal("session lost after reboot")
			}
			s.Mu.Lock()
			wantLog := append([]int(nil), s.Deleted...)
			s.Mu.Unlock()
			vec, nDel, _ := sessionState(t, got)
			if nDel != len(wantLog) {
				t.Fatalf("restored %d deletions, want %d", nDel, len(wantLog))
			}
			m, err := s.Upd.Update(wantLog)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range m.Vec() {
				if vec[i] != w {
					t.Fatalf("restored model differs at %d from Update of the log", i)
				}
			}
		})
	}
}

// TestTieredSyncSpillsKeepChainsBounded disables write-behind, so every
// spill is an eviction's synchronous fallback under the victim's lock: over
// 3×n mutations the chain never holds more than n segments, the cut after a
// full chain folds it, and a reboot restores the bits of Update of the log.
func TestTieredSyncSpillsKeepChainsBounded(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)), WithWriteBehind(0, 0), WithCompaction(n))
	a := trainSession(t, "sess-a", 1)
	for _, s := range []*Session{a, trainSession(t, "sess-b", 2)} {
		if err := ti.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	var log []int
	for i := 0; i < 3*n; i++ {
		s, ok := ti.Get("sess-a") // restores a, evicting b
		if !ok {
			t.Fatalf("mutation %d: sess-a lost", i)
		}
		applyDeletion(t, s, []int{i})
		log = append(log, i)
		if _, ok := ti.Get("sess-b"); !ok { // evicts a: its synchronous spill
			t.Fatalf("mutation %d: sess-b lost", i)
		}
		ti.mu.Lock()
		segs := -1
		if e := ti.index["sess-a"]; e != nil && e.local {
			segs = len(e.deltas)
		}
		ti.mu.Unlock()
		if segs < 0 || segs > n {
			t.Fatalf("mutation %d: sess-a's chain holds %d segments, want 0..%d", i, segs, n)
		}
	}
	// Deltas 1..n, a fold, deltas 1..n, a fold, one delta.
	if st := ti.Stats(); st.Compactions != 2 || st.DeltaSpills != 3*n-2 {
		t.Fatalf("Compactions = %d, DeltaSpills = %d, want 2 and %d", st.Compactions, st.DeltaSpills, 3*n-2)
	}
	hardKill(ti)

	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-a")
	if !ok {
		t.Fatal("sess-a lost across the reboot")
	}
	got.Mu.Lock()
	gotLog := append([]int(nil), got.Deleted...)
	vec := append([]float64(nil), got.Model.Vec()...)
	got.Mu.Unlock()
	if !equalInts(gotLog, log) {
		t.Fatalf("restored log %v, want %v", gotLog, log)
	}
	m, err := a.Upd.Update(log)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range m.Vec() {
		if vec[i] != w {
			t.Fatalf("restored model differs at %d from Update of the log", i)
		}
	}
}
