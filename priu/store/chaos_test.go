package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// Chaos crash-point suite: faults are injected at named points inside the
// spill, GC and drain paths via the Tiered.fault hook — each abort leaves
// the directory exactly as a kill at that instant would — and then the
// store is hard-killed (abandoned without Close) and rebooted on the same
// directory. Invariants: no session the disk tier preserved is lost, no
// deleted session resurrects, and the newest published state always wins.

// errFault is the sentinel the injected crash points return.
var errFault = errors.New("injected fault")

// faultOn returns a hook that fires the fault at one named crash point
// while armed; tests scope faults by arming them only around the operation
// under test.
func faultOn(point string, armed *atomic.Bool) func(string) error {
	return func(p string) error {
		if armed.Load() && p == point {
			return errFault
		}
		return nil
	}
}

// hardKill abandons the store without any drain, as a kill -9 would: only
// what already reached the directory survives. The background workers are
// stopped first purely so the test process doesn't leak goroutines — they
// are idle at every point the suite kills.
func hardKill(ti *Tiered) {
	ti.stopLifecycle()
}

func TestChaosCrashMidSpillLeavesPriorStateServable(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	a := trainSession(t, "sess-1", 1)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // published state: no deletions
	var armed atomic.Bool
	ti.fault = faultOn("spill.after-temp", &armed)

	// Crash inside the re-spill the mutation schedules, after the temp file
	// is written but before the atomic publish.
	armed.Store(true)
	applyDeletion(t, a, []int{2, 7})
	ti.Flush()
	armed.Store(false)
	if ti.spillErrors.Load() == 0 {
		t.Fatal("fault point never fired")
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, blobTmp+"*"))
	if len(tmps) == 0 {
		t.Fatal("simulated crash should leave the torn temp file behind")
	}
	hardKill(ti)

	// Reboot: the torn temp is cleaned, and the session serves its last
	// PUBLISHED state — the in-memory deletions died with the process, but
	// nothing is torn and nothing resurrects partial writes.
	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost after mid-spill crash")
	}
	got.Mu.Lock()
	nDel := len(got.Deleted)
	got.Mu.Unlock()
	if nDel != 0 {
		t.Fatalf("restored %d deletions from a spill that never published", nDel)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, blobTmp+"*")); len(tmps) != 0 {
		t.Fatalf("reboot left torn temp files: %v", tmps)
	}
}

func TestChaosCrashBetweenPublishAndUnlinkPicksNewest(t *testing.T) {
	dir := t.TempDir()
	ti := newSteppedTiered(t, dir, NewMemory(), 1, defaultGCAge)
	a := trainSession(t, "sess-1", 2)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	applyDeletion(t, a, []int{3, 11})
	ti.Flush() // appends a delta segment on the base: the chain is full
	var armed atomic.Bool
	ti.fault = faultOn("spill.unlink-old", &armed)

	// Fold with the old-file unlink suppressed: the folded base publishes
	// but the pre-fold base AND the folded delta stay in the directory —
	// exactly the crash window between rename and unlink.
	armed.Store(true)
	wantVec := applyDeletion(t, a, []int{19})
	ti.Flush() // the cut folds the chain
	armed.Store(false)
	if ti.compactions.Load() != 1 {
		t.Fatalf("compactions = %d, want the fold published", ti.compactions.Load())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	if len(files) != 2 {
		t.Fatalf("%d base files on disk, want both generations", len(files))
	}
	if deltas, _ := filepath.Glob(filepath.Join(dir, "*"+deltaExt)); len(deltas) != 1 {
		t.Fatalf("%d delta files on disk, want the folded segment kept", len(deltas))
	}
	hardKill(ti)

	// Reboot: newest-wins dedupe (the fold carries the higher update counter)
	// must restore the folded generation with the deletions and remove both
	// the stale base and the now-baseless delta segment.
	ti2 := newTestTiered(t, dir, NewMemory())
	got, ok := ti2.Get("sess-1")
	if !ok {
		t.Fatal("session lost after duplicate-file crash")
	}
	got.Mu.Lock()
	vec := got.Model.Vec()
	nDel := len(got.Deleted)
	got.Mu.Unlock()
	if nDel != 3 {
		t.Fatalf("restored stale generation: %d deletions, want 3", nDel)
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("restored model differs at %d from the newest generation", i)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+spillExt)); len(files) != 1 {
		t.Fatalf("reboot kept %d base files for one session, want the stale one removed", len(files))
	}
	if deltas, _ := filepath.Glob(filepath.Join(dir, "*"+deltaExt)); len(deltas) != 0 {
		t.Fatalf("reboot kept %d orphaned delta files, want 0", len(deltas))
	}
}

func TestChaosDeletedSessionNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	// Orphan age zero: "long ago" compressed for the test.
	ti := newSteppedTiered(t, dir, NewMemory(), defaultCompactAfter, 0)
	for i := 1; i <= 3; i++ {
		if err := ti.Put(trainSession(t, fmt.Sprintf("sess-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ti.Flush()
	var armed atomic.Bool
	ti.fault = faultOn("delete.unlink", &armed)

	// sess-1 deletes cleanly; sess-2's delete crashes before the unlink —
	// its acknowledged delete leaves a stray file behind.
	if !ti.Delete("sess-1") {
		t.Fatal("delete failed")
	}
	armed.Store(true)
	if !ti.Delete("sess-2") {
		t.Fatal("delete failed")
	}
	armed.Store(false)

	// In-process: neither deleted session is reachable, stray file or not.
	if _, ok := ti.Get("sess-1"); ok {
		t.Fatal("cleanly deleted session resurrected")
	}
	if _, ok := ti.Get("sess-2"); ok {
		t.Fatal("deleted session resurrected from its stray file")
	}
	// The stray file is an orphan now; an age-based sweep collects it so
	// even a later reboot cannot resurrect the session.
	ti.gcOnce()
	if ti.gcRemovals.Load() == 0 {
		t.Fatal("gc never collected the stray file of the deleted session")
	}
	hardKill(ti)

	ti2 := newTestTiered(t, dir, NewMemory())
	if _, ok := ti2.Get("sess-1"); ok {
		t.Fatal("deleted session resurrected across restart")
	}
	if _, ok := ti2.Get("sess-2"); ok {
		t.Fatal("deleted session resurrected across restart via its stray file")
	}
	if _, ok := ti2.Get("sess-3"); !ok {
		t.Fatal("surviving session lost")
	}
}

func TestChaosCrashMidDrainKeepsEveryPublishedSession(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	var want []string
	for i := 1; i <= 4; i++ {
		id := fmt.Sprintf("sess-%d", i)
		if err := ti.Put(trainSession(t, id, int64(i))); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	// The write-behind worker published everything before the drain even
	// starts; a drain that crashes on its first session therefore loses
	// nothing.
	ti.Flush()
	var armed atomic.Bool
	armed.Store(true)
	ti.fault = faultOn("drain.session", &armed)
	_ = ti.Close() // aborts immediately at the injected crash point

	ti2 := newTestTiered(t, dir, NewMemory())
	for _, id := range want {
		if _, ok := ti2.Get(id); !ok {
			t.Fatalf("%s lost: the write-behind worker had already published it before the drain crashed", id)
		}
	}
}

// TestChaosQueueCrashFallsBackToSyncSpill: a fault that permanently breaks
// the write-behind path must degrade to the synchronous eviction spill, not
// lose sessions.
func TestChaosQueueCrashFallsBackToSyncSpill(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory(WithMaxSessions(1)))
	// Every write-behind attempt fails at temp creation; the eviction-path
	// sync spill is exercised with the fault cleared per call count — here
	// we instead fail only the worker by keying on pending depth. Simpler
	// and deterministic: fail every spill while armed, evict while disarmed.
	var armed atomic.Bool
	armed.Store(true)
	ti.fault = faultOn("spill.create-temp", &armed)
	a := trainSession(t, "sess-1", 9)
	if err := ti.Put(a); err != nil {
		t.Fatal(err)
	}
	ti.Flush() // write-behind attempt fails
	if ti.spillErrors.Load() == 0 {
		t.Fatal("fault point never fired for the worker")
	}
	armed.Store(false)
	// The eviction finds a dirty victim with no disk copy and pays the
	// synchronous spill — the fallback that keeps the session in a tier.
	if err := ti.Put(trainSession(t, "sess-2", 10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ti.Get("sess-1"); !ok {
		t.Fatal("session lost although the sync fallback should have spilled it")
	}
	st := ti.Stats()
	if st.Spills == 0 || st.WriteBehindSpills == st.Spills {
		t.Fatalf("expected a synchronous fallback spill, got %+v", st)
	}
}
