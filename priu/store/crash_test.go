package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binio"
	"repro/priu"
)

// Crash enumeration: one seeded workload over a tiered store with an FSBlob
// blob tier is crashed at every registered fault point, at its first, second
// and third hit. A crash is modelled as the fault firing and every later
// fault point failing too (nothing guarded reaches disk or the blob tier
// afterwards); the store is then abandoned without a drain and rebooted on
// the same directory and blob tier, twice when a tombstone object is left.
//
// Invariants checked after each reboot:
//   - a deleted or reported-lost session stays gone: Get misses, no local
//     file and no blob object carries its id;
//   - every session that was durable before the crash and not reported lost
//     is servable; every served session's deletion log is a prefix of its
//     acknowledged log, and its model bits equal Update of that prefix on
//     the updater it was trained with;
//   - after a GC sweep, Stats().SpillDirBytes equals the bytes the listing
//     holds.

// faultPoints names every crash point the fault hook can see: each faultAt
// literal and each unlink point handed to removeSpillFile or dropEntryFiles.
var faultPoints = []string{
	"blob.delete", "blob.get", "blob.put",
	"delete.unlink", "drain.session", "gc.unlink", "invalidate.unlink", "release.unlink",
	"spill.after-temp", "spill.create-temp", "spill.serialize", "spill.unlink-old",
}

// TestFaultPointRegistry fails when a fault-point literal handed to faultAt,
// removeSpillFile or dropEntryFiles is missing from faultPoints, or when the
// registry names a point no call site uses.
func TestFaultPointRegistry(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?:faultAt|removeSpillFile|dropEntryFiles)\([^()]*?"([a-z]+\.[a-z-]+)"\)`)
	known := make(map[string]bool, len(faultPoints))
	for _, p := range faultPoints {
		known[p] = true
	}
	seen := make(map[string]bool)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(src), -1) {
			seen[m[1]] = true
			if !known[m[1]] {
				t.Errorf("%s: fault point %q is missing from faultPoints", f, m[1])
			}
		}
	}
	for _, p := range faultPoints {
		if !seen[p] {
			t.Errorf("faultPoints lists %q, which no call site uses", p)
		}
	}
}

func TestCrashEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("crash enumeration reboots the store ~50 times")
	}
	if !crashRun(t, "", 0) {
		t.Fatal("baseline run reported a crash")
	}
	for _, point := range faultPoints {
		for k := 1; k <= 3; k++ {
			fired := false
			t.Run(point+"#"+string(rune('0'+k)), func(t *testing.T) {
				fired = crashRun(t, point, k)
			})
			if !fired {
				if k == 1 {
					t.Errorf("fault point %s never fires in the workload", point)
				}
				break
			}
		}
	}
}

// crashOracle is what the workload acknowledged, by session id.
type crashOracle struct {
	mu      sync.Mutex
	upd     map[string]priu.Updater // the updater each session was trained with
	acked   map[string][]int        // acknowledged deletion log
	deleted map[string]bool         // acknowledged Delete
	lost    map[string]bool         // reported by onEvictLost / onDiskEvict
	durable map[string]bool         // indexed in some tier at a settled point
}

func (o *crashOracle) markLost(id string) {
	o.mu.Lock()
	o.lost[id] = true
	o.mu.Unlock()
}

// crashRun runs the workload with a crash at the k-th hit of point ("" runs
// it to the end with a clean Close), reboots and checks the invariants. It
// reports whether the crash fired (always true for the baseline).
func crashRun(t *testing.T, point string, k int) bool {
	dir := t.TempDir()
	bs := sharedBlob(t)
	limits := limitsMap(map[string]TenantLimits{
		// Room for one base but not for a delta on top: the capped
		// session's eviction cannot be preserved and is a reported loss.
		"cap": {MaxSpillBytes: spillFileSize(t, "cap/l1") + 40},
	})
	o := &crashOracle{
		upd: map[string]priu.Updater{}, acked: map[string][]int{},
		deleted: map[string]bool{}, lost: map[string]bool{}, durable: map[string]bool{},
	}
	var (
		hmu     sync.Mutex
		hits    = map[string]int{}
		crashed atomic.Bool
	)
	hook := func(p string) error {
		if crashed.Load() {
			return errFault
		}
		hmu.Lock()
		hits[p]++
		n := hits[p]
		hmu.Unlock()
		if p == point && n == k {
			crashed.Store(true)
			return errFault
		}
		return nil
	}
	open := func(withFault bool) *Tiered {
		return newTestTiered(t, dir, NewMemory(WithMaxSessions(4), WithTenantLimits(limits)),
			WithBlobStore(bs), WithCompaction(2), WithSpillGC(time.Hour, 0),
			func(ti *Tiered) {
				if withFault {
					ti.fault = hook
				}
				ti.onEvictLost = o.markLost
				ti.onDiskEvict = o.markLost
			})
	}
	ti := open(true)
	rng := rand.New(rand.NewSource(19))

	settle := func() {
		for {
			ti.Flush()
			ti.mu.Lock()
			busy := len(ti.blobPutting)
			ti.mu.Unlock()
			if busy == 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	put := func(id string, seed int64) {
		s := trainSession(t, id, seed)
		o.mu.Lock()
		o.upd[id], o.acked[id] = s.Upd, nil
		o.mu.Unlock()
		_ = ti.Put(s)
	}
	// pick draws n rows the session has not deleted yet.
	pick := func(s *Session, n int) []int {
		s.Mu.Lock()
		done := make(map[int]bool, len(s.Deleted))
		for _, r := range s.Deleted {
			done[r] = true
		}
		s.Mu.Unlock()
		var rows []int
		for len(rows) < n {
			r := rng.Intn(60)
			if !done[r] {
				done[r] = true
				rows = append(rows, r)
			}
		}
		return rows
	}
	del := func(id string, n int) {
		s, ok := ti.Get(id)
		if !ok {
			return
		}
		applyDeletion(t, s, pick(s, n))
		s.Mu.Lock()
		log := append([]int(nil), s.Deleted...)
		s.Mu.Unlock()
		o.mu.Lock()
		o.acked[id] = log
		o.mu.Unlock()
	}
	steps := []func(){
		func() { put("acme/s1", 1); put("acme/s2", 2); put("acme/s3", 3) },
		func() { del("acme/s1", 2) },
		func() { del("acme/s1", 3) }, // second delta: the chain is full and its next cut folds
		func() { del("acme/s2", 2) },
		func() {
			// Two base cuts of one session published oldest first, as when
			// an eviction's synchronous spill overtakes a parked worker: the
			// newer base replaces the older one's file.
			s := trainSession(t, "acme/r1", 4)
			s.Mu.Lock()
			c1, err1 := ti.cutLocked(s)
			s.Mu.Unlock()
			applyDeletion(t, s, pick(s, 2))
			s.Mu.Lock()
			c2, err2 := ti.cutLocked(s)
			log := append([]int(nil), s.Deleted...)
			s.Mu.Unlock()
			if err1 != nil || err2 != nil || c1 == nil || c2 == nil {
				t.Fatalf("cutting r1: %v %v", err1, err2)
			}
			o.mu.Lock()
			o.upd["acme/r1"], o.acked["acme/r1"] = s.Upd, log
			o.mu.Unlock()
			_, _ = ti.publishCut(c1)
			_, _ = ti.publishCut(c2)
			_ = ti.Put(s)
		},
		func() {
			if ti.Delete("acme/s3") {
				o.mu.Lock()
				o.deleted["acme/s3"] = true
				o.mu.Unlock()
			}
		},
		func() { put("cap/l1", 5) },
		func() {
			del("cap/l1", 2) // its delta is over the tenant's cap: stays dirty
			settle()
			// Pin every other resident so the next registration evicts the
			// capped session, whose spill the cap refuses.
			var pinned []*Session
			for _, id := range []string{"acme/s1", "acme/s2", "acme/r1"} {
				if s, ok := ti.mem.peek(id); ok {
					s.Pin()
					pinned = append(pinned, s)
				}
			}
			put("acme/s4", 6)
			for _, s := range pinned {
				s.Unpin()
			}
		},
		func() {
			_, _ = ti.ReleaseUnowned(func(id string) bool { return id != "acme/s2" })
		},
		func() { del("acme/s2", 2) }, // adopted from the blob tier, then a base cut
		func() {
			old := time.Now().Add(-2 * time.Hour)
			for _, name := range []string{strings.Repeat("0", 32) + spillExt, blobTmp + "aged"} {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, []byte("orphaned bytes"), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(path, old, old); err != nil {
					t.Fatal(err)
				}
			}
			ti.gcOnce()
		},
		func() { del("acme/s1", 2); del("acme/s4", 1) },
		func() { _ = ti.Close() },
	}
	for _, step := range steps {
		if crashed.Load() {
			break
		}
		step()
		if crashed.Load() {
			break
		}
		settle()
		ti.mu.Lock()
		o.mu.Lock()
		for id := range o.acked {
			if ti.index[id] != nil {
				o.durable[id] = true
			}
		}
		o.mu.Unlock()
		ti.mu.Unlock()
	}
	if point == "" && ti.compactions.Load() == 0 {
		t.Error("the workload never folded a chain")
	}
	hardKill(ti)
	fired := crashed.Load()
	if point != "" && !fired {
		return false
	}

	boots := 1
	if _, err := os.Stat(filepath.Join(dir, tombstoneFile)); err == nil {
		boots = 2
	}
	for b := 1; b <= boots; b++ {
		re := open(false)
		o.check(t, re, dir, bs, point == "")
		hardKill(re)
	}
	return point == "" || fired
}

// check asserts the crash invariants on a freshly booted store. exact also
// requires every live log in full (the run ended with a clean Close).
func (o *crashOracle) check(t *testing.T, ti *Tiered, dir string, bs BlobStore, exact bool) {
	t.Helper()
	onDisk := spillIDsOnDisk(t, dir)
	o.mu.Lock()
	defer o.mu.Unlock()
	for id, acked := range o.acked {
		got, ok := ti.Get(id)
		if o.deleted[id] || o.lost[id] {
			if ok {
				t.Errorf("%s: deleted=%v lost=%v, but served after reboot", id, o.deleted[id], o.lost[id])
			}
			if onDisk[id] {
				t.Errorf("%s: gone, but a local spill file still carries it", id)
			}
			if _, _, err := bs.Get(id); err != ErrBlobNotFound {
				t.Errorf("%s: gone, but the blob tier still holds it (err=%v)", id, err)
			}
			continue
		}
		if !ok {
			if o.durable[id] {
				t.Errorf("%s: durable before the crash, not reported lost, but not servable", id)
			}
			continue
		}
		got.Mu.Lock()
		log := append([]int(nil), got.Deleted...)
		vec := append([]float64(nil), got.Model.Vec()...)
		got.Mu.Unlock()
		if len(log) > len(acked) || !equalInts(log, acked[:len(log)]) {
			t.Errorf("%s: restored log %v is not a prefix of the acknowledged %v", id, log, acked)
			continue
		}
		if exact && len(log) != len(acked) {
			t.Errorf("%s: restored log %v after a clean Close, want %v", id, log, acked)
		}
		want := o.upd[id].Model()
		if len(log) > 0 {
			var err error
			if want, err = o.upd[id].Update(log); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range want.Vec() {
			if vec[i] != w {
				t.Errorf("%s: model differs at %d from Update of its restored log", id, i)
				break
			}
		}
	}
	ti.gcOnce()
	if got, want := ti.Stats().SpillDirBytes, spillListingBytes(t, dir); got != want {
		t.Errorf("SpillDirBytes = %d after a GC, the listing holds %d", got, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spillIDsOnDisk reads every base and delta header in the spill directory and
// reports the session ids they carry.
func spillIDsOnDisk(t *testing.T, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, de := range ents {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, env, err := readSpillEnvelope(bytes.NewReader(data)); err == nil {
			ids[env.id] = true
		} else if h, err := readDeltaHeader(binio.NewReader(bytes.NewReader(data))); err == nil {
			ids[h.id] = true
		}
	}
	return ids
}

// spillListingBytes sums what the spill directory lists: every object except
// in-flight temps and the tombstone object.
func spillListingBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range ents {
		if de.IsDir() || strings.HasPrefix(de.Name(), blobTmp) || de.Name() == tombstoneFile {
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
