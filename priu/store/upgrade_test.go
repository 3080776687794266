package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// copyDir copies the flat fixture directory src into a fresh temp dir, so a
// boot may rewrite it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkBits compares a model vector with big-endian hex float64 bit patterns.
func checkBits(t *testing.T, id string, vec []float64, want []string) {
	t.Helper()
	if len(vec) != len(want) {
		t.Fatalf("%s: model has %d coordinates, want %d", id, len(vec), len(want))
	}
	for i, h := range want {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if w := math.Float64frombits(binary.BigEndian.Uint64(b)); vec[i] != w {
			t.Fatalf("%s: model differs at %d: %v, want %v", id, i, vec[i], w)
		}
	}
}

// TestUpgradeFixtureBoots boots a spill directory written by the release
// before the spill directory became an FSBlob (testdata/upgrade/spill): a
// base with two delta segments, and an append-only tombstones.log holding a
// pending id (whose base the crashed delete never unlinked), a resolved id
// (since re-registered) and a torn tail.
func TestUpgradeFixtureBoots(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "upgrade", "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		ChainID      string   `json:"chain_id"`
		ChainDeleted []int    `json:"chain_deleted"`
		ChainBits    []string `json:"chain_bits"`
		PendingID    string   `json:"pending_id"`
		ResolvedID   string   `json:"resolved_id"`
		ResolvedBits []string `json:"resolved_bits"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := copyDir(t, filepath.Join("testdata", "upgrade", "spill"))
	ti := newTestTiered(t, dir, NewMemory())

	got, ok := ti.Get(want.ChainID)
	if !ok {
		t.Fatalf("%s: the base + 2 delta chain does not restore", want.ChainID)
	}
	vec, _, _ := sessionState(t, got)
	got.Mu.Lock()
	log := append([]int(nil), got.Deleted...)
	got.Mu.Unlock()
	if !equalInts(log, want.ChainDeleted) {
		t.Fatalf("%s: restored log %v, want %v", want.ChainID, log, want.ChainDeleted)
	}
	checkBits(t, want.ChainID, vec, want.ChainBits)

	if _, ok := ti.Get(want.PendingID); ok {
		t.Fatalf("%s: pending tombstone did not keep the session deleted", want.PendingID)
	}
	if spillIDsOnDisk(t, dir)[want.PendingID] {
		t.Fatalf("%s: boot left the tombstoned session's files behind", want.PendingID)
	}
	if st := ti.Stats(); st.PendingTombstones != 0 {
		t.Fatalf("%d tombstones pending after boot removed every file, want 0", st.PendingTombstones)
	}
	if _, err := os.Stat(filepath.Join(dir, tombstoneFile)); !os.IsNotExist(err) {
		t.Fatalf("tombstone object still present with nothing pending (stat err=%v)", err)
	}

	back, ok := ti.Get(want.ResolvedID)
	if !ok {
		t.Fatalf("%s: a resolved tombstone poisoned the re-registered session", want.ResolvedID)
	}
	vec, _, _ = sessionState(t, back)
	checkBits(t, want.ResolvedID, vec, want.ResolvedBits)
}

// TestUpgradeV1BaseFailsBoot: a version-1 base (log inside the snapshot)
// must fail NewTiered with an error naming the file — never be orphaned and
// GC'd, which would drop the session from every tier unannounced.
func TestUpgradeV1BaseFailsBoot(t *testing.T) {
	src := filepath.Join("testdata", "upgrade", "v1")
	ents, err := os.ReadDir(src)
	if err != nil || len(ents) != 1 {
		t.Fatalf("fixture: %v, %d files", err, len(ents))
	}
	dir := copyDir(t, src)
	ti, err := NewTiered(dir, NewMemory())
	if err == nil {
		ti.stopLifecycle()
		t.Fatal("NewTiered booted a spill directory holding a version-1 base")
	}
	if !errors.Is(err, errSpillVersion) || !strings.Contains(err.Error(), ents[0].Name()) {
		t.Fatalf("NewTiered error %q does not name the version-1 file %s", err, ents[0].Name())
	}
	if _, err := os.Stat(filepath.Join(dir, ents[0].Name())); err != nil {
		t.Fatalf("the failed boot touched the version-1 file: %v", err)
	}
}

// v1Fixture returns the version-1 base's file name, bytes and session ID.
func v1Fixture(t *testing.T) (name string, data []byte, id string) {
	t.Helper()
	src := filepath.Join("testdata", "upgrade", "v1")
	ents, err := os.ReadDir(src)
	if err != nil || len(ents) != 1 {
		t.Fatalf("fixture: %v, %d files", err, len(ents))
	}
	name = ents[0].Name()
	if data, err = os.ReadFile(filepath.Join(src, name)); err != nil {
		t.Fatal(err)
	}
	_, env, err := readSpillEnvelope(bytes.NewReader(data))
	if !errors.Is(err, errSpillVersion) || env.id == "" {
		t.Fatalf("fixture decodes as %q, %v; want a named version-1 base", env.id, err)
	}
	return name, data, env.id
}

// TestUpgradeV1BaseOfDeletedSessionRemoved: a version-1 base whose session
// has a pending tombstone is a deleted session's leftover — the boot removes
// it instead of failing.
func TestUpgradeV1BaseOfDeletedSessionRemoved(t *testing.T) {
	name, _, id := v1Fixture(t)
	dir := copyDir(t, filepath.Join("testdata", "upgrade", "v1"))
	local, err := NewFSBlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	(&Tiered{local: local, tombstones: map[string]*tombstone{id: {}}}).writeTombstones(true)

	ti := newTestTiered(t, dir, NewMemory())
	if _, ok := ti.Get(id); ok {
		t.Fatalf("%s: a tombstoned version-1 base was served", id)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Fatalf("boot left the deleted session's version-1 base behind (stat err=%v)", err)
	}
	if st := ti.Stats(); st.PendingTombstones != 0 {
		t.Fatalf("%d tombstones pending after the boot removed the only file", st.PendingTombstones)
	}
}

// TestUpgradeV1BlobObjectLeftInPlace: a version-1 object in the shared blob
// tier must not fail the boot of every replica. It is left untouched and
// unindexed, a read of its id misses, the other objects serve, and a
// re-registered session of the id replaces it.
func TestUpgradeV1BlobObjectLeftInPlace(t *testing.T) {
	_, data, id := v1Fixture(t)
	blob, err := NewFSBlob(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Put(id, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	first := newTestTiered(t, t.TempDir(), NewMemory(), WithBlobStore(blob))
	if err := first.Put(trainSession(t, "acme/v2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	ti, err := NewTiered(t.TempDir(), NewMemory(), WithBlobStore(blob))
	if err != nil {
		t.Fatalf("a version-1 blob object failed the boot: %v", err)
	}
	t.Cleanup(ti.stopLifecycle)
	if _, ok := ti.Get("acme/v2"); !ok {
		t.Fatal("a version-2 blob object next to the version-1 one does not serve")
	}
	if _, ok := ti.Get(id); ok {
		t.Fatalf("%s: the version-1 blob object was served", id)
	}
	if ti.restoreErrors.Load() == 0 {
		t.Fatalf("%s: reading the version-1 object reported no restore error", id)
	}
	rc, _, err := blob.Get(id)
	if err != nil {
		t.Fatalf("the version-1 blob object is gone: %v", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the version-1 blob object changed (err=%v)", err)
	}

	if err := ti.Put(trainSession(t, id, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	rc, _, err = blob.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = readSpillEnvelope(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("the re-registered session did not replace the version-1 object: %v", err)
	}
}

// TestTombstoneDurableBeforeFirstUnlink crashes a Delete at its first unlink
// and checks the order the tombstone set promises: the id is already in the
// persisted set when the unlink would run, and after a reboot the session
// stays deleted with its files removed.
func TestTombstoneDurableBeforeFirstUnlink(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	if err := ti.Put(trainSession(t, "acme/s1", 1)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	var armed, persisted atomic.Bool
	ti.fault = func(p string) error {
		if p != "delete.unlink" || !armed.Load() {
			return nil
		}
		probe := &Tiered{local: ti.local, tombstones: map[string]*tombstone{}}
		if err := probe.loadTombstones(); err == nil && probe.tombstones["acme/s1"] != nil {
			persisted.Store(true)
		}
		return errFault
	}
	armed.Store(true)
	if !ti.Delete("acme/s1") {
		t.Fatal("delete reported the session missing")
	}
	if !persisted.Load() {
		t.Fatal("the tombstone was not persisted before the first unlink")
	}
	hardKill(ti)

	re := newTestTiered(t, dir, NewMemory())
	if _, ok := re.Get("acme/s1"); ok {
		t.Fatal("deleted session resurrected after a crash at its first unlink")
	}
	if spillIDsOnDisk(t, dir)["acme/s1"] {
		t.Fatal("boot left the deleted session's files behind")
	}
}

// TestTombstoneRetirementSettledBeforeReregistration: a Delete's
// retirement is written without a directory fsync; a Put of the same id
// must make it durable before the new session publishes, or a crash could
// replay the retired tombstone and delete the new session's files.
func TestTombstoneRetirementSettledBeforeReregistration(t *testing.T) {
	dir := t.TempDir()
	ti := newTestTiered(t, dir, NewMemory())
	if err := ti.Put(trainSession(t, "acme/s1", 1)); err != nil {
		t.Fatal(err)
	}
	ti.Flush()
	if !ti.Delete("acme/s1") {
		t.Fatal("delete reported the session missing")
	}
	ti.tombMu.Lock()
	unsynced := ti.tombUnsynced["acme/s1"]
	ti.tombMu.Unlock()
	if !unsynced {
		t.Fatal("the Delete's retirement was fsynced; want it left to the re-registration")
	}
	if err := ti.Put(trainSession(t, "acme/s1", 2)); err != nil {
		t.Fatal(err)
	}
	ti.tombMu.Lock()
	unsynced = ti.tombUnsynced["acme/s1"]
	ti.tombMu.Unlock()
	if unsynced {
		t.Fatal("the re-registration published before its retirement was durable")
	}
}

// TestFSBlobSweepsOnlyAgedTemps: opening an FSBlob removes temp files a
// crashed writer abandoned (at least tmpFloor old) and keeps fresh ones,
// which may be another process's Put in flight on a shared directory.
func TestFSBlobSweepsOnlyAgedTemps(t *testing.T) {
	dir := t.TempDir()
	old, fresh := filepath.Join(dir, blobTmp+"old"), filepath.Join(dir, blobTmp+"fresh")
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, []byte("partial upload"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	aged := time.Now().Add(-2 * tmpFloor)
	if err := os.Chtimes(old, aged, aged); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFSBlob(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("aged temp survived NewFSBlob (stat err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp was swept: %v", err)
	}
}

// TestTombstoneLogEmptyOrTornHeaderBoots: a tombstones.log cut short before
// its header was whole (an earlier release created it, then crashed before
// the first append landed) holds no record, so the boot must proceed.
func TestTombstoneLogEmptyOrTornHeaderBoots(t *testing.T) {
	for _, body := range [][]byte{{}, []byte(tombMagic[:2]), []byte(tombMagic)} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tombstoneFile), body, 0o644); err != nil {
			t.Fatal(err)
		}
		ti, err := NewTiered(dir, NewMemory())
		if err != nil {
			t.Fatalf("boot with a %d-byte tombstone log: %v", len(body), err)
		}
		if st := ti.Stats(); st.PendingTombstones != 0 {
			t.Fatalf("%d tombstones pending from a header-only log", st.PendingTombstones)
		}
		ti.stopLifecycle()
	}
}
