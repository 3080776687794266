package store

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/binio"
)

// Persistent deletion tombstones.
//
// When a session is forgotten (explicit Delete, or invalidation after a
// lossy eviction) the store must guarantee it can never resurrect — not
// from a leftover chain file the unlink missed, and not from the shared
// blob tier re-adopted by the boot scan after a reboot. The in-memory
// pending set alone cannot promise that: a crash between the DELETE ack and
// the blob delete sticking would let the object come back on the next boot.
//
// So the pending set is persisted as ONE object, "tombstones.log" in the
// spill directory: every add and every retirement rewrites the whole set
// through the directory's writer (temp + fsync + rename); an empty set
// deletes the object. The durability order:
//
//   - an add is durable before any unlink or blob delete of the id starts
//     (tombstoneAdd returns only after the write and a directory fsync);
//   - a retirement is durable before a re-registered id publishes anything
//     (Put) and before an adopted id is indexed (restore): both call
//     tombstoneSettle, which rewrites the set and fsyncs the directory
//     unless a later add's fsync covered the retirement. Other retirements
//     skip the directory fsync: one a crash loses replays pending, and its
//     replay repeats deletes whose targets are already gone.
//
// Boot reads the object with the record loop below: ids whose last record
// is unresolved re-enter the pending set — the boot scan deletes their
// stray files and blob objects instead of indexing them, read paths refuse
// the id, and the GC sweep keeps retrying until both sides stick. Logs
// written by earlier builds, which appended add and resolved records and
// may end in a torn record, replay the same way.
const (
	tombstoneFile = "tombstones.log"
	tombMagic     = "PRTS"
	tombVersion   = 1

	// Record flags.
	tombFlagResolved = 1 << 0
)

// tombSide names which half of a tombstone a caller is resolving.
type tombSide int

const (
	tombLocal tombSide = 1 << iota // every local chain file unlinked
	tombBlob                       // blob object deleted (or no blob tier)
)

// tombstone is one pending deletion: the id stays poisoned until both
// sides are clean. Guarded by Tiered.mu.
type tombstone struct {
	localClean bool
	blobClean  bool
}

// tombstoneAdd records id as deleted, durably, before the caller starts
// removing state. It returns only after the set is written (or the write
// failed — the in-memory tombstone still poisons the id for this process's
// lifetime, and the next write carries it). Idempotent: a second add for a
// pending id is a no-op that still waits for the first add's write.
func (t *Tiered) tombstoneAdd(id string) {
	t.tombMu.Lock()
	defer t.tombMu.Unlock()
	t.mu.Lock()
	if t.tombstones[id] != nil {
		t.mu.Unlock()
		return
	}
	t.tombstones[id] = &tombstone{blobClean: t.blob == nil}
	t.mu.Unlock()
	t.writeTombstones(true)
}

// tombstoneResolve marks sides of id's tombstone clean; when both are, the
// tombstone retires and the shrunken set is written, without a directory
// fsync. Resolving both sides at once retires the tombstone outright — the
// re-registration path, which then calls tombstoneSettle.
func (t *Tiered) tombstoneResolve(id string, side tombSide) {
	t.tombMu.Lock()
	defer t.tombMu.Unlock()
	t.mu.Lock()
	ts := t.tombstones[id]
	if ts == nil {
		t.mu.Unlock()
		return
	}
	ts.localClean = ts.localClean || side&tombLocal != 0
	ts.blobClean = ts.blobClean || side&tombBlob != 0
	done := ts.localClean && ts.blobClean
	if done {
		delete(t.tombstones, id)
		t.tombUnsynced[id] = true
	}
	t.mu.Unlock()
	if done {
		t.writeTombstones(false)
	}
}

// tombstoneSettle makes id's retirement durable before a session of id
// publishes: replaying the retired tombstone at the next boot would destroy
// the new session's files.
func (t *Tiered) tombstoneSettle(id string) {
	t.tombMu.Lock()
	defer t.tombMu.Unlock()
	if t.tombUnsynced[id] {
		t.writeTombstones(true)
	}
}

// writeTombstones persists the whole pending set and, when durable, fsyncs
// the directory. The caller holds tombMu across its map change and this
// write, so writes land in the order of the changes they carry.
func (t *Tiered) writeTombstones(durable bool) {
	t.mu.Lock()
	ids := make([]string, 0, len(t.tombstones))
	for id := range t.tombstones {
		ids = append(ids, id)
	}
	t.mu.Unlock()
	if len(ids) == 0 {
		if t.local.Delete(tombstoneFile) != nil {
			return
		}
	} else {
		tmp, err := t.local.stage(func(w io.Writer) error {
			bw := binio.NewWriter(w)
			bw.Bytes([]byte(tombMagic))
			bw.U64(tombVersion)
			for _, id := range ids {
				bw.Str(id)
				bw.U64(0)
			}
			return bw.Flush()
		})
		if err != nil || t.local.commit(tmp, tombstoneFile) != nil {
			return
		}
	}
	if durable && t.local.syncDir() == nil {
		t.mu.Lock()
		clear(t.tombUnsynced)
		t.mu.Unlock()
	}
}

// loadTombstones replays the persisted set at boot, seeding the pending set
// with every id whose last record is unresolved. A torn tail ends the
// replay at the last whole record — the half-written add it loses was for a
// forget whose removals had not started. Runs before the boot scan,
// single-threaded, from NewTiered.
func (t *Tiered) loadTombstones() error {
	rc, _, err := t.local.Get(tombstoneFile)
	if err == ErrBlobNotFound {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening tombstone log: %w", err)
	}
	defer rc.Close()
	br := binio.NewReader(rc)
	if err := br.Magic(tombMagic); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil // empty or torn header: no record landed
		}
		return fmt.Errorf("store: tombstone log: %w", err)
	}
	if v := br.U64(); br.Err == nil && v != tombVersion {
		return fmt.Errorf("store: unsupported tombstone-log version %d", v)
	}
	for {
		id := br.Str(maxSpillName)
		flags := br.U64()
		if br.Err != nil {
			return nil // the end, or a torn tail
		}
		if flags&tombFlagResolved != 0 {
			delete(t.tombstones, id)
		} else {
			// localClean is settled by the boot scan (which deletes any
			// stray files it finds for the id); blobClean by it or the GC.
			t.tombstones[id] = &tombstone{blobClean: t.blob == nil}
		}
	}
}
