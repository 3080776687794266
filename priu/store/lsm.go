package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"repro/internal/binio"
)

// Delta segments and chain compaction — the log-structured half of the disk
// tier. A delta segment is a tiny content-addressed file carrying only the
// deletion-log suffix one spill adds on top of a chain tip; compaction
// folds a base + delta chain back into a single v2 base by splicing bytes:
// the merged envelope (base log + every folded segment's entries, tip
// counters) followed by the base's embedded snapshot copied verbatim. No
// model is decoded at any point, so folding costs O(file bytes), not
// O(retraining state).

// deltaHeader is the decoded fixed-size prefix of one delta segment.
type deltaHeader struct {
	id          string
	fromLen     int64
	fromUpdates int64
	updates     int64
	lastUpd     float64
	entries     int64 // number of deletion-log entries that follow
}

// deltaData is a fully decoded delta segment.
type deltaData struct {
	id          string
	fromLen     int64
	fromUpdates int64
	updates     int64
	lastUpd     float64
	entries     []int
}

// writeDeltaSegment serializes one delta segment for the given cut.
func writeDeltaSegment(w io.Writer, cut *spillCut, entries []int) error {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(deltaMagic))
	bw.U64(deltaVersion)
	bw.Str(cut.id)
	bw.I64(cut.fromLen)
	bw.I64(cut.fromUpdates)
	bw.I64(cut.updates)
	bw.F64(cut.lastUpd)
	bw.U64(uint64(len(entries)))
	for _, v := range entries {
		bw.I64(int64(v))
	}
	return bw.Flush()
}

// readDeltaHeader decodes a delta segment's header, leaving the reader
// positioned at the entries.
func readDeltaHeader(br *binio.Reader) (deltaHeader, error) {
	var h deltaHeader
	if err := br.Magic(deltaMagic); err != nil {
		return h, fmt.Errorf("store: %w", err)
	}
	if v := br.U64(); br.Err == nil && v != deltaVersion {
		return h, fmt.Errorf("store: unsupported delta-segment version %d", v)
	}
	h.id = br.Str(maxSpillName)
	h.fromLen = br.I64()
	h.fromUpdates = br.I64()
	h.updates = br.I64()
	h.lastUpd = br.F64()
	n := br.U64()
	if br.Err == nil && n > uint64(binio.MaxElems) {
		return h, fmt.Errorf("store: delta segment claims %d entries", n)
	}
	h.entries = int64(n)
	if br.Err != nil {
		return h, br.Err
	}
	if h.id == "" || h.fromLen < 0 || h.entries < 0 {
		return h, fmt.Errorf("store: corrupt delta-segment header")
	}
	return h, nil
}

// readDelta decodes a whole delta segment from r.
func readDelta(r io.Reader) (deltaData, error) {
	var d deltaData
	br := binio.NewReader(r)
	h, err := readDeltaHeader(br)
	if err != nil {
		return d, err
	}
	d.id, d.fromLen, d.fromUpdates = h.id, h.fromLen, h.fromUpdates
	d.updates, d.lastUpd = h.updates, h.lastUpd
	d.entries = make([]int, 0, min(int(h.entries), 4096))
	for i := int64(0); i < h.entries; i++ {
		v := br.I64()
		if br.Err != nil {
			return d, br.Err
		}
		d.entries = append(d.entries, int(v))
	}
	return d, nil
}

// spliceChain folds a base file plus an ordered delta chain into one v2
// spill file written to w — merged envelope (base log + every segment's
// entries, tip counters) followed by the base's embedded snapshot copied
// byte for byte. The model is never decoded. Chain continuity is verified
// against the actual file contents, not just the index.
func (t *Tiered) spliceChain(w io.Writer, id, base string, segs []deltaSeg) error {
	tail, err := t.readTail(id, segs)
	if err != nil {
		return err
	}
	rc, _, err := t.local.Get(base)
	if err != nil {
		return err
	}
	defer rc.Close()
	br, env, err := readSpillEnvelope(rc)
	if err != nil {
		return err
	}
	if env.id != id {
		return fmt.Errorf("store: base %s holds session %s, want %s", base, env.id, id)
	}
	merged := env.deleted
	tipUpdates, tipLastUpd := env.updates, env.lastUpdateSeconds
	if tail != nil {
		if !tail.extends(&env) {
			return fmt.Errorf("store: delta chain of %s does not extend base %s", id, base)
		}
		merged = append(merged, tail.entries...)
		tipUpdates, tipLastUpd = tail.updates, tail.lastUpd
	}
	if err := writeSpillEnvelope(w, id, env.kind, env.createdAt, tipUpdates, tipLastUpd, merged); err != nil {
		return err
	}
	// The splice: the base's embedded snapshot, byte for byte. br.R is
	// positioned right past the envelope.
	_, err = io.Copy(w, br.R)
	return err
}

// scheduleCompact starts a background fold of id's chain unless one is
// already running or the lifecycle is shutting down. The compacting gate
// doubles as a pin: the disk-budget evictor skips gated ids.
func (t *Tiered) scheduleCompact(id string) {
	t.mu.Lock()
	if t.compacting[id] {
		t.mu.Unlock()
		return
	}
	t.compacting[id] = true
	t.mu.Unlock()
	t.qmu.Lock()
	if t.qClosed {
		t.qmu.Unlock()
		t.mu.Lock()
		delete(t.compacting, id)
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	t.qmu.Unlock()
	go func() {
		defer t.wg.Done()
		t.compactOnce(id)
		t.mu.Lock()
		delete(t.compacting, id)
		t.mu.Unlock()
	}()
}

// compactOnce folds the session's current delta chain into a new v2 base.
// The whole read-and-splice runs without t.mu (and without any Session.Mu —
// compaction never touches resident state); publication re-verifies under
// t.mu that the folded prefix is exactly the chain that was read (segments
// appended meanwhile survive on top of the new base) and that no restore
// flight is mid-read, then renames and unlinks the folded files. A crash
// before the rename leaves a temp file (swept by GC) with the old chain
// authoritative; a crash after it leaves both the new base and the old
// chain, and the boot scan deterministically picks the new base — same
// update counter, longer envelope log — and removes the rest.
func (t *Tiered) compactOnce(id string) {
	start := time.Now()
	t.mu.Lock()
	e := t.index[id]
	if e == nil || !e.local || len(e.deltas) == 0 {
		t.mu.Unlock()
		return
	}
	base, baseBytes := e.key, e.bytes
	segs := append([]deltaSeg(nil), e.deltas...)
	var foldedBytes int64
	for _, sg := range segs {
		foldedBytes += sg.bytes
	}
	t.mu.Unlock()

	if t.faultAt("compact.create-temp") != nil {
		return
	}
	h := sha256.New()
	tmp, err := t.local.stage(func(w io.Writer) error {
		return t.spliceChain(io.MultiWriter(w, h), id, base, segs)
	})
	if err != nil {
		return
	}
	if t.faultAt("compact.after-temp") != nil {
		// Simulated crash after the temp write: the old chain stays
		// authoritative; the temp is swept at boot or by the GC.
		return
	}
	key := hex.EncodeToString(h.Sum(nil))[:32] + spillExt
	diskDelta := tmp.size - (baseBytes + foldedBytes)

	t.mu.Lock()
	cur := t.index[id]
	stale := cur == nil || !cur.local || cur.key != base || len(cur.deltas) < len(segs)
	for i := 0; !stale && i < len(segs); i++ {
		stale = cur.deltas[i].key != segs[i].key
	}
	if _, restoring := t.flights[id]; restoring {
		// A restore snapshotted the old chain and may be mid-read; folding
		// now would unlink files under it. Back off — the next delta spill
		// re-triggers compaction.
		stale = true
	}
	if stale {
		t.mu.Unlock()
		t.local.abort(tmp)
		return
	}
	if ok, _ := t.reserveDiskLocked(diskDelta, id); !ok {
		t.mu.Unlock()
		t.local.abort(tmp)
		return
	}
	if err := t.mem.reserveSpill(TenantOf(id), diskDelta); err != nil {
		t.diskBytes -= diskDelta
		t.mu.Unlock()
		t.local.abort(tmp)
		return
	}
	if t.faultAt("compact.publish") != nil || t.local.commit(tmp, key) != nil {
		// A simulated crash at the publish point (the temp stays), or a
		// failed rename (commit removed the temp).
		t.diskBytes -= diskDelta
		t.mem.adjustSpill(TenantOf(id), -diskDelta)
		t.mu.Unlock()
		return
	}
	oldFiles := make([]keyBytes, 0, 1+len(segs))
	if base != key {
		// Identical content (possible when the chain carried only counter
		// echoes) means the rename already overwrote the base in place.
		oldFiles = append(oldFiles, keyBytes{base, baseBytes})
	}
	for _, sg := range segs {
		oldFiles = append(oldFiles, keyBytes{sg.key, sg.bytes})
	}
	t.unlinkingLocked(oldFiles)
	cur.key = key
	cur.bytes = tmp.size
	cur.deltas = append([]deltaSeg(nil), cur.deltas[len(segs):]...)
	cur.spillCharged += diskDelta
	cur.lastUsed = time.Now().UnixNano()
	t.mu.Unlock()
	for _, kb := range oldFiles {
		t.removeSpillFile(kb.key, kb.bytes, "compact.unlink-old")
	}
	t.compactions.Add(1)
	if m := t.metrics; m != nil {
		observeSince(m.CompactionSeconds, start)
	}
}
