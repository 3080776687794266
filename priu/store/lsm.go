package store

import (
	"fmt"
	"io"

	"repro/internal/binio"
)

// Delta segments and base splicing — the log-structured half of the disk
// tier. A delta segment is a tiny content-addressed file carrying only the
// deletion-log suffix one spill adds on top of a chain tip. A chain that
// holds compactAfter segments is folded by its next cut: a new base whose
// envelope carries the session's full log and whose embedded snapshot is
// the old base's, copied verbatim (spliceBase). The blob push splices the
// same way, merging the chain's logs into the envelope. No model is encoded
// or decoded at any point, so either costs O(file bytes), not O(retraining
// state).

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

// spliceChain writes a base file plus its ordered delta chain to w as one
// v2 spill file — the blob push's self-contained object: the envelope
// carries the base log plus every segment's entries and the tip counters.
// Chain continuity is verified against the actual file contents, not just
// the index.
func (t *Tiered) spliceChain(w io.Writer, id, base string, segs []deltaSeg) error {
	tail, err := t.readTail(id, segs)
	if err != nil {
		return err
	}
	return t.spliceBase(w, id, base, func(env *spillEnvelope) error {
		if tail == nil {
			return nil
		}
		if !tail.extends(env) {
			return fmt.Errorf("store: delta chain of %s does not extend base %s", id, base)
		}
		env.deleted = append(env.deleted, tail.entries...)
		env.updates, env.lastUpdateSeconds = tail.updates, tail.lastUpd
		return nil
	})
}

// spliceBase writes a v2 base to w from the base file of id: its envelope as
// head rewrites it, then its embedded snapshot copied byte for byte. The
// snapshot is streamed, never decoded nor held whole in memory.
func (t *Tiered) spliceBase(w io.Writer, id, base string, head func(env *spillEnvelope) error) error {
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
	if err := head(&env); err != nil {
		return err
	}
	if err := writeSpillEnvelope(w, id, env.kind, env.createdAt, env.updates, env.lastUpdateSeconds, env.deleted); err != nil {
		return err
	}
	// br.R is positioned right past the envelope.
	_, err = io.Copy(w, br.R)
	return err
}
