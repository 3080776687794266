package store

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/binio"
)

// fuzzSeedEnvelope serializes one valid v2 spill-file envelope header,
// including the envelope-carried deletion log.
func fuzzSeedEnvelope(id, kind string, updates int64, deleted []int) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Bytes([]byte(spillMagic))
	bw.U64(spillVersion)
	bw.Str(id)
	bw.Str(kind)
	bw.I64(time.Unix(0, 0).UnixNano())
	bw.I64(updates)
	bw.F64(0.25)
	bw.U64(uint64(len(deleted)))
	for _, v := range deleted {
		bw.I64(int64(v))
	}
	_ = bw.Flush()
	return buf.Bytes()
}

// fuzzSeedV1Envelope serializes the legacy v1 envelope (no deletion log) —
// rejected by the decoder; a v1 base fails the boot by name.
func fuzzSeedV1Envelope(id, kind string, updates int64) []byte {
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.Bytes([]byte(spillMagic))
	bw.U64(1)
	bw.Str(id)
	bw.Str(kind)
	bw.I64(time.Unix(0, 0).UnixNano())
	bw.I64(updates)
	bw.F64(0.25)
	_ = bw.Flush()
	return buf.Bytes()
}

// FuzzSpillEnvelope hammers the spill-file header decoder — the first thing
// the boot reindex runs against every file in the directory, hostile or
// torn. It must never panic, never allocate beyond the name bound, and only
// accept envelopes with a session ID. Seed corpus in
// testdata/fuzz/FuzzSpillEnvelope.
func FuzzSpillEnvelope(f *testing.F) {
	valid := fuzzSeedEnvelope("acme/sess-42", "linear", 7, []int{3, 1, 4})
	f.Add(valid)
	f.Add(valid[:9])                                      // truncated after magic+version
	f.Add(valid[:len(valid)-4])                           // torn inside the deletion log
	f.Add([]byte("PRSP"))                                 // bare magic
	f.Add([]byte{})                                       // empty
	f.Add(fuzzSeedEnvelope("", "linear", 0, nil))         // missing ID: must be rejected
	f.Add(fuzzSeedV1Envelope("acme/sess-42", "ridge", 3)) // legacy v1, rejected
	// A length claim far past the stream (bounded-alloc check).
	var huge bytes.Buffer
	bw := binio.NewWriter(&huge)
	bw.Bytes([]byte(spillMagic))
	bw.U64(spillVersion)
	bw.U64(1 << 62) // absurd ID length
	_ = bw.Flush()
	f.Add(huge.Bytes())
	// A plausible header whose deletion-log count claims far more entries
	// than the stream holds (incremental-grow check).
	var hugeLog bytes.Buffer
	bw = binio.NewWriter(&hugeLog)
	bw.Bytes([]byte(spillMagic))
	bw.U64(spillVersion)
	bw.Str("acme/sess-42")
	bw.Str("linear")
	bw.I64(0)
	bw.I64(1)
	bw.F64(0.25)
	bw.U64(1 << 26) // claims 64M deletion entries, stream ends here
	_ = bw.Flush()
	f.Add(hugeLog.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		_, env, err := readSpillEnvelope(bytes.NewReader(data))
		if err != nil {
			return
		}
		if env.id == "" {
			t.Fatal("accepted envelope without a session ID")
		}
		if len(env.id) > maxSpillName || len(env.kind) > maxSpillName {
			t.Fatalf("accepted oversized strings: id=%d kind=%d", len(env.id), len(env.kind))
		}
	})
}

// fuzzSeedDelta serializes one valid delta segment.
func fuzzSeedDelta(id string, fromLen, fromUpdates int64, entries []int) []byte {
	var buf bytes.Buffer
	cut := &spillCut{id: id, fromLen: fromLen, fromUpdates: fromUpdates,
		updates: fromUpdates + int64(len(entries)), lastUpd: 0.25}
	_ = writeDeltaSegment(&buf, cut, entries)
	return buf.Bytes()
}

// FuzzDeltaSegment hammers the delta-segment decoder the same way boot
// reindex and restore do: header first (reindex), then the full body
// (restore, torn-tail detection). Accepted headers must carry a session ID
// and non-negative chain coordinates; an accepted body must hold exactly
// the entry count the header claims.
func FuzzDeltaSegment(f *testing.F) {
	valid := fuzzSeedDelta("acme/sess-42", 3, 7, []int{9, 2, 5})
	f.Add(valid)
	f.Add(valid[:9])                               // truncated after magic+version
	f.Add(valid[:len(valid)-4])                    // torn inside the entries
	f.Add([]byte(deltaMagic))                      // bare magic
	f.Add([]byte{})                                // empty
	f.Add(fuzzSeedDelta("", 0, 0, nil))            // missing ID: must be rejected
	f.Add(fuzzSeedDelta("acme/s", 0, 0, []int{1})) // minimal chain head
	// A header claiming far more entries than the stream holds.
	var hugeCount bytes.Buffer
	bw := binio.NewWriter(&hugeCount)
	bw.Bytes([]byte(deltaMagic))
	bw.U64(deltaVersion)
	bw.Str("acme/sess-42")
	bw.I64(0)
	bw.I64(0)
	bw.I64(1)
	bw.F64(0.25)
	bw.U64(1 << 26)
	_ = bw.Flush()
	f.Add(hugeCount.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readDeltaHeader(binio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if h.id == "" {
				t.Fatal("accepted delta header without a session ID")
			}
			if len(h.id) > maxSpillName {
				t.Fatalf("accepted oversized ID: %d bytes", len(h.id))
			}
			if h.fromLen < 0 || h.entries < 0 {
				t.Fatalf("accepted negative chain coordinates: fromLen=%d entries=%d", h.fromLen, h.entries)
			}
		}
		// The full-body path must agree: if it accepts, the entry slice
		// must match the header's claim exactly (torn tails rejected).
		d, derr := readDelta(bytes.NewReader(data))
		if derr != nil {
			return
		}
		if err != nil {
			t.Fatal("body decoder accepted a segment the header decoder rejected")
		}
		if int64(len(d.entries)) != h.entries {
			t.Fatalf("accepted torn body: %d entries decoded, header claims %d", len(d.entries), h.entries)
		}
	})
}
