package store

import (
	"fmt"
	"testing"
	"time"

	"repro/priu"
)

// BenchmarkSpillRestore measures one full disk-tier round trip — spill a
// dirty session (snapshot + atomic rename) and restore it (read, provenance
// load, deletion-log replay) — and reports capture-time / round-trip-time as
// a "speedup" metric: the factor by which restoring a session from the spill
// directory beats re-capturing it from scratch. benchguard baselines the
// metric, so a restore-latency regression of more than 20% fails CI.
func BenchmarkSpillRestore(b *testing.B) {
	d, err := priu.GenerateBinary("bench-spill", 400, 12, 0.8, 7)
	if err != nil {
		b.Fatal(err)
	}
	opts := []priu.Option{
		priu.WithEta(5e-3), priu.WithLambda(0.05), priu.WithBatchSize(50),
		priu.WithIterations(60), priu.WithSeed(7), priu.WithFullCaches(),
	}
	t0 := time.Now()
	u, err := priu.Train("logistic", d, opts...)
	if err != nil {
		b.Fatal(err)
	}
	captureNs := time.Since(t0).Nanoseconds()

	sess := NewSession("sess-bench", "logistic", d, u, nil, nil)
	// A non-empty deletion log makes restore pay the replay it pays in
	// production.
	sess.Mu.Lock()
	sess.Deleted = []int{3, 17, 91, 200}
	m, err := sess.Upd.Update(sess.Deleted)
	if err != nil {
		sess.Mu.Unlock()
		b.Fatal(err)
	}
	sess.Model = m
	sess.Mu.Unlock()

	// No write-behind: this benchmark measures the raw spill/restore round
	// trip itself, not the worker.
	ti := newSteppedTiered(b, b.TempDir(), NewMemory(), defaultCompactAfter, defaultGCAge)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Mu.Lock()
		sess.MarkDirtyLocked() // force a real rewrite each iteration
		_, err := ti.spillLocked(sess)
		sess.Mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		ti.mu.Lock()
		e := ti.index[sess.ID]
		ti.mu.Unlock()
		if _, err := ti.restore(sess.ID, e); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		perOp := b.Elapsed().Nanoseconds() / int64(b.N)
		if perOp > 0 {
			b.ReportMetric(float64(captureNs)/float64(perOp), "speedup")
		}
	}
}

// BenchmarkEvictLatency measures the latency the EVICTING registration pays
// for its victim's preservation — the tentpole claim of the write-behind
// lifecycle. It self-measures a synchronous-spill baseline (the pre-lifecycle
// behavior: the victim's snapshot is written on the evicting goroutine, under
// the victim's lock) and then times evictions against a write-behind store
// whose victims are already snapshotted, so the eviction just drops the
// resident copy. The ratio is reported as a "speedup" metric and baselined by
// benchguard: if evictions start paying spill IO on the request path again,
// CI fails.
func BenchmarkEvictLatency(b *testing.B) {
	d, err := priu.GenerateRegression("bench-evict", 400, 8, 0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	u, err := priu.Train("linear", d,
		priu.WithEta(0.01), priu.WithLambda(0.05), priu.WithBatchSize(50),
		priu.WithIterations(40), priu.WithSeed(3), priu.WithFullCaches())
	if err != nil {
		b.Fatal(err)
	}
	session := func(id string) *Session { return NewSession(id, "linear", d, u, nil, nil) }

	// Baseline: synchronous spills. Every Put evicts the previous (dirty)
	// resident, paying the full snapshot write inline.
	sync := newSteppedTiered(b, b.TempDir(), NewMemory(WithMaxSessions(1)), defaultCompactAfter, defaultGCAge)
	const warm = 2
	const syncOps = 8
	for i := 0; i < warm; i++ { // fault in code paths and page cache
		if err := sync.Put(session(fmt.Sprintf("warm-%03d", i))); err != nil {
			b.Fatal(err)
		}
	}
	t0 := time.Now()
	for i := 0; i < syncOps; i++ {
		if err := sync.Put(session(fmt.Sprintf("sync-%03d", i))); err != nil {
			b.Fatal(err)
		}
	}
	syncPerOp := time.Since(t0).Nanoseconds() / syncOps

	// Timed: write-behind. The worker snapshots each resident before the next
	// registration arrives (the flush is off the timer), so the eviction
	// inside Put is a drop.
	wb, err := NewTiered(b.TempDir(), NewMemory(WithMaxSessions(1)))
	if err != nil {
		b.Fatal(err)
	}
	defer wb.Close()
	if err := wb.Put(session("wb-seed")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wb.Flush() // victim clean + on disk before the clock runs
		b.StartTimer()
		if err := wb.Put(session(fmt.Sprintf("wb-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := wb.Stats(); st.Spills != st.WriteBehindSpills {
		b.Fatalf("%d evictions paid a synchronous spill; the benchmark premise broke (%+v)",
			st.Spills-st.WriteBehindSpills, st)
	}
	if b.N > 0 {
		perOp := b.Elapsed().Nanoseconds() / int64(b.N)
		if perOp > 0 {
			b.ReportMetric(float64(syncPerOp)/float64(perOp), "speedup")
		}
	}
}

// BenchmarkDeltaSpill measures what a mutation-heavy deletion stream pays
// the durability layer per batch: each iteration appends a one-entry
// deletion batch and spills it. With the LSM tier the spill is a delta
// segment carrying only the log suffix, so the bytes written per spill are
// O(batch) instead of the full-snapshot O(session) rewrite the pre-LSM
// store paid. The ratio full-base-bytes / delta-bytes-per-spill is reported
// as a "speedup" metric and baselined by benchguard — the ISSUE floor is
// ≥5×, the measured ratio is orders of magnitude above it, and a regression
// past the guard's 20% tolerance fails CI. ns/op is the per-batch spill
// latency (cut + serialize + fsync + rename).
func BenchmarkDeltaSpill(b *testing.B) {
	d, err := priu.GenerateRegression("bench-delta", 2000, 24, 0.05, 7)
	if err != nil {
		b.Fatal(err)
	}
	u, err := priu.Train("linear", d,
		priu.WithEta(0.01), priu.WithLambda(0.05), priu.WithBatchSize(100),
		priu.WithIterations(40), priu.WithSeed(7), priu.WithFullCaches())
	if err != nil {
		b.Fatal(err)
	}
	sess := NewSession("sess-delta", "linear", d, u, nil, nil)
	// No write-behind (measuring the spill itself, not the worker) and no
	// fold, so the chain grows delta by delta for the whole run.
	ti := newSteppedTiered(b, b.TempDir(), NewMemory(), 0, defaultGCAge)
	sess.Mu.Lock()
	_, err = ti.spillLocked(sess)
	sess.Mu.Unlock()
	if err != nil {
		b.Fatal(err)
	}
	baseBytes := ti.Stats().SpillDirBytes
	if baseBytes <= 0 {
		b.Fatal("base spill produced no file")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Mu.Lock()
		// The mutation path's storage-relevant effects only: the model
		// update itself is the paper's O(batch) contribution and is not
		// what this benchmark times.
		sess.Deleted = append(sess.Deleted, i)
		sess.Updates++
		sess.MarkDirtyLocked()
		wrote, err := ti.spillLocked(sess)
		sess.Mu.Unlock()
		if err != nil || !wrote {
			b.Fatalf("spill %d = (%v, %v)", i, wrote, err)
		}
	}
	b.StopTimer()
	st := ti.Stats()
	if int(st.DeltaSpills) != b.N {
		b.Fatalf("%d of %d spills were deltas; the benchmark premise broke", st.DeltaSpills, b.N)
	}
	deltaBytes := st.SpillDirBytes - baseBytes
	if b.N > 0 && deltaBytes > 0 {
		perSpill := float64(deltaBytes) / float64(b.N)
		b.ReportMetric(perSpill, "bytes/spill")
		b.ReportMetric(float64(baseBytes)/perSpill, "speedup")
	}
}

// BenchmarkDeleteBlobDeleteFailing times session Deletes while every blob
// delete fails, so each Delete leaves its tombstone pending and the
// persisted set holds b.N ids by the end. Each tombstone add rewrites the
// whole set, so ns/op grows with b.N: compare runs at one -benchtime (for
// example -benchtime=3200x).
func BenchmarkDeleteBlobDeleteFailing(b *testing.B) {
	bs, err := NewFSBlob(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ti := newTestTiered(b, b.TempDir(), NewMemory(), WithBlobStore(bs))
	id := func(i int) string { return fmt.Sprintf("acme/burst-%06d", i) }
	for i := 0; i < b.N; i++ {
		if err := ti.Put(trainSession(b, id(i), int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	ti.Flush()
	ti.fault = func(p string) error {
		if p == "blob.delete" {
			return errFault
		}
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ti.Delete(id(i)) {
			b.Fatalf("%s: delete reported the session missing", id(i))
		}
	}
	b.StopTimer()
	if got := ti.Stats().PendingTombstones; got != b.N {
		b.Fatalf("%d tombstones pending, want %d", got, b.N)
	}
}
