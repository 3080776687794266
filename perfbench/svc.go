package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/priu/client"
	"repro/priu/service"
	"repro/priu/store"
)

// phase collects what the clients observe during one measured window.
type phase struct {
	rec   *recorder
	srv   *server
	start time.Time
	end   time.Time

	commitMs, updateMs, commitOverMs samples
	rows                             atomic.Int64

	whatifMs, evalMs   samples
	whatifSets         atomic.Int64
	cacheHits          atomic.Int64
	whatifs, increment atomic.Int64

	createMs, captureMs, createOverMs samples
	createByFamily                    familySamples
	lateMs                            samples

	attempted, failed atomic.Int64
	firstErr          atomic.Value

	// A phase may run as several slices; active and delta sum over them.
	active time.Duration
	before counters
	delta  counters
	last   store.Stats
	// slices records every slice, for the rates, which are medians over
	// schedules; unit is how many slices make one schedule.
	slices []sliceRec
	mark   sliceRec
	unit   int
}

// sliceRec is one slice of a phase: the rows and sets it completed, and its
// length.
type sliceRec struct {
	rows, sets int64
	secs       float64
}

// counters are the cumulative figures the program reports that a phase
// takes as deltas: store counters and tier histograms, wire bytes on the
// deletion streams and the par pool's dispatch counts.
type counters struct {
	spills, deltaSpills, stale, compactions, queueFull, restores, gets int64
	wire, dispatches, inline                                           int64
	hists                                                              map[string]histSnap
}

func (p *phase) read() counters {
	ps := par.Stats()
	c := counters{dispatches: ps.Dispatches, inline: ps.Inline}
	if p.srv == nil {
		return c
	}
	st := p.srv.probe.Stats()
	p.last = st
	c.spills, c.deltaSpills, c.stale = st.Spills, st.DeltaSpills, st.StaleSpills
	c.compactions, c.queueFull, c.restores = st.Compactions, st.SpillQueueFull, st.Restores
	c.gets, c.wire = p.srv.probe.gets.Load(), p.srv.wire.Load()
	c.hists = readHists(p.srv.reg)
	return c
}

// addDelta adds after − before to d.
func (d *counters) addDelta(after, before counters) {
	d.spills += after.spills - before.spills
	d.deltaSpills += after.deltaSpills - before.deltaSpills
	d.stale += after.stale - before.stale
	d.compactions += after.compactions - before.compactions
	d.queueFull += after.queueFull - before.queueFull
	d.restores += after.restores - before.restores
	d.gets += after.gets - before.gets
	d.wire += after.wire - before.wire
	d.dispatches += after.dispatches - before.dispatches
	d.inline += after.inline - before.inline
	if d.hists == nil {
		d.hists = map[string]histSnap{}
	}
	for name, h := range after.hists {
		d.hists[name] = histAdd(d.hists[name], histDelta(h, before.hists[name]))
	}
}

func newPhase(srv *server, rec *recorder) *phase { return &phase{srv: srv, rec: rec} }

// begin starts a slice of the phase.
func (p *phase) begin() {
	p.before = p.read()
	p.mark = sliceRec{rows: p.rows.Load(), sets: p.whatifSets.Load()}
	p.start = time.Now()
}

// finish ends the slice, adding its deltas to the phase.
func (p *phase) finish() {
	p.end = time.Now()
	p.active += p.end.Sub(p.start)
	p.delta.addDelta(p.read(), p.before)
	s := p.mark
	s.rows, s.sets = p.rows.Load()-s.rows, p.whatifSets.Load()-s.sets
	s.secs = p.end.Sub(p.start).Seconds()
	p.slices = append(p.slices, s)
}

// rate is the median, over the phase's schedules (runs of unit slices), of
// the count that n takes per second of the schedule. A slow spell of the
// host moves the schedules it lands in, not the run's figure.
func (p *phase) rate(n func(sliceRec) int64) float64 {
	unit := max(p.unit, 1)
	var per []float64
	var c int64
	var secs float64
	for i, s := range p.slices {
		c, secs = c+n(s), secs+s.secs
		if (i+1)%unit == 0 || i == len(p.slices)-1 {
			per = append(per, ratio(float64(c), secs))
			c, secs = 0, 0
		}
	}
	return median(per)
}

func (p *phase) seconds() float64 { return p.active.Seconds() }

func (p *phase) fail(err error) {
	p.failed.Add(1)
	if p.firstErr.CompareAndSwap(nil, err.Error()) {
		fmt.Fprintf(os.Stderr, "perfbench: first failed operation: %v\n", err)
	}
}

// opSpan records one client-observed operation and returns its span ID.
func (p *phase) opSpan(name, sess, req string, start, end time.Time) int {
	return p.rec.addOp(name, sess, req, start, end)
}

// coreSpan records the program-reported core time inside an operation as a
// child span ending with it (the wire reports a duration, not a start).
func (p *phase) coreSpan(name, sess string, parent int, end time.Time, secs float64) {
	if parent == 0 || secs <= 0 {
		return
	}
	e := p.rec.since(end)
	p.rec.add(span{Parent: parent, Name: name, Layer: "core", Start: e - int64(secs*1e9), End: e, Sess: sess})
}

// create registers a session and records its client time and capture time.
func (p *phase) create(ctx context.Context, cl *client.Client, req service.CreateSessionRequest) (*service.SessionResponse, error) {
	p.attempted.Add(1)
	id := p.rec.reqID()
	start := time.Now()
	sr, err := cl.CreateSession(withReq(ctx, id), req)
	end := time.Now()
	if err != nil {
		p.fail(fmt.Errorf("create %s: %w", req.Family, err))
		return nil, err
	}
	ms := float64(end.Sub(start).Nanoseconds()) / 1e6
	p.createMs.add(ms)
	p.createByFamily.add(req.Family, ms)
	p.captureMs.add(sr.CaptureSeconds * 1e3)
	p.createOverMs.add(ms - sr.CaptureSeconds*1e3)
	op := p.opSpan("create", sr.SessionID, id, start, end)
	p.coreSpan("core.capture", sr.SessionID, op, end, sr.CaptureSeconds)
	return sr, nil
}

// commit sends one batch on an open stream. due is when the batch was due
// to be sent (open loops); a closed loop passes the send time.
func (p *phase) commit(st *client.DeletionStream, sess, req string, batch []int, due time.Time) (*service.DeletionResult, error) {
	p.attempted.Add(1)
	start := time.Now()
	res, err := st.Send(batch)
	end := time.Now()
	if err != nil {
		p.fail(fmt.Errorf("commit on %s: %w", sess, err))
		return nil, err
	}
	ms := float64(end.Sub(due).Nanoseconds()) / 1e6
	p.commitMs.add(ms)
	p.updateMs.add(res.UpdateSeconds * 1e3)
	p.commitOverMs.add(float64(end.Sub(start).Nanoseconds())/1e6 - res.UpdateSeconds*1e3)
	p.rows.Add(int64(len(batch)))
	op := p.opSpan("commit", sess, req, start, end)
	p.coreSpan("core.update", sess, op, end, res.UpdateSeconds)
	return res, nil
}

// whatif evaluates one batch of candidate sets.
func (p *phase) whatif(ctx context.Context, cl *client.Client, sess string, sets [][]int) (*client.WhatIfReport, error) {
	p.attempted.Add(1)
	id := p.rec.reqID()
	start := time.Now()
	rep, err := cl.WhatIf(withReq(ctx, id), sess, sets)
	end := time.Now()
	if err == nil && rep.Summary.Errors > 0 {
		err = fmt.Errorf("%d of %d sets failed", rep.Summary.Errors, rep.Summary.Sets)
	}
	if err != nil {
		p.fail(fmt.Errorf("what-if on %s: %w", sess, err))
		return nil, err
	}
	p.whatifMs.add(float64(end.Sub(start).Nanoseconds()) / 1e6)
	p.whatifSets.Add(int64(len(sets)))
	p.cacheHits.Add(rep.Summary.CacheHits)
	p.whatifs.Add(1)
	if rep.Summary.Incremental {
		p.increment.Add(1)
	}
	var evalSecs float64
	for _, o := range rep.Outcomes {
		if o.Result != nil {
			p.evalMs.add(o.Result.EvalSeconds * 1e3)
			evalSecs += o.Result.EvalSeconds
		}
	}
	op := p.opSpan("whatif", sess, id, start, end)
	// Sets evaluate in parallel, so their summed time can exceed the call.
	p.coreSpan("core.whatif_eval", sess, op, end, min(evalSecs, end.Sub(start).Seconds()))
	return rep, nil
}

// deleteSession drops a session and records the client time.
func (p *phase) deleteSession(ctx context.Context, cl *client.Client, sess string) error {
	p.attempted.Add(1)
	id := p.rec.reqID()
	start := time.Now()
	err := cl.DeleteSession(withReq(ctx, id), sess)
	end := time.Now()
	if err != nil {
		p.fail(fmt.Errorf("delete %s: %w", sess, err))
		return err
	}
	p.opSpan("delete", sess, id, start, end)
	return nil
}

// commitE2E reports the commit metrics of a window. The p99s go into the
// run's record only: on a 2-core host they spread too far from run to run
// for a bound (see README.md).
func commitE2E(o *outcome, p *phase) {
	o.set("commit_p50_ms", p.commitMs.q(0.5))
	o.set("commit_p99_ms", p.commitMs.q(0.99))
	o.set("commit_rows_per_s", p.rate(func(s sliceRec) int64 { return s.rows }))
	o.note("commit_samples", fmt.Sprint(p.commitMs.len()))
}

func whatifE2E(o *outcome, p *phase) {
	o.set("whatif_p50_ms", p.whatifMs.q(0.5))
	o.set("whatif_p99_ms", p.whatifMs.q(0.99))
	o.set("whatif_sets_per_s", p.rate(func(s sliceRec) int64 { return s.sets }))
	o.note("whatif_samples", fmt.Sprint(p.whatifMs.len()))
}

// heapMB is the live heap after two forced collections (the second empties
// the sync.Pool victim caches the first leaves). Callers flush the store
// first, so no pending spill's bytes are counted.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerMetrics derives the per-layer metrics of a traced window.
func layerMetrics(o *outcome, p *phase) {
	commits := float64(p.commitMs.len())
	o.set("service.commit_overhead_ms", p.commitOverMs.q(0.5))
	o.set("service.create_overhead_ms", p.createOverMs.q(0.5))
	o.set("service.wire_bytes_per_commit", ratio(float64(p.delta.wire), commits))
	o.set("core.update_ms", p.updateMs.q(0.5))
	o.set("core.update_p99_ms", p.updateMs.q(0.99))
	o.set("core.update_share", ratio(p.updateMs.sum(), p.commitOverMs.sum()+p.updateMs.sum()))
	o.set("core.capture_ms", p.captureMs.q(0.5))
	whatifLayer(o, p)
	o.set("gen_late_ms", p.lateMs.q(0.5))
	o.set("par.inline_ratio", ratio(float64(p.delta.inline), float64(p.delta.dispatches+p.delta.inline)))

	spans := p.rec.all()
	var handler, get, put, del samples
	for _, s := range spans {
		switch s.Name {
		case "handler":
			handler.add(s.dur())
		case "store.get":
			get.add(s.dur())
		case "store.put":
			put.add(s.dur())
		case "store.delete":
			del.add(s.dur())
		}
	}
	o.set("service.handler_ms", handler.q(0.5))
	o.set("store.get_us", get.q(0.5)*1e3)
	o.set("store.get_p99_ms", get.q(0.99))
	o.set("store.put_ms", put.q(0.5))
	o.set("store.delete_ms", del.q(0.5))
	self, ops := selfTimes(spans)
	for _, l := range []string{"service", "store", "core"} {
		o.set("self_ms."+l, ratio(self[l], float64(ops)))
	}

	if p.srv == nil {
		return
	}
	d := p.delta
	spills := float64(d.spills)
	o.set("store.resident_hit_ratio", 1-ratio(float64(d.restores), float64(d.gets)))
	o.set("store.spills_per_commit", ratio(spills, commits))
	o.set("store.delta_spill_ratio", ratio(float64(d.deltaSpills), spills))
	o.set("store.stale_spills_per_commit", ratio(float64(d.stale), commits))
	o.set("store.compactions_per_commit", ratio(float64(d.compactions), commits))
	o.set("store.spill_queue_full", float64(d.queueFull))
	o.set("store.spill_dir_bytes_per_live_session", ratio(float64(p.srv.spillDirBytes()), float64(p.last.Resident+p.last.Spilled)))
	hist := func(name string) histSnap { return d.hists[name] }
	restore := hist("priu_store_restore_seconds")
	o.set("store.restore_ms", restore.quantile(0.5)*1e3)
	o.set("store.restore_p99_ms", restore.quantile(0.99)*1e3)
	o.set("store.spill_ms", hist("priu_store_spill_seconds").quantile(0.5)*1e3)
	o.set("store.fsync_ms", hist("priu_store_fsync_seconds").quantile(0.5)*1e3)
	o.set("store.compaction_ms", hist("priu_store_compaction_seconds").quantile(0.5)*1e3)
}

// whatifLayer derives the what-if per-layer metrics of a phase from the
// figures the service reports on the wire.
func whatifLayer(o *outcome, p *phase) {
	o.set("core.whatif_eval_ms", p.evalMs.q(0.5))
	o.set("core.whatif_cache_hits_per_set", ratio(float64(p.cacheHits.Load()), float64(p.whatifSets.Load())))
	o.set("core.whatif_incremental_ratio", ratio(float64(p.increment.Load()), float64(p.whatifs.Load())))
}

// selfTimes links the spans into trees and sums each layer's self time: a
// span's duration minus the part of it its children cover. Children are
// found by request ID or session ID and time containment (the innermost
// containing span wins). Only trees rooted at a client operation count;
// ops is the number of those roots.
func selfTimes(spans []span) (map[string]float64, int) {
	byKey := map[string][]int{}
	for i, s := range spans {
		if s.Req != "" {
			byKey["r"+s.Req] = append(byKey["r"+s.Req], i)
		}
		if s.Sess != "" {
			byKey["s"+s.Sess] = append(byKey["s"+s.Sess], i)
		}
	}
	idx := map[int]int{}
	for i, s := range spans {
		idx[s.ID] = i
	}
	parent := make([]int, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if s.Parent != 0 {
			if j, ok := idx[s.Parent]; ok {
				parent[i] = j
			}
			continue
		}
		if s.Layer == "op" {
			continue
		}
		best := -1
		for _, key := range []string{"r" + s.Req, "s" + s.Sess} {
			if len(key) == 1 {
				continue
			}
			for _, j := range byKey[key] {
				c := spans[j]
				if j == i || c.Start > s.Start || c.End < s.End || c.dur() <= s.dur() {
					continue
				}
				if best < 0 || c.dur() < spans[best].dur() {
					best = j
				}
			}
		}
		parent[i] = best
		spans[i].Parent = 0
		if best >= 0 {
			spans[i].Parent = spans[best].ID
		}
	}
	children := make([][]int, len(spans))
	for i, pi := range parent {
		if pi >= 0 {
			children[pi] = append(children[pi], i)
		}
	}
	layer := func(s span) string {
		if s.Layer == "op" {
			return "service"
		}
		return s.Layer
	}
	self := map[string]float64{}
	ops := 0
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
			walk(c)
		}
		self[layer(s)] += s.dur() - float64(covered(iv))/1e6
	}
	for i, s := range spans {
		if parent[i] < 0 && s.Layer == "op" {
			ops++
			walk(i)
		}
	}
	return self, ops
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, rec *recorder) error {
	spans := rec.all()
	selfTimes(spans) // fills in the linked parents
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// window describes a workload's measured window as a sequence of slices.
// load runs one slice of the workload's own load on p (a fixed amount of
// work, or a fixed time for an open loop). probe, when set, runs the
// workload's probe work after every slice: the operations the load itself
// does not make, measured untraced. atBoundary reports whether the window may
// end after the slice just run; closed loops end at a schedule boundary, so
// every window covers the same spread of log lengths. perSchedule is the
// number of slices one such schedule takes (1 for an open loop). slices, when
// positive, fixes the number of slices instead of --seconds, so an open
// loop's schedule is a pure function of the seed.
type window struct {
	load        func(p *phase)
	probe       func() error
	atBoundary  func() bool
	perSchedule int
	slices      int
}

// measure runs the measured window: slices of load, each followed by the
// probe work, until --seconds have passed and the load is at a boundary.
// The host's slow and fast spells last seconds, so spreading every metric's
// samples over the whole window, rather than measuring each in one block, is
// what keeps a run's figures steady. Untraced, span recording stays off.
// Traced, whole schedules alternate untraced and traced, and the run reports
// trace_overhead_pct as the median, over traced slices, of the slice's median
// primary latency against that of the slices at the same place in the
// neighbouring untraced schedules (a slice's latency depends on where in its
// schedule it runs). It returns the untraced window and the traced one (nil
// when untraced), or the first error of a probe.
func measure(cfg runConfig, o *outcome, srv *server, rec *recorder, primary func(*phase) *samples, w window) (*phase, *phase, error) {
	per := max(w.perSchedule, 1)
	u := newPhase(srv, rec)
	u.unit = per
	var t *phase
	if cfg.trace {
		t = newPhase(srv, rec)
		t.unit = per
	}
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	more := func(i int) bool {
		if w.slices > 0 {
			return i < w.slices
		}
		return time.Now().Before(end) || !w.atBoundary()
	}
	traced := func(i int) bool { return cfg.trace && (i/per)%2 == 1 }
	var meds []float64 // median primary latency per slice
	for i := 0; more(i); i++ {
		p := u
		if traced(i) {
			p = t
		}
		from := primary(p).len()
		runtime.GC()
		p.begin()
		rec.on.Store(traced(i))
		w.load(p)
		rec.on.Store(false)
		p.finish()
		if p.failed.Load() > 0 {
			break // a failed slice may leave the load off its boundary
		}
		meds = append(meds, quantile(primary(p).values()[from:], 0.5))
		if w.probe != nil {
			if err := w.probe(); err != nil {
				return nil, nil, err
			}
		}
	}
	if cfg.trace {
		var ratios []float64
		for i, m := range meds {
			if !traced(i) {
				continue
			}
			var sum, n float64
			for _, j := range []int{i - per, i + per} {
				if j >= 0 && j < len(meds) && meds[j] > 0 {
					sum, n = sum+meds[j], n+1
				}
			}
			if n > 0 && m > 0 {
				ratios = append(ratios, m/(sum/n))
			}
		}
		o.set("trace_overhead_pct", 100*(median(ratios)-1))
	}
	return u, t, nil
}

// finishTrace writes the traced window's spans and derives its metrics.
func finishTrace(o *outcome, cfg runConfig, name string, t *phase) {
	layerMetrics(o, t)
	if err := writeSpans(filepath.Join(cfg.out, name+".spans.jsonl"), t.rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
}

// setups times a workload's set-up: rounds at the start of the run, and
// more rounds during the window (again), each torn down at once. setup_s is
// the median over all of them, so a slow spell of the host at the start of a
// run does not decide it.
type setups[T any] struct {
	setup    func(round int) (T, error)
	teardown func(T)
	times    []float64
}

// round runs one set-up on a collected heap, so every round starts alike.
func (s *setups[T]) round() (T, error) {
	runtime.GC()
	start := time.Now()
	v, err := s.setup(len(s.times))
	s.times = append(s.times, time.Since(start).Seconds())
	return v, err
}

// again runs one more round and tears it down.
func (s *setups[T]) again() error {
	v, err := s.round()
	if err != nil {
		return err
	}
	s.teardown(v)
	return nil
}

// seconds is the median set-up time over all rounds.
func (s *setups[T]) seconds() float64 { return median(s.times) }

// setupRounds runs setup n times and returns the result of the last round
// and the rounds' timer. Each earlier round is torn down before the next one
// starts.
func setupRounds[T any](n int, setup func(round int) (T, error), teardown func(T)) (T, *setups[T], error) {
	s := &setups[T]{setup: setup, teardown: teardown}
	var last T
	for r := 0; r < n; r++ {
		if r > 0 {
			teardown(last)
			var zero T
			last = zero
		}
		v, err := s.round()
		if err != nil {
			return last, nil, err
		}
		last = v
	}
	return last, s, nil
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
