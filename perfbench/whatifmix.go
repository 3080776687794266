package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/priu/client"
	"repro/priu/service"
)

// whatif-mix: a closed loop of 2 clients on one logistic-opt session
// (n=20000, m=48). One client sends what-if batches of 8 candidate sets that
// share a 24-row prefix and add 4 distinct rows each, drawn from rows the
// committer never touches; the other commits 4-row batches on a fixed
// schedule. Reads and writes share internal/core state, so a commit-path
// change that slows previews (or the reverse) shows up here. A preview walks
// the whole committed log, so its cost grows with the log: when the log
// reaches 5% of n the session is retired and replaced on the same data,
// which keeps the spread of log lengths, and so the latencies, steady.
const (
	mixN     = 20000
	mixM     = 48
	mixBatch = 4
	mixCap   = mixN / 20 // rows per schedule: 5% of n
	// mixSliceBatches committed batches make one slice of the window: a
	// fifth of a schedule.
	mixSliceBatches = mixCap / mixBatch / 5
	// Every mixDigestEvery-th what-if batch has its first set's digest
	// checked against a direct Update.
	mixDigestEvery = 8
)

var mixHyper = hyper{eta: 0.05, lambda: 0.01, batch: 500, iter: 100}

// mixSession is the session both clients target. Between slices the
// committer swaps in a replacement under the write lock; a what-if holds the
// read lock while it runs.
type mixSession struct {
	mu    sync.RWMutex
	id    string
	cycle int
}

type digestSample struct {
	cycle     int
	total     int
	candidate []int
	digest    string
}

func runWhatIfMix(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	rec := newRecorder()
	ctx := context.Background()
	rows := perm(mixN, cfg.seed*999_983)
	commitRows, whatifRows := rows[:mixN/2], rows[mixN/2:]
	// Cycle c commits a seeded reordering of the committer's rows, up to
	// the cap.
	schedule := func(c int) []int {
		p := perm(len(commitRows), cfg.seed*17+int64(c))
		out := make([]int, mixCap)
		for i := range out {
			out[i] = commitRows[p[i]]
		}
		return out
	}
	var req service.CreateSessionRequest
	setupPh := newPhase(nil, rec)
	type state struct {
		srv    *server
		cw, cc *client.Client
		sess   *mixSession
	}
	st, setup, err := setupRounds(5, func(round int) (state, error) {
		srv, err := startServer(filepath.Join(cfg.dir, fmt.Sprintf("setup%d", round)), 0, rec)
		if err != nil {
			return state{}, err
		}
		if req, err = sessionData("logistic-opt", mixN, mixM, mixHyper, cfg.seed*1000+7); err != nil {
			srv.stop()
			return state{}, err
		}
		s := state{srv: srv, cw: srv.client(), cc: srv.client()}
		sr, err := setupPh.create(ctx, s.cc, req)
		if err != nil {
			srv.stop()
			return state{}, err
		}
		s.sess = &mixSession{id: sr.SessionID}
		return s, nil
	}, func(s state) { s.srv.stop() })
	if err != nil {
		return nil, err
	}
	srv := st.srv
	defer srv.stop()
	o.set("setup_s", setup.seconds())

	d, err := newDirect(req)
	if err != nil {
		return nil, err
	}
	upd, err := newUpdateTimer([]cell{{d, schedule(0)}, {d, schedule(1)}, {d, schedule(2)}, {d, schedule(3)}})
	if err != nil {
		return nil, err
	}

	var (
		done    []finished
		digests []digestSample
		whatifK int // the previewer's batch counter
		pos     int // rows of the current schedule committed
	)
	s := st.sess
	// commitSlice commits the next mixSliceBatches batches of the current
	// schedule on one deletion stream.
	commitSlice := func(p *phase) {
		rq := p.rec.reqID()
		ds, err := st.cc.StreamDeletions(withReq(ctx, rq), s.id)
		if err != nil {
			p.fail(err)
			return
		}
		sched := schedule(s.cycle)
		for k := 0; k < mixSliceBatches; k++ {
			if _, err := p.commit(ds, s.id, rq, sched[pos:pos+mixBatch], time.Now()); err != nil {
				ds.Close()
				return
			}
			pos += mixBatch
		}
		if err := ds.Close(); err != nil {
			p.fail(err)
		}
	}
	// retireSession runs between slices, once the schedule is complete: it
	// creates the replacement, swaps it in, then reads and deletes the old
	// session. No preview runs then and the heap has just been collected, so
	// every replacement create meets the same conditions.
	retire := newPhase(srv, rec)
	retireSession := func() error {
		if pos < mixCap {
			return nil
		}
		runtime.GC()
		next, err := retire.create(ctx, st.cc, req)
		if err != nil {
			return err
		}
		id := s.id
		s.mu.Lock()
		s.id, s.cycle = next.SessionID, s.cycle+1
		s.mu.Unlock()
		pos = 0
		fin, err := st.cc.GetSession(ctx, id)
		if err != nil {
			retire.fail(err)
			return err
		}
		done = append(done, finished{id: id, log: schedule(s.cycle - 1), params: fin.Parameters, retired: true})
		return retire.deleteSession(ctx, st.cc, id)
	}
	previewer := func(p *phase, stop *atomic.Bool) {
		for ; !stop.Load(); whatifK++ {
			sets := whatifSets(whatifRows, whatifK)
			s.mu.RLock()
			id, cycle := s.id, s.cycle
			rep, err := p.whatif(ctx, st.cw, id, sets)
			s.mu.RUnlock()
			if err != nil {
				return
			}
			if whatifK%mixDigestEvery == 0 && rep.Outcomes[0].Result != nil {
				r := rep.Outcomes[0].Result
				digests = append(digests, digestSample{cycle: cycle, total: r.TotalDeleted, candidate: sets[0], digest: r.Digest})
			}
		}
	}
	w := window{
		load: func(p *phase) {
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { defer wg.Done(); previewer(p, &stop) }()
			commitSlice(p)
			stop.Store(true)
			wg.Wait()
		},
		probe: func() error {
			if err := retireSession(); err != nil {
				return err
			}
			srv.tiered.Flush() // time the cells with no spill running beside them
			return upd.pass()
		},
		atBoundary:  func() bool { return pos == 0 },
		perSchedule: mixCap / mixBatch / mixSliceBatches,
	}
	window, traced, err := measure(cfg, o, srv, rec, func(p *phase) *samples { return &p.whatifMs }, w)
	if err != nil {
		return nil, err
	}
	commitE2E(o, window)
	// Only the replacements count: set-up creates run on a fresh server, a
	// second population whose share would move the median.
	o.set("create_p50_ms", retire.createMs.q(0.5))
	whatifE2E(o, window)
	upd.report(o)
	if traced != nil {
		finishTrace(o, cfg, "whatif-mix", traced)
	}
	for _, p := range []*phase{setupPh, retire, window, traced} {
		if p != nil {
			o.attempted += p.attempted.Load()
			o.failed += p.failed.Load()
		}
	}

	sr, err := st.cc.GetSession(ctx, s.id)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", s.id, err)
	}
	done = append(done, finished{id: s.id, log: schedule(s.cycle)[:sr.TotalDeleted], params: sr.Parameters})
	srv.tiered.Flush()
	o.set("heap_mb", heapMB())
	if err := checkFinished(o, []*direct{d}, done); err != nil {
		return nil, err
	}
	bad := 0
	for _, smp := range digests {
		prefix := schedule(smp.cycle)[:smp.total-len(smp.candidate)]
		dg, err := d.digest(prefix, smp.candidate)
		if err != nil {
			return nil, err
		}
		if dg != smp.digest {
			bad++
		}
	}
	o.check("whatif_digests", bad == 0 && len(digests) > 0, "%d of %d sampled what-if digests equal a direct Update of committed prefix ∪ candidate", len(digests)-bad, len(digests))
	if cfg.trace {
		if err := timeKernels(o, kernelShape{m: mixM, b: mixHyper.batch, rows: 2000, cols: 4096, nnz: 32}, cfg.seed); err != nil {
			return nil, err
		}
	}
	o.note("workload", fmt.Sprintf("1 committer (%d-row batches) + 1 previewer (8 sets, 24-row shared prefix + 4 rows), logistic-opt n=%d m=%d", mixBatch, mixN, mixM))
	return o, nil
}
