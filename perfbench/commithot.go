package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/priu/client"
	"repro/priu/service"
)

// commit-hot: a closed loop of 2 NDJSON deletion streams, one per core, each
// owning one resident logistic-opt session (n=20000, m=32). Each stream
// commits a seeded schedule of 4-row batches until 20% of n is deleted, so
// later batches carry a long cumulative log; the session is then retired
// (DELETE) and replaced by a fresh one on the same data, and the next
// schedule starts. Updater.Update and the service path do most of the work;
// store lookups are resident hits while write-behind spill and compaction
// compete for the cores in the background.
const (
	hotStreams = 2
	hotN       = 20000
	hotM       = 32
	hotBatch   = 4
	hotCap     = hotN / 5 // rows per schedule: 20% of n
	// hotSliceBatches batches per stream make one slice of the window: a
	// quarter of a schedule.
	hotSliceBatches = hotCap / hotBatch / 4
	// hotWhatIfProbe what-if batches per stream after every slice measure
	// previews (the load itself only commits).
	hotWhatIfProbe = 100
)

var hotHyper = hyper{eta: 0.05, lambda: 0.01, batch: 500, iter: 100}

// finished is one session's acknowledged deletion log and the parameters
// the service reported for it at the end.
type finished struct {
	stream  int
	id      string
	log     []int
	params  []float64
	retired bool
}

type hotStream struct {
	cl     *client.Client
	req    service.CreateSessionRequest
	id     string
	cycle  int // schedules completed
	pos    int // rows of the current schedule committed
	whatif int // what-if batches sent
}

func runCommitHot(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	rec := newRecorder()
	ctx := context.Background()
	reqs := make([]service.CreateSessionRequest, hotStreams)
	setupPh := newPhase(nil, rec)
	type state struct {
		srv     *server
		streams []*hotStream
	}
	st, setup, err := setupRounds(5, func(round int) (state, error) {
		srv, err := startServer(filepath.Join(cfg.dir, fmt.Sprintf("setup%d", round)), 0, rec)
		if err != nil {
			return state{}, err
		}
		s := state{srv: srv, streams: make([]*hotStream, hotStreams)}
		errs := make([]error, hotStreams)
		parallel(hotStreams, func(i int) {
			req, err := sessionData("logistic-opt", hotN, hotM, hotHyper, cfg.seed*1000+int64(i))
			if err != nil {
				errs[i] = err
				return
			}
			reqs[i] = req
			cl := srv.client()
			sr, err := setupPh.create(ctx, cl, req)
			if err != nil {
				errs[i] = err
				return
			}
			s.streams[i] = &hotStream{cl: cl, req: req, id: sr.SessionID}
		})
		for _, e := range errs {
			if e != nil {
				srv.stop()
				return state{}, e
			}
		}
		return s, nil
	}, func(s state) { s.srv.stop() })
	if err != nil {
		return nil, err
	}
	srv := st.srv
	defer srv.stop()

	// Direct captures: the references for the output checks, and the
	// update_ms.* cells (each stream's first two whole schedules).
	refs := make([]*direct, hotStreams)
	var cells []cell
	for i, req := range reqs {
		if refs[i], err = newDirect(req); err != nil {
			return nil, err
		}
		for c := 0; c < 2; c++ {
			cells = append(cells, cell{refs[i], hotPerm(cfg.seed, i, c)[:hotCap]})
		}
	}
	upd, err := newUpdateTimer(cells)
	if err != nil {
		return nil, err
	}
	// The preview session takes the what-if probe. It is a third resident
	// session on stream 0's data that no stream commits to, so a preview's
	// cost does not depend on where the schedules stand.
	pv, err := newPhase(nil, rec).create(ctx, st.streams[0].cl, reqs[0])
	if err != nil {
		return nil, err
	}
	preview, previewRows := pv.SessionID, perm(hotN, cfg.seed*7)

	var (
		mu     sync.Mutex
		done   []finished
		series = make([][]seriesPoint, hotStreams)
	)
	probe, retire := newPhase(srv, rec), newPhase(srv, rec)
	w := window{
		load: func(p *phase) {
			parallel(hotStreams, func(i int) {
				pts := hotSlice(ctx, p, st.streams[i], cfg.seed, i)
				mu.Lock()
				series[i] = append(series[i], pts...)
				mu.Unlock()
			})
		},
		// Streams that completed their schedule retire their session and
		// create its replacement, one at a time on a collected heap, so every
		// replacement create meets the same conditions, and one more set-up
		// round runs. Then, with no spill running, both streams' clients send
		// what-if batches of 8 sets sharing a 24-row prefix plus 4 rows each
		// to the preview session, and update_ms.* makes a pass.
		probe: func() error {
			for i, s := range st.streams {
				if f := hotRetire(ctx, retire, s, cfg.seed, i); f != nil {
					done = append(done, *f)
				}
			}
			if retire.failed.Load() > 0 {
				return fmt.Errorf("retiring a completed session: %s", retire.firstErr.Load())
			}
			if st.streams[0].pos == 0 {
				if err := setup.again(); err != nil {
					return err
				}
			}
			srv.tiered.Flush()
			runtime.GC()
			probe.begin()
			parallel(hotStreams, func(i int) {
				s := st.streams[i]
				for k := 0; k < hotWhatIfProbe; k++ {
					if _, err := probe.whatif(ctx, s.cl, preview, whatifSets(previewRows, s.whatif)); err != nil {
						return
					}
					s.whatif++
				}
			})
			probe.finish()
			return upd.pass()
		},
		atBoundary:  func() bool { return st.streams[0].pos == 0 },
		perSchedule: hotCap / hotBatch / hotSliceBatches,
	}
	window, traced, err := measure(cfg, o, srv, rec, func(p *phase) *samples { return &p.commitMs }, w)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup.seconds())
	commitE2E(o, window)
	whatifE2E(o, probe)
	upd.report(o)
	// Only the replacements count: set-up creates run on a fresh server, a
	// second population whose share would move the median.
	o.set("create_p50_ms", retire.createMs.q(0.5))
	if traced != nil {
		finishTrace(o, cfg, "commit-hot", traced)
		whatifLayer(o, probe) // the load itself sends no what-ifs
	}
	for _, p := range []*phase{setupPh, probe, retire, window, traced} {
		if p != nil {
			o.attempted += p.attempted.Load()
			o.failed += p.failed.Load()
		}
	}

	// The live sessions' final state, then the checks.
	for i, s := range st.streams {
		sr, err := s.cl.GetSession(ctx, s.id)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", s.id, err)
		}
		log := hotPerm(cfg.seed, i, s.cycle)[:sr.TotalDeleted]
		done = append(done, finished{stream: i, id: s.id, log: log, params: sr.Parameters})
	}
	srv.tiered.Flush()
	o.set("heap_mb", heapMB())
	x, err := writeSeries(filepath.Join(cfg.out, "commit-hot.update_series.csv"), series)
	if err != nil {
		return nil, err
	}
	o.set("core.update_us_per_krow", x)
	if err := checkFinished(o, refs, done); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := timeKernels(o, kernelShape{m: hotM, b: hotHyper.batch, rows: 2000, cols: 4096, nnz: 32}, cfg.seed); err != nil {
			return nil, err
		}
	}
	o.note("workload", fmt.Sprintf("%d streams, logistic-opt n=%d m=%d, %d-row batches to %d rows", hotStreams, hotN, hotM, hotBatch, hotCap))
	return o, nil
}

// hotPerm is the seeded permutation behind stream i's schedule c: its first
// hotCap rows are committed in order, hotBatch rows per batch, and the rest
// feed the what-if probe.
func hotPerm(seed int64, stream, cycle int) []int {
	return perm(hotN, seed*1_000_003+int64(stream)*10_007+int64(cycle))
}

type seriesPoint struct {
	session      string
	totalDeleted int
	updateSecs   float64
}

// hotSlice commits the stream's next hotSliceBatches batches on one deletion
// stream.
func hotSlice(ctx context.Context, p *phase, s *hotStream, seed int64, stream int) []seriesPoint {
	sched := hotPerm(seed, stream, s.cycle)[:hotCap]
	req := p.rec.reqID()
	ds, err := s.cl.StreamDeletions(withReq(ctx, req), s.id)
	if err != nil {
		p.fail(err)
		return nil
	}
	pts := make([]seriesPoint, 0, hotSliceBatches)
	for k := 0; k < hotSliceBatches; k++ {
		res, err := p.commit(ds, s.id, req, sched[s.pos:s.pos+hotBatch], time.Now())
		if err != nil {
			ds.Close()
			return pts
		}
		s.pos += hotBatch
		pts = append(pts, seriesPoint{s.id, res.TotalDeleted, res.UpdateSeconds})
	}
	if err := ds.Close(); err != nil {
		p.fail(err)
	}
	return pts
}

// hotRetire retires the stream's session once its schedule is complete: it
// reads the final parameters, deletes the session and creates its
// replacement on the same data. It returns the retired session's log and
// parameters, or nil when the schedule is not complete or an operation
// failed (the failure is recorded in p).
func hotRetire(ctx context.Context, p *phase, s *hotStream, seed int64, stream int) *finished {
	if s.pos < hotCap {
		return nil
	}
	fin, err := s.cl.GetSession(ctx, s.id)
	if err != nil {
		p.fail(err)
		return nil
	}
	f := &finished{stream: stream, id: s.id, log: hotPerm(seed, stream, s.cycle)[:hotCap], params: fin.Parameters, retired: true}
	if err := p.deleteSession(ctx, s.cl, s.id); err != nil {
		return nil
	}
	runtime.GC()
	next, err := p.create(ctx, s.cl, s.req)
	if err != nil {
		return nil
	}
	s.id, s.cycle, s.pos = next.SessionID, s.cycle+1, 0
	return f
}

// checkFinished checks every session's final parameters against a direct
// capture plus Update of its log; refs[i] is stream i's direct capture.
func checkFinished(o *outcome, refs []*direct, done []finished) error {
	bad, complete := 0, 0
	for _, f := range done {
		ok, err := refs[f.stream].matches(f.params, f.log)
		if err != nil {
			return err
		}
		if !ok {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: session %s parameters differ from a direct Update of its %d-row log\n", f.id, len(f.log))
		}
		if f.retired {
			complete++
		}
	}
	o.check("final_parameters_bitwise", bad == 0 && complete > 0, "%d of %d sessions (%d completed schedules) match a direct TrainConfig+Update", len(done)-bad, len(done), complete)
	return nil
}

// writeSeries writes the per-batch (total_deleted, update_seconds) series
// and returns its least-squares slope in µs per 1000 deleted rows.
func writeSeries(path string, series [][]seriesPoint) (float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "stream,session,total_deleted,update_seconds")
	var x, y []float64
	for i, pts := range series {
		for _, pt := range pts {
			fmt.Fprintf(w, "%d,%s,%d,%.9f\n", i, pt.session, pt.totalDeleted, pt.updateSecs)
			x = append(x, float64(pt.totalDeleted)/1000)
			y = append(y, pt.updateSecs*1e6)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return slope(x, y), f.Close()
}

// whatifSets builds the k-th what-if batch from rows: 8 candidate sets that
// share a 24-row prefix and add 4 distinct rows each.
func whatifSets(rows []int, k int) [][]int {
	const prefix, sets, extra = 24, 8, 4
	per := prefix + sets*extra
	off := (k * per) % (len(rows) - per)
	pre := rows[off : off+prefix]
	out := make([][]int, sets)
	for s := range out {
		set := append([]int(nil), pre...)
		out[s] = append(set, rows[off+prefix+s*extra:off+prefix+(s+1)*extra]...)
	}
	return out
}
