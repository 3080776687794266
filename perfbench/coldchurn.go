package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/priu"
	"repro/priu/client"
	"repro/priu/service"
)

// cold-churn: an open loop at a fixed rate over 64 small sessions (n=600,
// m=16) chosen Zipf-popular (s=1.1), cycling through the registered families
// (sparse-logistic uploaded as CSR), with a resident budget of 8 sessions.
// Each operation opens a deletion stream, commits one 2-row batch and closes
// it; a session whose log reaches 20% of n is retired (DELETE) and replaced
// (create). The working set is 8× the resident tier, so about a quarter of
// the lookups restore a base+delta chain: the store does most of the work.
const (
	churnSlots    = 64
	churnResident = 8
	churnN        = 600
	churnM        = 16
	churnBatch    = 2
	churnCapFrac  = 0.2
	churnZipfS    = 1.1
	// churnRate is the open-loop rate (operations per second), about half of
	// the closed-loop capacity of one client on a 2-core host.
	churnRate = 120
	// churnSlice of open loop makes one slice of the window; a run makes
	// one slice per second of --seconds.
	churnSlice = time.Second
	// churnWhatIfProbe what-if batches per client after every slice measure
	// previews on mostly cold sessions.
	churnWhatIfProbe = 50
	// churnSample live sessions are checked against a direct capture.
	churnSample = 8
)

var churnHyper = hyper{eta: 0.02, lambda: 0.01, batch: 60, iter: 40}

// churnSlot is one popularity rank: its current session, the generation of
// that session's data, and the rows committed so far. mu serializes the
// operations on one slot, as one user would.
type churnSlot struct {
	mu      sync.Mutex
	family  string
	gen     int
	id      string
	req     service.CreateSessionRequest
	rows    []int // this generation's deletion schedule
	log     int   // rows committed
	retired []string
}

func churnRequest(seed int64, slot, gen int, family string) (service.CreateSessionRequest, error) {
	return sessionData(family, churnN, churnM, churnHyper, seed*100_003+int64(slot)*101+int64(gen))
}

func runColdChurn(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	rec := newRecorder()
	ctx := context.Background()
	families := priu.Families()
	setupPh := newPhase(nil, rec)
	type state struct {
		srv   *server
		slots []*churnSlot
		cls   []*client.Client
	}
	st, setup, err := setupRounds(5, func(round int) (state, error) {
		srv, err := startServer(filepath.Join(cfg.dir, fmt.Sprintf("setup%d", round)), churnResident, rec)
		if err != nil {
			return state{}, err
		}
		s := state{srv: srv, slots: make([]*churnSlot, churnSlots), cls: []*client.Client{srv.client(), srv.client()}}
		var firstErr atomic.Value
		parallel(len(s.cls), func(c int) {
			for i := c; i < churnSlots; i += len(s.cls) {
				fam := families[i%len(families)]
				req, err := churnRequest(cfg.seed, i, 0, fam)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				sr, err := setupPh.create(ctx, s.cls[c], req)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				s.slots[i] = &churnSlot{family: fam, id: sr.SessionID, req: req,
					rows: perm(churnN, cfg.seed*31+int64(i)*7)}
			}
		})
		if e, ok := firstErr.Load().(error); ok {
			srv.stop()
			return state{}, e
		}
		return s, nil
	}, func(s state) { s.srv.stop() })
	if err != nil {
		return nil, err
	}
	srv := st.srv
	defer srv.stop()
	o.set("setup_s", setup.seconds())

	// update_ms.* cells: the first slot of each family on a fixed 10% prefix
	// of its first schedule, so the cells do not depend on where the
	// schedule stopped.
	var cells []cell
	for _, sl := range st.slots[:len(families)] {
		d, err := newDirect(sl.req)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{d, sl.rows[:churnN/10]})
	}
	upd, err := newUpdateTimer(cells)
	if err != nil {
		return nil, err
	}

	// The schedule is a pure function of the seed: a slice's operation k is
	// due k/churnRate seconds after the slice starts and targets the next
	// Zipf-drawn slot.
	zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed)), churnZipfS, 1, churnSlots-1)
	load := func(p *phase) {
		total := int(churnSlice.Seconds() * churnRate)
		picks := make([]int, total)
		for k := range picks {
			picks[k] = int(zipf.Uint64())
		}
		var nextOp atomic.Int64
		parallel(len(st.cls), func(c int) {
			cl := st.cls[c]
			for {
				k := int(nextOp.Add(1)) - 1
				if k >= total {
					return
				}
				due := p.start.Add(time.Duration(float64(k) / churnRate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				p.lateMs.add(float64(time.Since(due).Nanoseconds()) / 1e6)
				churnOp(ctx, p, cl, st.slots[picks[k]], picks[k], cfg.seed, due)
			}
		})
	}
	// The probe previews uniformly drawn sessions, so most of them restore
	// their session first: 2 clients, each on its own seeded sequence.
	probe := newPhase(srv, rec)
	rngs := []*rand.Rand{rand.New(rand.NewSource(cfg.seed * 3)), rand.New(rand.NewSource(cfg.seed*3 + 1))}
	var previews int
	whatifProbe := func() error {
		probe.begin()
		parallel(len(st.cls), func(c int) {
			for k := 0; k < churnWhatIfProbe; k++ {
				s := st.slots[rngs[c].Intn(churnSlots)]
				// Candidates come from the end of the slot's schedule, which
				// the 20% cap never reaches.
				if _, err := probe.whatif(ctx, st.cls[c], s.id, churnWhatIfSets(s.rows, previews+k*len(st.cls)+c)); err != nil {
					return
				}
			}
		})
		probe.finish()
		previews += churnWhatIfProbe * len(st.cls)
		srv.tiered.Flush() // time the cells with no spill running beside them
		return upd.pass()
	}
	w := window{load: load, probe: whatifProbe, slices: int(cfg.seconds)}
	window, traced, err := measure(cfg, o, srv, rec, func(p *phase) *samples { return &p.commitMs }, w)
	if err != nil {
		return nil, err
	}
	commitE2E(o, window)
	whatifE2E(o, probe)
	o.note("whatif_probe_restores", fmt.Sprintf("%d restores, %d gets", probe.delta.restores, probe.delta.gets))
	upd.report(o)
	// The families' capture costs differ, so create_p50_ms is the geometric
	// mean over families of each family's median set-up create.
	o.set("create_p50_ms", setupPh.createByFamily.geomeanOfMedians())
	if traced != nil {
		finishTrace(o, cfg, "cold-churn", traced)
	}

	phases := []*phase{setupPh, window, probe}
	if traced != nil {
		phases = append(phases, traced)
	}
	for _, p := range phases {
		o.attempted += p.attempted.Load()
		o.failed += p.failed.Load()
	}
	srv.tiered.Flush()
	o.set("heap_mb", heapMB())
	if err := churnChecks(ctx, o, st.cls[0], st.slots, cfg.seed); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := timeKernels(o, kernelShape{m: churnM, b: churnHyper.batch, rows: churnN, cols: churnM, nnz: 4}, cfg.seed); err != nil {
			return nil, err
		}
	}
	o.note("workload", fmt.Sprintf("open loop %d ops/s, %d sessions n=%d m=%d, Zipf s=%.1f, resident budget %d", churnRate, churnSlots, churnN, churnM, churnZipfS, churnResident))
	return o, nil
}

// churnOp commits one batch on the slot's session in its own stream, then
// retires and replaces the session if its log reached the cap.
func churnOp(ctx context.Context, p *phase, cl *client.Client, s *churnSlot, slot int, seed int64, due time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req := p.rec.reqID()
	ds, err := cl.StreamDeletions(withReq(ctx, req), s.id)
	if err != nil {
		p.fail(err)
		return
	}
	batch := s.rows[s.log : s.log+churnBatch]
	_, err = p.commit(ds, s.id, req, batch, due)
	if cerr := ds.Close(); err == nil && cerr != nil {
		p.fail(cerr)
		return
	}
	if err != nil {
		return
	}
	s.log += churnBatch
	if s.log < int(churnCapFrac*churnN) {
		return
	}
	if err := p.deleteSession(ctx, cl, s.id); err != nil {
		return
	}
	s.retired = append(s.retired, s.id)
	s.gen++
	nreq, err := churnRequest(seed, slot, s.gen, s.family)
	if err != nil {
		p.fail(err)
		return
	}
	sr, err := p.create(ctx, cl, nreq)
	if err != nil {
		return
	}
	s.id, s.req, s.log = sr.SessionID, nreq, 0
	s.rows = perm(churnN, seed*31+int64(slot)*7+int64(s.gen)*1_000_003)
}

// churnWhatIfSets is 8 sets of 2 rows sharing 1 row, from the tail of the
// slot's schedule.
func churnWhatIfSets(rows []int, k int) [][]int {
	tail := rows[len(rows)-64:]
	shared := tail[k%8]
	out := make([][]int, 8)
	for s := range out {
		out[s] = []int{shared, tail[8+(k+s)%56]}
	}
	return out
}

// churnChecks checks a seeded sample of live sessions against a direct
// capture plus Update of their acknowledged logs and checks that every
// retired session is gone.
func churnChecks(ctx context.Context, o *outcome, cl *client.Client, slots []*churnSlot, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 2))
	bad := 0
	for _, i := range rng.Perm(len(slots))[:churnSample] {
		s := slots[i]
		sr, err := cl.GetSession(ctx, s.id)
		if err != nil {
			return fmt.Errorf("reading %s: %w", s.id, err)
		}
		log := s.rows[:s.log]
		d, err := newDirect(s.req)
		if err != nil {
			return err
		}
		ok, err := d.matches(sr.Parameters, log)
		if err != nil {
			return err
		}
		if !ok || sr.TotalDeleted != len(log) {
			bad++
		}
	}
	o.check("sample_matches_log", bad == 0, "%d of %d sampled sessions match a direct TrainConfig+Update of the acknowledged log", churnSample-bad, churnSample)
	gone, retired := 0, 0
	for _, s := range slots {
		for _, id := range s.retired {
			retired++
			if _, err := cl.GetSession(ctx, id); client.IsNotFound(err) {
				gone++
			}
		}
	}
	o.check("retired_sessions_404", gone == retired, "%d of %d retired sessions return 404", gone, retired)
	return nil
}
