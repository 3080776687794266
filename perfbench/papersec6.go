package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/priu"
	"repro/priu/bench"
)

// paper-sec6: no service and no store. bench.Prepare runs on sgemm-original,
// higgs, cov-small and rcv1 at one fixed scale; every (method, deletion
// rate) cell of bench.DeletionRates is repeated for the window and its median
// taken. This is the paper's claim (PrIU and PrIU-opt against BaseL
// retraining) and it covers what the service workloads barely touch:
// capture, BaseL retraining in internal/gbm, non-opt cache updates and the
// sparse kernels. The commit, what-if and create metrics are the same
// operations made directly on the library: Update of a growing cumulative
// log, a WhatIfPlanner batch, and Prepare's capture.
const (
	paperScale = 0.5
	// paperCommitChunk library commits after every sweep pass: 2-row
	// batches on higgs PrIU-opt, the log growing over paperCommitCycle
	// chunks (300 rows, about 3% of n) and restarting.
	paperCommitChunk = 50
	paperCommitBatch = 2
	paperCommitCycle = 3
	// paperWhatIfChunk planner batches of 8 sets on higgs PrIU-opt after
	// every sweep pass.
	paperWhatIfChunk = 45
)

// paperWorkloads are the priu/bench workloads paper-sec6 runs.
var paperWorkloads = []string{"sgemm-original", "higgs", "cov-small", "rcv1"}

var paperMethods = []bench.Method{bench.MethodBaseL, bench.MethodPrIU, bench.MethodPrIUOpt}

type paperCell struct {
	workload string
	method   bench.Method
	rate     int
	times    []float64 // ms, untraced passes
	traced   []float64 // ms, traced passes
}

func runPaperSec6(cfg runConfig) (*outcome, error) {
	o := &outcome{}
	rec := newRecorder()
	prepMs := map[string][]float64{}
	prepare := func(id string) (*bench.Prepared, error) {
		w, err := bench.WorkloadByID(id)
		if err != nil {
			return nil, err
		}
		// The data is the workload's own, whatever the seed: how long
		// Prepare takes depends on the data (mostly cov-small's), so the seed
		// picks only the removal sets and the commit and what-if rows.
		w = w.Scale(paperScale)
		start := time.Now()
		p, err := bench.Prepare(w)
		if err != nil {
			return nil, fmt.Errorf("preparing %s: %w", id, err)
		}
		prepMs[id] = append(prepMs[id], float64(time.Since(start).Nanoseconds())/1e6)
		return p, nil
	}
	preps, _, err := setupRounds(3, func(int) (map[string]*bench.Prepared, error) {
		m := map[string]*bench.Prepared{}
		for _, id := range paperWorkloads {
			p, err := prepare(id)
			if err != nil {
				return nil, err
			}
			m[id] = p
		}
		return m, nil
	}, func(map[string]*bench.Prepared) {})
	if err != nil {
		return nil, err
	}

	var cells []*paperCell
	removals := map[[2]int][]int{}
	for wi, id := range paperWorkloads {
		p := preps[id]
		for ri, rate := range bench.DeletionRates {
			removals[[2]int{wi, ri}] = p.PickRemoval(rate, cfg.seed*1000+int64(ri))
			for _, m := range paperMethods {
				if hasMethod(p, m) {
					cells = append(cells, &paperCell{workload: id, method: m, rate: ri})
				}
			}
		}
	}
	// The first pass also compares every PrIU and PrIU-opt model with the
	// BaseL model of its cell.
	cosMin := math.Inf(1)
	var base *priu.Model
	pass := func(traced bool) error {
		for _, c := range cells {
			wi := indexOf(paperWorkloads, c.workload)
			p := preps[c.workload]
			start := time.Now()
			model, _, err := p.RunUpdate(c.method, removals[[2]int{wi, c.rate}])
			end := time.Now()
			if err != nil {
				return fmt.Errorf("%s %s: %w", c.workload, c.method, err)
			}
			ms := float64(end.Sub(start).Nanoseconds()) / 1e6
			if traced {
				c.traced = append(c.traced, ms)
				id := rec.reqID()
				op := rec.addOp("update."+string(c.method), c.workload, id, start, end)
				rec.add(span{Parent: op, Name: "core." + string(c.method), Layer: "core", Start: rec.since(start), End: rec.since(end), Sess: c.workload})
			} else {
				c.times = append(c.times, ms)
			}
			if len(c.times) == 1 && !traced {
				if c.method == bench.MethodBaseL {
					base = model
				} else {
					cmp, err := priu.Compare(model, base)
					if err != nil {
						return err
					}
					cosMin = math.Min(cosMin, cmp.Cosine)
				}
			}
		}
		return nil
	}
	// The window runs sweep passes, each followed by a chunk of direct
	// commits and what-ifs on higgs PrIU-opt, so every figure samples the
	// whole window. Traced, the passes alternate u t t u ...
	higgs := preps["higgs"]
	opt, _ := higgs.Updater(bench.MethodPrIUOpt)
	// One cycle of the commit log is paperCommitCycle chunks, and the window
	// ends on a cycle boundary, so every run and every schedule of slices
	// covers the same spread of log lengths.
	perChunk := paperCommitChunk * paperCommitBatch
	logRows := paperCommitCycle * perChunk
	commits := &libraryCommits{upd: opt, rows: perm(higgs.N(), cfg.seed*13)[:logRows]}
	previews := newLibraryWhatIfs(opt, higgs.N(), cfg.seed)
	commitPh, whatifPh, win := newPhase(nil, rec), newPhase(nil, rec), newPhase(nil, rec)
	commitPh.unit = logRows / perChunk
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline) || commits.pos < logRows; i++ {
		traced := cfg.trace && (i%4 == 1 || i%4 == 2)
		if traced {
			rec.on.Store(true)
			win.begin()
		}
		err := pass(traced)
		if traced {
			win.finish()
			rec.on.Store(false)
		}
		if err != nil {
			return nil, err
		}
		if err := commits.run(commitPh); err != nil {
			return nil, err
		}
		if err := previews.run(whatifPh); err != nil {
			return nil, err
		}
		// Every pass prepares one workload again, in turn, so the Prepare
		// times sample the whole window as well as set-up.
		if _, err := prepare(paperWorkloads[i%len(paperWorkloads)]); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	// The workloads' Prepare times differ several-fold, so a median over all
	// of them would jump between workloads; create_p50_ms is the geometric
	// mean of each workload's median instead, as update_ms.* is over cells.
	// Set-up prepares all four, so setup_s is the sum of the medians.
	var prepMedians []float64
	var setupMs float64
	for _, id := range paperWorkloads {
		prepMedians = append(prepMedians, median(prepMs[id]))
		setupMs += median(prepMs[id])
		o.set("gbm.prepare_ms."+id, median(prepMs[id]))
	}
	o.set("create_p50_ms", geomean(prepMedians))
	o.set("setup_s", setupMs/1e3)
	var attempted int64
	for _, c := range cells {
		attempted += int64(len(c.times) + len(c.traced))
	}
	o.check("cosine_vs_basel", cosMin >= 0.99, "lowest cosine of a PrIU or PrIU-opt model against BaseL is %.6f (threshold 0.99)", cosMin)
	o.set("paper.cosine_min", cosMin)
	paperTables(o, cells)
	if cfg.trace {
		layerMetrics(o, win)
		var u, t []float64
		for _, c := range cells {
			if c.method == bench.MethodPrIUOpt {
				u = append(u, median(c.times))
				t = append(t, median(c.traced))
			}
		}
		o.set("trace_overhead_pct", 100*(ratio(geomean(t), geomean(u))-1))
	}

	commitE2E(o, commitPh)
	whatifE2E(o, whatifPh)
	o.attempted = attempted + int64(commitPh.commitMs.len()+whatifPh.whatifMs.len())
	o.set("heap_mb", heapMB())
	runtime.KeepAlive(preps) // the heap figure includes the prepared workloads
	if cfg.trace {
		if err := timeKernels(o, kernelShape{m: 54, b: 200, rows: 1250, cols: 47236, nnz: 60}, cfg.seed); err != nil {
			return nil, err
		}
	}
	o.note("workload", fmt.Sprintf("bench.Prepare at scale %.2f on %v, %d cells", paperScale, paperWorkloads, len(cells)))
	return o, nil
}

func hasMethod(p *bench.Prepared, m bench.Method) bool {
	for _, x := range p.Methods() {
		if x == m {
			return true
		}
	}
	return false
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// paperTables reports update_ms.* (geometric mean over cells of the cell
// median) and paper.speedup.<method>.<workload> (geometric mean over rates
// of BaseL's median over the method's).
func paperTables(o *outcome, cells []*paperCell) {
	med := map[string]map[bench.Method]map[int]float64{}
	byMethod := map[bench.Method][]float64{}
	for _, c := range cells {
		v := median(c.times)
		if med[c.workload] == nil {
			med[c.workload] = map[bench.Method]map[int]float64{}
		}
		if med[c.workload][c.method] == nil {
			med[c.workload][c.method] = map[int]float64{}
		}
		med[c.workload][c.method][c.rate] = v
		byMethod[c.method] = append(byMethod[c.method], v)
	}
	o.set("update_ms.basel", geomean(byMethod[bench.MethodBaseL]))
	o.set("update_ms.priu", geomean(byMethod[bench.MethodPrIU]))
	o.set("update_ms.priu-opt", geomean(byMethod[bench.MethodPrIUOpt]))
	names := map[bench.Method]string{bench.MethodPrIU: "priu", bench.MethodPrIUOpt: "priu-opt"}
	for w, byM := range med {
		for m, name := range names {
			rates, ok := byM[m]
			if !ok {
				continue
			}
			var sp []float64
			for r, t := range rates {
				sp = append(sp, ratio(byM[bench.MethodBaseL][r], t))
			}
			o.set("paper.speedup."+name+"."+w, geomean(sp))
		}
	}
}

// libraryCommits commits 2-row batches directly on the updater, re-running
// Update on the whole cumulative log as the service does, until the log
// holds all of rows; then the log restarts.
type libraryCommits struct {
	upd  priu.Updater
	rows []int
	pos  int
}

// run makes the next paperCommitChunk commits.
func (l *libraryCommits) run(p *phase) error {
	runtime.GC() // the sweep's garbage is not collected inside the chunk
	p.begin()
	defer p.finish()
	for k := 0; k < paperCommitChunk; k++ {
		if l.pos+paperCommitBatch > len(l.rows) {
			l.pos = 0
		}
		l.pos += paperCommitBatch
		start := time.Now()
		if _, err := l.upd.Update(l.rows[:l.pos]); err != nil {
			return err
		}
		p.commitMs.add(float64(time.Since(start).Nanoseconds()) / 1e6)
		p.rows.Add(paperCommitBatch)
	}
	return nil
}

// libraryWhatIfs evaluates what-if batches directly on a WhatIfPlanner: 8
// sets sharing a 24-row prefix plus 4 rows each, on top of a committed log
// of 1% of n, one planner per batch as the service builds one per request:
// short enough for a run to collect the 1000 samples its p99 needs.
type libraryWhatIfs struct {
	upd       priu.Updater
	rows      []int // candidate rows
	committed []int
	k         int
}

func newLibraryWhatIfs(upd priu.Updater, n int, seed int64) *libraryWhatIfs {
	rows := perm(n, seed*19)
	committed := append([]int(nil), rows[:n/100]...)
	sort.Ints(committed)
	return &libraryWhatIfs{upd: upd, rows: rows[n/100:], committed: committed}
}

// run evaluates the next paperWhatIfChunk batches.
func (l *libraryWhatIfs) run(p *phase) error {
	runtime.GC()
	p.begin()
	defer p.finish()
	for end := l.k + paperWhatIfChunk; l.k < end; l.k++ {
		sets := whatifSets(l.rows, l.k)
		unions := make([][]int, len(sets))
		for i, s := range sets {
			u := append(append([]int(nil), l.committed...), s...)
			sort.Ints(u)
			unions[i] = u
		}
		start := time.Now()
		pl, err := priu.NewWhatIfPlanner(l.upd)
		if err != nil {
			return err
		}
		for _, r := range pl.EvalBatch(unions, 0) {
			if r.Err != nil {
				return r.Err
			}
		}
		p.whatifMs.add(float64(time.Since(start).Nanoseconds()) / 1e6)
		p.whatifSets.Add(int64(len(sets)))
	}
	return nil
}
