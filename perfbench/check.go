package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/priu"
	"repro/priu/service"
)

// direct is one training set captured in-process by the benchmark, the
// reference the service's outputs are checked against and the source of the
// update_ms.* cells: BaseL retraining, PrIU and PrIU-opt on the same data.
type direct struct {
	family string // the family the service trained
	ds     priu.TrainingSet
	cfg    priu.Config
	upd    priu.Updater // the service's family, captured directly
	base   priu.Updater // the base (PrIU) family
	opt    priu.Updater // the -opt family, nil when the base has none
	retr   func([]int) (*priu.Model, error)
}

func newDirect(req service.CreateSessionRequest) (*direct, error) {
	ds, err := trainingSet(req)
	if err != nil {
		return nil, err
	}
	d := &direct{family: req.Family, ds: ds, cfg: configOf(req)}
	baseFam := strings.TrimSuffix(req.Family, "-opt")
	if d.base, err = priu.TrainConfig(baseFam, ds, d.cfg); err != nil {
		return nil, fmt.Errorf("direct capture %s: %w", baseFam, err)
	}
	if _, ok := priu.Lookup(baseFam + "-opt"); ok {
		if d.opt, err = priu.TrainConfig(baseFam+"-opt", ds, d.cfg); err != nil {
			return nil, fmt.Errorf("direct capture %s-opt: %w", baseFam, err)
		}
	}
	d.upd = d.base
	if req.Family != baseFam {
		d.upd = d.opt
	}
	if d.retr, err = priu.NewRetrainer(baseFam, ds, d.cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// matches reports whether params are bitwise-equal to a direct Update of
// the deletion log (the captured model itself when the log is empty).
func (d *direct) matches(params []float64, log []int) (bool, error) {
	if len(log) == 0 {
		return sameBits(d.upd.Model().Vec(), params), nil
	}
	m, err := d.upd.Update(log)
	if err != nil {
		return false, err
	}
	return sameBits(m.Vec(), params), nil
}

// digest is the parameter digest of a direct Update of the sorted union of
// prefix and candidate: what a what-if of candidate returns on a session
// whose committed log is prefix.
func (d *direct) digest(prefix, candidate []int) (string, error) {
	union := append(append([]int(nil), prefix...), candidate...)
	sort.Ints(union)
	m, err := d.upd.Update(union)
	if err != nil {
		return "", err
	}
	return service.ParamDigest(m.Vec()), nil
}

// cell is one deletion log on one directly captured training set.
type cell struct {
	d   *direct
	log []int
}

// updateTimer times BaseL, PrIU and PrIU-opt on every cell. Each call of
// pass times every method on every cell once, so a workload spreads its
// passes over the measured window and a slow spell of the host lands on
// every cell alike. Each timing is a batch of calls long enough (≥2ms) to
// read well on the clock and to even out a collection landing in it.
type updateTimer struct {
	timers [][3]*callTimer
}

type callTimer struct {
	fn    func() error
	batch int
	ms    []float64
}

// updatePasses is how many passes a workload's probe makes per slice.
const updatePasses = 2

func newUpdateTimer(cells []cell) (*updateTimer, error) {
	u := &updateTimer{}
	for _, c := range cells {
		c := c
		t := [3]*callTimer{
			{fn: func() error { _, err := c.d.retr(c.log); return err }},
			{fn: func() error { _, err := c.d.base.Update(c.log); return err }},
		}
		if c.d.opt != nil {
			t[2] = &callTimer{fn: func() error { _, err := c.d.opt.Update(c.log); return err }}
		}
		for _, x := range t {
			if x == nil {
				continue
			}
			start := time.Now()
			if err := x.fn(); err != nil {
				return nil, err
			}
			x.batch = 1 + int(2*time.Millisecond/max(time.Since(start), time.Microsecond))
		}
		u.timers = append(u.timers, t)
	}
	return u, nil
}

// pass makes updatePasses timed passes over the cells.
func (u *updateTimer) pass() error {
	for r := 0; r < updatePasses; r++ {
		for _, t := range u.timers {
			for _, x := range t {
				if x == nil {
					continue
				}
				start := time.Now()
				for i := 0; i < x.batch; i++ {
					if err := x.fn(); err != nil {
						return err
					}
				}
				x.ms = append(x.ms, float64(time.Since(start).Nanoseconds())/1e6/float64(x.batch))
			}
		}
	}
	return nil
}

// report sets update_ms.* to the geometric mean over cells of each method's
// median time per call.
func (u *updateTimer) report(o *outcome) {
	var b, p, q []float64
	for _, t := range u.timers {
		b = append(b, median(t[0].ms))
		p = append(p, median(t[1].ms))
		if t[2] != nil {
			q = append(q, median(t[2].ms))
		}
	}
	o.set("update_ms.basel", geomean(b))
	o.set("update_ms.priu", geomean(p))
	o.set("update_ms.priu-opt", geomean(q))
	o.note("update_cells", fmt.Sprint(len(u.timers)))
}
