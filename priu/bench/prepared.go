package bench

import (
	"fmt"
	"time"

	"repro/internal/closedform"
	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/influence"
	"repro/internal/metrics"
	"repro/priu"
)

// Method names the update strategies compared in the experiments.
type Method string

// The methods of Sec 6.2.
const (
	MethodBaseL      Method = "BaseL"
	MethodPrIU       Method = "PrIU"
	MethodPrIUOpt    Method = "PrIU-opt"
	MethodINFL       Method = "INFL"
	MethodClosedForm Method = "Closed-form"
)

// Result is one timed update run.
type Result struct {
	Workload     string
	Method       Method
	DeletionRate float64
	Removed      int
	UpdateTime   time.Duration
	// Metric is validation MSE (linear) or validation accuracy
	// (classification) of the updated model.
	Metric float64
	// Comparison relates the updated model to the BaseL reference (zero
	// value for the BaseL rows themselves).
	Comparison metrics.Comparison
}

// benchLinearizerCells keeps workload preparation fast: a 100k-cell grid
// (error bound ~4·10⁻⁷, well inside every tolerance used here) instead of
// the paper's 10⁶-cell default, which interp's own tests exercise.
const benchLinearizerCells = 100_000

// Prepared holds a workload with its data generated, initial model trained
// and all offline provenance captured, ready for timed update runs. Every
// update strategy is held behind priu.Updater — the harness dispatches on
// Method names, never on concrete engine types.
type Prepared struct {
	W     Workload
	Dense *dataset.Dataset
	Valid *dataset.Dataset
	Sp    *dataset.SparseDataset
	Minit *gbm.Model

	baseFamily string
	cfg        priu.Config
	upds       map[Method]priu.Updater
	// baseRetrain is the BaseL retrainer with its schedule prebuilt, so
	// timed runs exclude deletion-independent setup (the paper's protocol).
	baseRetrain func(removed []int) (*gbm.Model, error)
	schedBytes  int64
	captureDt   time.Duration
}

// familyForKind maps a workload kind to its base priu family.
func familyForKind(k Kind) (string, error) {
	switch k {
	case KindLinear:
		return priu.FamilyLinear, nil
	case KindBinary:
		return priu.FamilyLogistic, nil
	case KindMulti:
		return priu.FamilyMultinomial, nil
	case KindSparse:
		return priu.FamilySparseLogistic, nil
	default:
		return "", fmt.Errorf("bench: unknown kind %d", k)
	}
}

// fixedModelUpdater adapts the comparison baselines (closed-form view,
// influence functions) — which expose Update/FootprintBytes but compute no
// initial model of their own — into priu.Updater.
type fixedModelUpdater struct {
	impl interface {
		Update(removed []int) (*gbm.Model, error)
		FootprintBytes() int64
	}
	model *gbm.Model
}

func (u fixedModelUpdater) Update(removed []int) (*gbm.Model, error) { return u.impl.Update(removed) }
func (u fixedModelUpdater) Model() *gbm.Model                        { return u.model }
func (u fixedModelUpdater) FootprintBytes() int64                    { return u.impl.FootprintBytes() }

// Prepare generates the data, trains the initial model and runs every
// offline capture the workload's methods need.
func Prepare(w Workload) (*Prepared, error) {
	start := time.Now()
	dense, sp, err := w.Generate()
	if err != nil {
		return nil, err
	}
	p := &Prepared{W: w, Sp: sp, upds: map[Method]priu.Updater{}}
	if dense != nil {
		train, valid, err := dense.Split(0.9, w.Seed+7)
		if err != nil {
			return nil, err
		}
		p.Dense, p.Valid = train, valid
	}
	n := w.N
	if p.Dense != nil {
		n = p.Dense.N()
	} else if sp != nil {
		n = sp.N()
	}
	cfg := w.Cfg
	if cfg.BatchSize > n {
		cfg.BatchSize = n
	}
	p.W.Cfg = cfg
	p.cfg = priu.Config{
		Eta: cfg.Eta, Lambda: cfg.Lambda, BatchSize: cfg.BatchSize,
		Iterations: cfg.Iterations, Seed: cfg.Seed,
		Mode: w.Mode, Epsilon: w.Epsilon,
		LinearizerCells: benchLinearizerCells,
	}
	p.baseFamily, err = familyForKind(w.Kind)
	if err != nil {
		return nil, err
	}
	// The shared schedule's footprint (gbm.Schedule.FootprintBytes) without
	// drawing one: one 8-byte index per batch slot.
	p.schedBytes = int64(cfg.Iterations) * int64(cfg.BatchSize) * 8

	for _, m := range p.Methods() {
		switch m {
		case MethodBaseL:
			p.baseRetrain, err = priu.NewRetrainer(p.baseFamily, p.TrainingSet(), p.cfg)
			if err != nil {
				return nil, err
			}
		case MethodPrIU:
			u, err := priu.TrainConfig(p.baseFamily, p.TrainingSet(), p.cfg)
			if err != nil {
				return nil, err
			}
			p.upds[m] = u
			p.Minit = u.Model()
		case MethodPrIUOpt:
			u, err := priu.TrainConfig(p.baseFamily+"-opt", p.TrainingSet(), p.cfg)
			if err != nil {
				return nil, err
			}
			p.upds[m] = u
		case MethodClosedForm:
			view, err := closedform.NewView(p.Dense, cfg.Lambda)
			if err != nil {
				return nil, err
			}
			p.upds[m] = fixedModelUpdater{impl: view, model: p.Minit}
		case MethodINFL:
			infl, err := influence.NewCached(p.Dense, p.Minit, cfg.Lambda)
			if err != nil {
				return nil, err
			}
			p.upds[m] = fixedModelUpdater{impl: infl, model: p.Minit}
		}
	}
	p.captureDt = time.Since(start)
	return p, nil
}

// TrainingSet returns the workload's training input (dense or sparse).
func (p *Prepared) TrainingSet() priu.TrainingSet {
	if p.Dense != nil {
		return p.Dense
	}
	return p.Sp
}

// Updater returns the captured updater behind a method, if the method has
// offline state (BaseL does not).
func (p *Prepared) Updater(m Method) (priu.Updater, bool) {
	u, ok := p.upds[m]
	return u, ok
}

// CaptureTime reports how long preparation (data + training + provenance
// capture) took — the offline cost excluded from reported update times.
func (p *Prepared) CaptureTime() time.Duration { return p.captureDt }

// N returns the training-set size.
func (p *Prepared) N() int { return p.TrainingSet().N() }

// PickRemoval deterministically selects ⌈rate·n⌉ samples (at least 1),
// sharing the selection policy with the ablation runners (removalOf).
func (p *Prepared) PickRemoval(rate float64, seed int64) []int {
	return removalOf(p.N(), rate, seed)
}

// Methods returns the update strategies applicable to this workload, in
// presentation order.
func (p *Prepared) Methods() []Method {
	switch p.W.Kind {
	case KindLinear:
		return []Method{MethodBaseL, MethodPrIU, MethodPrIUOpt, MethodClosedForm, MethodINFL}
	case KindBinary:
		return []Method{MethodBaseL, MethodPrIU, MethodPrIUOpt, MethodINFL}
	case KindMulti:
		if p.Dense.M() >= 256 {
			// cifar10 regime: the paper runs only PrIU (no opt, no INFL) for
			// extremely large feature spaces.
			return []Method{MethodBaseL, MethodPrIU}
		}
		return []Method{MethodBaseL, MethodPrIU, MethodPrIUOpt, MethodINFL}
	case KindSparse:
		return []Method{MethodBaseL, MethodPrIU}
	}
	return nil
}

// RunUpdate executes one timed update with the given method and removal set.
func (p *Prepared) RunUpdate(m Method, removed []int) (*gbm.Model, time.Duration, error) {
	if m == MethodBaseL {
		start := time.Now()
		model, err := p.baseRetrain(removed)
		if err != nil {
			return nil, 0, err
		}
		return model, time.Since(start), nil
	}
	u, ok := p.upds[m]
	if !ok {
		return nil, 0, fmt.Errorf("bench: method %s not applicable to workload %s", m, p.W.ID)
	}
	start := time.Now()
	model, err := u.Update(removed)
	if err != nil {
		return nil, 0, err
	}
	return model, time.Since(start), nil
}

// Evaluate computes the validation metric of a model for this workload.
func (p *Prepared) Evaluate(model *gbm.Model) (float64, error) {
	switch p.W.Kind {
	case KindLinear:
		return metrics.MSE(model, p.Valid)
	case KindBinary, KindMulti:
		return metrics.Accuracy(model, p.Valid)
	case KindSparse:
		return metrics.AccuracySparse(model, p.Sp)
	}
	return 0, fmt.Errorf("bench: unknown kind")
}

// Sweep runs every applicable method across the deletion-rate sweep,
// comparing each updated model against the BaseL reference.
func (p *Prepared) Sweep(rates []float64) ([]Result, error) {
	var out []Result
	for ri, rate := range rates {
		removed := p.PickRemoval(rate, p.W.Seed+int64(1000*ri))
		base, baseDt, err := p.RunUpdate(MethodBaseL, removed)
		if err != nil {
			return nil, err
		}
		baseMetric, err := p.Evaluate(base)
		if err != nil {
			return nil, err
		}
		out = append(out, Result{
			Workload: p.W.ID, Method: MethodBaseL, DeletionRate: rate,
			Removed: len(removed), UpdateTime: baseDt, Metric: baseMetric,
		})
		for _, m := range p.Methods() {
			if m == MethodBaseL {
				continue
			}
			model, dt, err := p.RunUpdate(m, removed)
			if err != nil {
				return nil, err
			}
			metric, err := p.Evaluate(model)
			if err != nil {
				return nil, err
			}
			cmp, err := metrics.Compare(model, base)
			if err != nil {
				return nil, err
			}
			out = append(out, Result{
				Workload: p.W.ID, Method: m, DeletionRate: rate,
				Removed: len(removed), UpdateTime: dt, Metric: metric, Comparison: cmp,
			})
		}
	}
	return out, nil
}

// FootprintBytes reports provenance-cache memory per method for Table 3.
// BaseL's figure is the training data plus the batch schedule (what plain
// retraining keeps resident).
func (p *Prepared) FootprintBytes(m Method) int64 {
	var dataBytes int64
	if p.Dense != nil {
		dataBytes = int64(p.Dense.N())*int64(p.Dense.M())*8 + int64(p.Dense.N())*8
	} else {
		dataBytes = p.Sp.X.FootprintBytes() + int64(p.Sp.N())*8
	}
	base := dataBytes + p.schedBytes
	if m == MethodBaseL {
		return base
	}
	u, ok := p.upds[m]
	if !ok {
		return 0
	}
	return base + u.FootprintBytes()
}
