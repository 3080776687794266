package priu

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
)

// Built-in family names. PrIU families capture per-iteration provenance and
// replay the cheap linearized rule; the -opt variants add the Sec 5.2/5.4
// eigendecomposition optimizations for small feature spaces.
const (
	// FamilyLinear is PrIU for ridge linear regression (Sec 5.1).
	FamilyLinear = "linear"
	// FamilyLogistic is PrIU for binary logistic regression (Sec 4.2/5.3).
	FamilyLogistic = "logistic"
	// FamilyMultinomial is PrIU for multinomial logistic regression.
	FamilyMultinomial = "multinomial"
	// FamilySparseLogistic is PrIU's sparse-dataset logistic path (Sec 5.3).
	FamilySparseLogistic = "sparse-logistic"
	// FamilyLinearOpt is PrIU-opt for linear regression (Sec 5.2).
	FamilyLinearOpt = "linear-opt"
	// FamilyLogisticOpt is PrIU-opt for logistic regression (Sec 5.4).
	FamilyLogisticOpt = "logistic-opt"
	// FamilyMultinomialOpt is PrIU-opt for multinomial regression.
	FamilyMultinomialOpt = "multinomial-opt"
)

func init() {
	Register(FamilyLinear, Family{
		Task: Regression,
		Capture: func(ds TrainingSet, cfg Config) (Updater, error) {
			d, sched, err := densePrep(FamilyLinear, ds, cfg)
			if err != nil {
				return nil, err
			}
			return core.CaptureLinear(d, cfg.gbm(), sched, cfg.core())
		},
		Restore: func(r io.Reader, ds TrainingSet) (Updater, error) {
			d, err := denseOf(FamilyLinear, ds)
			if err != nil {
				return nil, err
			}
			return core.LoadLinearProvenance(r, d)
		},
		Retrain:   denseRetrain(FamilyLinear, gbm.TrainLinear),
		Retrainer: denseRetrainer(FamilyLinear, gbm.TrainLinear),
	})
	Register(FamilyLinearOpt, Family{
		Task: Regression,
		Capture: func(ds TrainingSet, cfg Config) (Updater, error) {
			d, err := denseOf(FamilyLinearOpt, ds)
			if err != nil {
				return nil, err
			}
			return core.NewLinearOpt(d, cfg.gbm())
		},
		Restore: func(r io.Reader, ds TrainingSet) (Updater, error) {
			d, err := denseOf(FamilyLinearOpt, ds)
			if err != nil {
				return nil, err
			}
			return core.LoadLinearOpt(r, d)
		},
		Retrain:   denseRetrain(FamilyLinearOpt, gbm.TrainLinear),
		Retrainer: denseRetrainer(FamilyLinearOpt, gbm.TrainLinear),
	})
	Register(FamilyLogistic, Family{
		Task: BinaryClassification,
		Capture: func(ds TrainingSet, cfg Config) (Updater, error) {
			d, sched, err := densePrep(FamilyLogistic, ds, cfg)
			if err != nil {
				return nil, err
			}
			lin, err := cfg.linearizer()
			if err != nil {
				return nil, err
			}
			return core.CaptureLogistic(d, cfg.gbm(), sched, lin, cfg.core())
		},
		Restore: func(r io.Reader, ds TrainingSet) (Updater, error) {
			d, err := denseOf(FamilyLogistic, ds)
			if err != nil {
				return nil, err
			}
			return core.LoadLogisticProvenance(r, d)
		},
		Retrain:   denseRetrain(FamilyLogistic, gbm.TrainLogistic),
		Retrainer: denseRetrainer(FamilyLogistic, gbm.TrainLogistic),
	})
	Register(FamilyLogisticOpt, Family{
		Task: BinaryClassification,
		Capture: func(ds TrainingSet, cfg Config) (Updater, error) {
			d, sched, err := densePrep(FamilyLogisticOpt, ds, cfg)
			if err != nil {
				return nil, err
			}
			lin, err := cfg.linearizer()
			if err != nil {
				return nil, err
			}
			return core.CaptureLogisticOpt(d, cfg.gbm(), sched, lin, cfg.core())
		},
		Restore: func(r io.Reader, ds TrainingSet) (Updater, error) {
			d, err := denseOf(FamilyLogisticOpt, ds)
			if err != nil {
				return nil, err
			}
			return core.LoadLogisticOpt(r, d)
		},
		Retrain:   denseRetrain(FamilyLogisticOpt, gbm.TrainLogistic),
		Retrainer: denseRetrainer(FamilyLogisticOpt, gbm.TrainLogistic),
	})
	Register(FamilyMultinomial, Family{
		Task: MultiClassification,
		Capture: func(ds TrainingSet, cfg Config) (Updater, error) {
			d, sched, err := densePrep(FamilyMultinomial, ds, cfg)
			if err != nil {
				return nil, err
			}
			return core.CaptureMultinomial(d, cfg.gbm(), sched, cfg.core())
		},
		Restore: func(r io.Reader, ds TrainingSet) (Updater, error) {
			d, err := denseOf(FamilyMultinomial, ds)
			if err != nil {
				return nil, err
			}
			return core.LoadMultinomialProvenance(r, d)
		},
		Retrain:   denseRetrain(FamilyMultinomial, gbm.TrainMultinomial),
		Retrainer: denseRetrainer(FamilyMultinomial, gbm.TrainMultinomial),
	})
	Register(FamilyMultinomialOpt, Family{
		Task: MultiClassification,
		Capture: func(ds TrainingSet, cfg Config) (Updater, error) {
			d, sched, err := densePrep(FamilyMultinomialOpt, ds, cfg)
			if err != nil {
				return nil, err
			}
			return core.CaptureMultinomialOpt(d, cfg.gbm(), sched, cfg.core())
		},
		Restore: func(r io.Reader, ds TrainingSet) (Updater, error) {
			d, err := denseOf(FamilyMultinomialOpt, ds)
			if err != nil {
				return nil, err
			}
			return core.LoadMultinomialOpt(r, d)
		},
		Retrain:   denseRetrain(FamilyMultinomialOpt, gbm.TrainMultinomial),
		Retrainer: denseRetrainer(FamilyMultinomialOpt, gbm.TrainMultinomial),
	})
	Register(FamilySparseLogistic, Family{
		Task:   BinaryClassification,
		Sparse: true,
		Capture: func(ds TrainingSet, cfg Config) (Updater, error) {
			d, err := sparseOf(FamilySparseLogistic, ds)
			if err != nil {
				return nil, err
			}
			sched, err := gbm.NewSchedule(d.N(), cfg.gbm())
			if err != nil {
				return nil, err
			}
			lin, err := cfg.linearizer()
			if err != nil {
				return nil, err
			}
			return core.CaptureLogisticSparse(d, cfg.gbm(), sched, lin)
		},
		Restore: func(r io.Reader, ds TrainingSet) (Updater, error) {
			d, err := sparseOf(FamilySparseLogistic, ds)
			if err != nil {
				return nil, err
			}
			return core.LoadSparseLogisticProvenance(r, d)
		},
		Retrain: func(ds TrainingSet, cfg Config, removed []int) (*Model, error) {
			d, err := sparseOf(FamilySparseLogistic, ds)
			if err != nil {
				return nil, err
			}
			sched, err := gbm.NewSchedule(d.N(), cfg.gbm())
			if err != nil {
				return nil, err
			}
			rm, _, err := gbm.Removals(d.N(), removed)
			if err != nil {
				return nil, err
			}
			return gbm.TrainLogisticSparse(d, cfg.gbm(), sched, rm)
		},
		Retrainer: func(ds TrainingSet, cfg Config) (func([]int) (*Model, error), error) {
			d, err := sparseOf(FamilySparseLogistic, ds)
			if err != nil {
				return nil, err
			}
			sched, err := gbm.NewSchedule(d.N(), cfg.gbm())
			if err != nil {
				return nil, err
			}
			gcfg := cfg.gbm()
			return func(removed []int) (*Model, error) {
				rm, _, err := gbm.Removals(d.N(), removed)
				if err != nil {
					return nil, err
				}
				return gbm.TrainLogisticSparse(d, gcfg, sched, rm)
			}, nil
		},
	})
}

// gbm converts the resolved Config to the trainer's hyperparameter set.
func (c Config) gbm() gbm.Config {
	return gbm.Config{
		Eta:        c.Eta,
		Lambda:     c.Lambda,
		BatchSize:  c.BatchSize,
		Iterations: c.Iterations,
		Seed:       c.Seed,
	}
}

// core converts the resolved Config to the capture options.
func (c Config) core() core.Options {
	return core.Options{
		Mode:                     c.Mode,
		Epsilon:                  c.Epsilon,
		EarlyTerminationFraction: c.EarlyTermination,
	}
}

// linearizer builds a private sigmoid interpolation grid for a non-default
// cell count; nil means the capture default, the process-wide shared
// 10⁶-cell grid.
func (c Config) linearizer() (*interp.Linearizer, error) {
	if c.LinearizerCells == 0 || c.LinearizerCells == interp.DefaultCells {
		return nil, nil
	}
	return interp.NewLinearizer(interp.F, interp.DefaultBound, c.LinearizerCells)
}

// denseOf asserts the dense training-set representation.
func denseOf(family string, ds TrainingSet) (*dataset.Dataset, error) {
	d, ok := ds.(*dataset.Dataset)
	if !ok {
		return nil, fmt.Errorf("priu: family %q requires a dense *priu.Dataset, got %T", family, ds)
	}
	return d, nil
}

// sparseOf asserts the sparse training-set representation.
func sparseOf(family string, ds TrainingSet) (*dataset.SparseDataset, error) {
	d, ok := ds.(*dataset.SparseDataset)
	if !ok {
		return nil, fmt.Errorf("priu: family %q requires a *priu.SparseDataset, got %T", family, ds)
	}
	return d, nil
}

// densePrep asserts a dense dataset and builds its batch schedule.
func densePrep(family string, ds TrainingSet, cfg Config) (*dataset.Dataset, *gbm.Schedule, error) {
	d, err := denseOf(family, ds)
	if err != nil {
		return nil, nil, err
	}
	sched, err := gbm.NewSchedule(d.N(), cfg.gbm())
	if err != nil {
		return nil, nil, err
	}
	return d, sched, nil
}

// denseRetrain adapts one of the gbm trainers into a Family.Retrain hook.
func denseRetrain(family string, train func(*dataset.Dataset, gbm.Config, *gbm.Schedule, []bool) (*Model, error)) func(TrainingSet, Config, []int) (*Model, error) {
	return func(ds TrainingSet, cfg Config, removed []int) (*Model, error) {
		d, sched, err := densePrep(family, ds, cfg)
		if err != nil {
			return nil, err
		}
		rm, _, err := gbm.Removals(d.N(), removed)
		if err != nil {
			return nil, err
		}
		return train(d, cfg.gbm(), sched, rm)
	}
}

// denseRetrainer is the prepared variant of denseRetrain: the schedule is
// built once, outside any caller's timed region.
func denseRetrainer(family string, train func(*dataset.Dataset, gbm.Config, *gbm.Schedule, []bool) (*Model, error)) func(TrainingSet, Config) (func([]int) (*Model, error), error) {
	return func(ds TrainingSet, cfg Config) (func([]int) (*Model, error), error) {
		d, sched, err := densePrep(family, ds, cfg)
		if err != nil {
			return nil, err
		}
		gcfg := cfg.gbm()
		return func(removed []int) (*Model, error) {
			rm, _, err := gbm.Removals(d.N(), removed)
			if err != nil {
				return nil, err
			}
			return train(d, gcfg, sched, rm)
		}, nil
	}
}
