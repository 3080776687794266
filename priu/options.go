package priu

import (
	"repro/internal/core"
)

// CacheMode selects how per-iteration provenance matrices are stored; see
// the Mode* constants.
type CacheMode = core.CacheMode

// Cache-mode values (the paper's full-matrix vs truncated-SVD trade-off).
const (
	// ModeAuto stores full m×m matrices when m ≤ B and SVD factors
	// otherwise.
	ModeAuto = core.ModeAuto
	// ModeFull always stores full matrices.
	ModeFull = core.ModeFull
	// ModeSVD always stores truncated SVD factors.
	ModeSVD = core.ModeSVD
)

// Config is the fully resolved training-and-capture configuration shared by
// every family. Train starts from defaults and applies Options; TrainConfig
// consumes a Config verbatim. Custom families registered with Register
// receive the resolved Config in their Capture/Retrain hooks.
type Config struct {
	// Eta is the constant learning rate η.
	Eta float64
	// Lambda is the L2 regularization rate λ.
	Lambda float64
	// BatchSize is the mini-batch size B.
	BatchSize int
	// Iterations is the iteration count τ.
	Iterations int
	// Seed drives the deterministic batch schedule.
	Seed int64
	// Mode selects the provenance-cache representation.
	Mode CacheMode
	// Epsilon is the SVD coverage threshold ε (0 = the paper's 0.01).
	Epsilon float64
	// EarlyTermination is PrIU-opt's ts/τ fraction (0 = the paper's 0.7).
	EarlyTermination float64
	// LinearizerCells overrides the sigmoid interpolation grid resolution
	// for the logistic families (0 = the paper's shared 10⁶-cell default;
	// any other count builds a private grid per capture).
	LinearizerCells int
	// Workers resizes the shared kernel worker pool before capture
	// (0 = leave unchanged).
	Workers int
}

// defaultConfig returns the package defaults for a training set: a
// conservative hyperparameter profile that converges on the synthetic
// workloads, with the batch size clamped to the sample count.
func defaultConfig(ds TrainingSet) Config {
	b := 256
	if n := ds.N(); b > n {
		b = n
	}
	return Config{
		Eta:        1e-2,
		Lambda:     1e-2,
		BatchSize:  b,
		Iterations: 200,
		Seed:       1,
	}
}

// Option mutates a Config; build them with the With* constructors.
type Option func(*Config)

// WithEta sets the learning rate η.
func WithEta(eta float64) Option { return func(c *Config) { c.Eta = eta } }

// WithLambda sets the L2 regularization rate λ.
func WithLambda(lambda float64) Option { return func(c *Config) { c.Lambda = lambda } }

// WithBatchSize sets the mini-batch size B.
func WithBatchSize(b int) Option { return func(c *Config) { c.BatchSize = b } }

// WithIterations sets the iteration count τ.
func WithIterations(t int) Option { return func(c *Config) { c.Iterations = t } }

// WithSeed sets the batch-schedule seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithSVD forces truncated-SVD provenance caches with the given coverage
// threshold ε (Theorems 6/8): the stored rank is the smallest whose
// singular-value mass reaches (1−ε) of the total. ε = 0 keeps the paper's
// default of 0.01.
func WithSVD(epsilon float64) Option {
	return func(c *Config) {
		c.Mode = ModeSVD
		c.Epsilon = epsilon
	}
}

// WithFullCaches forces full m×m provenance matrices.
func WithFullCaches() Option { return func(c *Config) { c.Mode = ModeFull } }

// WithEarlyTermination sets PrIU-opt's early-termination fraction ts/τ
// (Sec 5.4; 0 keeps the paper's 0.7).
func WithEarlyTermination(frac float64) Option {
	return func(c *Config) { c.EarlyTermination = frac }
}

// WithLinearizerCells sets the sigmoid interpolation grid resolution used by
// the logistic families (0 keeps the paper's 10⁶-cell default, one grid
// shared by every capture in the process; any other count builds a private
// grid per capture, and smaller grids trade Theorem 4's O((Δx)²) error for
// a faster build).
func WithLinearizerCells(cells int) Option {
	return func(c *Config) { c.LinearizerCells = cells }
}

// WithWorkers resizes the shared kernel worker pool at Train time
// (0 = leave unchanged; the pool is global, like GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }
