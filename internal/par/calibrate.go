package par

import (
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Measured grain cutoffs. The static MinWork constant was tuned for one
// machine shape; real per-chunk costs (flop throughput, memory bandwidth,
// pool wakeup latency) vary enough across hosts that a fixed number either
// over-splits fast machines or under-splits slow ones. Calibrate times two
// small probe kernels plus the pool dispatch path at startup and derives the
// cutoffs from the measurements; the env variable PRIU_PAR_MINWORK pins both
// cutoffs to a fixed value for reproducible CI runs.
//
// The cutoffs only steer chunking of loops whose outputs are disjoint, where
// the split cannot change the bits. Reductions, whose bits do depend on the
// split, plan their MapReduceDet chunks from DetGrain, which ignores the
// cutoffs. So calibration can never change results, only speed.
var (
	// cutoffCompute is the per-chunk flop cutoff consumed by Grain.
	cutoffCompute atomic.Int64
	// cutoffMem is the per-chunk streamed-element cutoff consumed by GrainMem.
	cutoffMem atomic.Int64
	// cutoffsPinned is set when PRIU_PAR_MINWORK or SetCutoffs pinned the
	// cutoffs explicitly; Calibrate then measures but does not apply.
	cutoffsPinned atomic.Bool
)

// EnvMinWork is the environment variable that pins both grain cutoffs to a
// fixed value (reproducible CI): PRIU_PAR_MINWORK=32768.
const EnvMinWork = "PRIU_PAR_MINWORK"

func init() {
	cutoffCompute.Store(MinWork)
	cutoffMem.Store(MinWork)
	if s := os.Getenv(EnvMinWork); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			cutoffCompute.Store(int64(v))
			cutoffMem.Store(int64(v))
			cutoffsPinned.Store(true)
		}
	}
}

// Cutoffs returns the effective (compute, memory) per-chunk work cutoffs.
func Cutoffs() (compute, mem int) {
	return int(cutoffCompute.Load()), int(cutoffMem.Load())
}

// SetCutoffs pins the per-chunk work cutoffs explicitly (a -par-minwork style
// flag); subsequent Calibrate calls measure but do not override. n <= 0
// leaves the corresponding cutoff unchanged.
func SetCutoffs(compute, mem int) {
	if compute > 0 {
		cutoffCompute.Store(int64(compute))
	}
	if mem > 0 {
		cutoffMem.Store(int64(mem))
	}
	cutoffsPinned.Store(true)
}

// Calibration reports what Calibrate measured and decided.
type Calibration struct {
	// NsPerFlop is the measured scalar cost of one multiply-add lane.
	NsPerFlop float64
	// NsPerElem is the measured streaming cost of one read-modify-write
	// element (axpy shape).
	NsPerElem float64
	// DispatchNs is the measured round-trip cost of scheduling one chunk on
	// the pool (claim + wakeup, amortized).
	DispatchNs float64
	// Compute and Mem are the derived per-chunk cutoffs.
	Compute, Mem int
	// Pinned reports that an explicit override (PRIU_PAR_MINWORK or
	// SetCutoffs) was active, so the derived values were NOT applied.
	Pinned bool
}

const (
	calProbeLen = 4096
	// calMinChunkNs is the floor on target per-chunk duration: a chunk must
	// carry enough work to bury several pool dispatches.
	calMinChunkNs = 20_000
	// calDispatchMult sizes chunks as a multiple of the measured dispatch
	// cost so scheduling overhead stays a few percent.
	calDispatchMult = 32
	calMinCutoff    = 1 << 13
	calMaxCutoff    = 1 << 21
)

// Calibrate measures this host's flop throughput, streaming bandwidth and
// pool dispatch latency with ~1ms of probes and derives the per-chunk grain
// cutoffs used by Grain and GrainMem. It is intended to be called once at
// process startup (the cmds do); it is safe to call again. When an explicit
// override is active the measurements are still taken and reported, but the
// cutoffs are left pinned.
func Calibrate() Calibration {
	a := make([]float64, calProbeLen)
	b := make([]float64, calProbeLen)
	for i := range a {
		a[i] = 1.0 + float64(i%7)*1e-3
		b[i] = 1.0 - float64(i%5)*1e-3
	}

	nsPerFlop := minOver(3, func() float64 {
		const reps = 64
		var s0, s1 float64
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < calProbeLen; i += 2 {
				s0 += a[i] * b[i]
				s1 += a[i+1] * b[i+1]
			}
		}
		el := time.Since(start)
		calSink = s0 + s1
		return float64(el.Nanoseconds()) / float64(2*reps*calProbeLen)
	})

	nsPerElem := minOver(3, func() float64 {
		const reps = 64
		start := time.Now()
		for r := 0; r < reps; r++ {
			f := 1e-9 * float64(r+1)
			for i := range a {
				a[i] += f * b[i]
			}
		}
		el := time.Since(start)
		calSink = a[0]
		return float64(el.Nanoseconds()) / float64(reps*calProbeLen)
	})

	// Dispatch probe: schedule many trivial chunks through For with the pool
	// engaged and charge the wall time to the chunk count. On a saturated or
	// single-core host this degrades toward the cost of a function call,
	// which only makes the derived cutoffs smaller — the calMinChunkNs floor
	// keeps that honest.
	dispatchNs := 0.0
	if Workers() > 1 {
		dispatchNs = minOver(3, func() float64 {
			const chunks = 256
			start := time.Now()
			For(chunks, 1, func(lo, hi int) {})
			return float64(time.Since(start).Nanoseconds()) / chunks
		})
	}

	target := calDispatchMult * dispatchNs
	if target < calMinChunkNs {
		target = calMinChunkNs
	}
	cal := Calibration{
		NsPerFlop:  nsPerFlop,
		NsPerElem:  nsPerElem,
		DispatchNs: dispatchNs,
		Compute:    clampCutoff(target / nsPerFlop),
		Mem:        clampCutoff(target / nsPerElem),
		Pinned:     cutoffsPinned.Load(),
	}
	if !cal.Pinned {
		cutoffCompute.Store(int64(cal.Compute))
		cutoffMem.Store(int64(cal.Mem))
	}
	return cal
}

// calSink defeats dead-code elimination of the probe loops.
var calSink float64

func minOver(reps int, f func() float64) float64 {
	best := f()
	for i := 1; i < reps; i++ {
		if v := f(); v < best {
			best = v
		}
	}
	return best
}

func clampCutoff(v float64) int {
	if v != v || v < calMinCutoff { // NaN or tiny
		return calMinCutoff
	}
	if v > calMaxCutoff {
		return calMaxCutoff
	}
	return int(v)
}
