package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/priu/obs"
)

// samples is a concurrency-safe list of observations (milliseconds unless a
// metric says otherwise).
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func (s *samples) q(p float64) float64 { return quantile(s.values(), p) }

func (s *samples) sum() float64 {
	var t float64
	for _, x := range s.values() {
		t += x
	}
	return t
}

// familySamples keeps observations per model family.
type familySamples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (f *familySamples) add(family string, x float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = map[string][]float64{}
	}
	f.m[family] = append(f.m[family], x)
}

// geomeanOfMedians is the geometric mean over families of each family's
// median: unlike the median over all observations, it does not jump between
// families as their shares of the observations change.
func (f *familySamples) geomeanOfMedians() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var meds []float64
	for _, xs := range f.m {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear interpolation
// between order statistics; 0 for an empty list.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// slope is the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if len(x) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fineBuckets are log-spaced histogram bounds (seconds) from 10µs to ~30s, 8%
// apart, so quantiles read back from the store's tier histograms are within a
// few percent of the exact order statistic.
func fineBuckets() []float64 {
	var b []float64
	for v := 1e-5; v < 30; v *= 1.08 {
		b = append(b, v)
	}
	return b
}

// histSnap is the cumulative bucket state of one histogram family, read from
// the registry's text exposition (the only way obs exposes bucket counts).
type histSnap struct {
	le  []float64 // upper bounds, +Inf last
	cum []float64 // cumulative counts
}

func readHists(reg *obs.Registry) map[string]histSnap {
	var buf bytes.Buffer
	_ = reg.WriteText(&buf)
	out := map[string]histSnap{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.Index(line, "_bucket{")
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:i]
		rest := line[i+len("_bucket{"):]
		j := strings.Index(rest, `le="`)
		if j < 0 {
			continue
		}
		rest = rest[j+4:]
		k := strings.Index(rest, `"`)
		if k < 0 {
			continue
		}
		le, err := strconv.ParseFloat(strings.Replace(rest[:k], "+Inf", "Inf", 1), 64)
		if err != nil {
			continue
		}
		fields := strings.Fields(rest[k:])
		if len(fields) < 2 {
			continue
		}
		c, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		h := out[name]
		h.le = append(h.le, le)
		h.cum = append(h.cum, c)
		out[name] = h
	}
	return out
}

// histDelta is after − before for one family (same bucket layout).
func histDelta(after, before histSnap) histSnap {
	d := histSnap{le: after.le, cum: append([]float64(nil), after.cum...)}
	if len(before.cum) == len(after.cum) {
		for i := range d.cum {
			d.cum[i] -= before.cum[i]
		}
	}
	return d
}

// histAdd sums two snapshots of one family (an empty a takes b's layout).
func histAdd(a, b histSnap) histSnap {
	if len(a.cum) == 0 {
		return histSnap{le: b.le, cum: append([]float64(nil), b.cum...)}
	}
	for i := range a.cum {
		if i < len(b.cum) {
			a.cum[i] += b.cum[i]
		}
	}
	return a
}

func (h histSnap) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// quantile interpolates linearly inside the bucket holding the p-quantile;
// 0 when the histogram is empty.
func (h histSnap) quantile(p float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := p * n
	prevLe, prevCum := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank && c > prevCum {
			le := h.le[i]
			if math.IsInf(le, 1) {
				return prevLe
			}
			return prevLe + (le-prevLe)*(rank-prevCum)/(c-prevCum)
		}
		prevLe, prevCum = h.le[i], c
	}
	return prevLe
}
