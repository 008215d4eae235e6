// Package stats provides the small numeric helpers shared by the
// metrics recorders, the slot manager and the experiment harnesses.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies xs, so the input is
// not reordered. Empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// EWMA is an exponentially weighted moving average. The zero value has
// no observations; the first Observe seeds it directly.
type EWMA struct {
	alpha float64
	value float64
	n     int
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Higher
// alpha weighs recent observations more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds x into the average.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.value = x
	} else {
		e.value = e.alpha*x + (1-e.alpha)*e.value
	}
	e.n++
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Count returns the number of observations folded in.
func (e *EWMA) Count() int { return e.n }

// Reset discards all observations.
func (e *EWMA) Reset() { e.value, e.n = 0, 0 }

// Welford accumulates running mean/variance without storing samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge folds the other accumulator in using the parallel-variance
// combination of Chan, Golub & LeVeque. Unlike Acc and Histogram the
// result is not bit-identical to sequential accumulation (the running
// mean is inherently order-dependent in float arithmetic); it is the
// statistically exact combination up to rounding, which is why the
// fleet's byte-compared outputs are built on Acc/Histogram instead.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}
