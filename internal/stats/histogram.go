package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram accumulates samples into fixed-width buckets over a range
// chosen at construction, with open-ended under/overflow buckets. It
// renders compactly for terminal reports (job latency distributions,
// task durations). Histograms of identical geometry merge exactly
// (bucket counts are integers and the sum is an ExactSum), so sharded
// accumulation recombines bit-identically to sequential accumulation.
// Samples must be finite; Add panics on NaN/±Inf via ExactSum.
type Histogram struct {
	lo, hi  float64
	buckets []int
	under   int
	over    int
	n       int
	sum     ExactSum
	min     float64
	max     float64
}

// NewHistogram builds a histogram of `buckets` equal cells over
// [lo, hi). It panics on a degenerate range or zero buckets: histogram
// geometry is static configuration.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if !(hi > lo) || buckets <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram(%v, %v, %d) invalid", lo, hi, buckets))
	}
	return &Histogram{
		lo: lo, hi: hi,
		buckets: make([]int, buckets),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Add folds one sample in.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum.Add(x)
	h.min = math.Min(h.min, x)
	h.max = math.Max(h.max, x)
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		idx := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.buckets)))
		if idx == len(h.buckets) { // x == hi-ε rounding guard
			idx--
		}
		h.buckets[idx]++
	}
}

// N returns the sample count.
func (h *Histogram) N() int { return h.n }

// Mean returns the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum.Sum() / float64(h.n)
}

// Merge folds the other histogram in. Both must have identical
// geometry (range and bucket count); Merge panics otherwise, because
// resampling between geometries would silently blur the distribution.
// Merge is commutative and associative with bit-exact results.
func (h *Histogram) Merge(o *Histogram) {
	if o.lo != h.lo || o.hi != h.hi || len(o.buckets) != len(h.buckets) {
		panic(fmt.Sprintf("stats: Merge of mismatched histograms [%v,%v)x%d vs [%v,%v)x%d",
			h.lo, h.hi, len(h.buckets), o.lo, o.hi, len(o.buckets)))
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.n += o.n
	h.sum.Merge(&o.sum)
	h.min = math.Min(h.min, o.min)
	h.max = math.Max(h.max, o.max)
}

// Min returns the smallest sample (+Inf when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest sample (−Inf when empty).
func (h *Histogram) Max() float64 { return h.max }

// Bucket returns the count of cell i.
func (h *Histogram) Bucket(i int) int { return h.buckets[i] }

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the containing bucket. Out-of-range mass is clamped to the
// range edges. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := q * float64(h.n)
	acc := float64(h.under)
	if target <= acc {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		next := acc + float64(c)
		if target <= next && c > 0 {
			frac := (target - acc) / float64(c)
			return h.lo + (float64(i)+frac)*width
		}
		acc = next
	}
	return h.hi
}

// String renders a one-line block chart of the distribution.
func (h *Histogram) String() string {
	maxC := 0
	for _, c := range h.buckets {
		if c > maxC {
			maxC = c
		}
	}
	ramp := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, c := range h.buckets {
		idx := 0
		if maxC > 0 && c > 0 {
			idx = 1 + int(float64(c)/float64(maxC)*float64(len(ramp)-2))
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
		}
		b.WriteRune(ramp[idx])
	}
	return fmt.Sprintf("[%s] n=%d mean=%.3g", b.String(), h.n, h.Mean())
}
