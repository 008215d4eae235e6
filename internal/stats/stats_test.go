package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean([1 2 3]) != 2")
	}
	if !almost(Sum([]float64{1.5, 2.5}), 4) {
		t.Fatal("Sum")
	}
}

func TestMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 {
		t.Fatalf("Max = %v", Max(xs))
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Max not -Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
	if Percentile([]float64{9}, 75) != 9 {
		t.Fatal("single percentile")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile reordered its input")
	}
}

func TestEWMASeedAndDecay(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation did not seed: %v", e.Value())
	}
	e.Observe(20)
	if !almost(e.Value(), 15) {
		t.Fatalf("EWMA = %v, want 15", e.Value())
	}
	e.Reset()
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatal("N mismatch")
	}
	if !almost(w.Mean(), Mean(xs)) {
		t.Fatalf("Welford mean %v != %v", w.Mean(), Mean(xs))
	}
	// The population standard deviation of xs is 2.
	if !almost(w.StdDev(), 2) {
		t.Fatalf("Welford stddev %v != 2", w.StdDev())
	}
	var one Welford
	one.Add(3)
	if one.Variance() != 0 {
		t.Fatal("single-sample variance != 0")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []int8, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(xs, pa), Percentile(xs, pb)
		return va <= vb+1e-9 && va >= slices.Min(xs)-1e-9 && vb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Welford mean always equals the direct mean.
func TestQuickWelfordMean(t *testing.T) {
	f := func(raw []int16) bool {
		var w Welford
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			w.Add(xs[i])
		}
		return math.Abs(w.Mean()-Mean(xs)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1, 2.5, 5, 7.5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.N() != 9 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Bucket(0) != 2 { // 0, 1
		t.Fatalf("bucket0 = %d", h.Bucket(0))
	}
	if h.Bucket(1) != 1 || h.Bucket(2) != 1 || h.Bucket(3) != 1 || h.Bucket(4) != 1 {
		t.Fatalf("buckets = %v", []int{h.Bucket(1), h.Bucket(2), h.Bucket(3), h.Bucket(4)})
	}
	if h.under != 1 || h.over != 2 {
		t.Fatalf("under/over = %d/%d", h.under, h.over)
	}
	if h.Min() != -1 || h.Max() != 42 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 2 {
		t.Fatalf("median = %v", q)
	}
	if q := h.Quantile(0.95); math.Abs(q-95) > 2 {
		t.Fatalf("p95 = %v", q)
	}
	if h.Quantile(0) > 1 {
		t.Fatalf("q0 = %v", h.Quantile(0))
	}
	empty := NewHistogram(0, 1, 4)
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile != 0")
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Add(0.5)
	h.Add(0.6)
	h.Add(3.5)
	s := h.String()
	if !strings.Contains(s, "n=3") {
		t.Fatalf("render = %q", s)
	}
	if !strings.ContainsRune(s, '█') {
		t.Fatalf("no full block for the modal bucket: %q", s)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad histogram did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: bucket counts plus under/over always sum to N, and the
// quantile function is monotone.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(raw []int16) bool {
		h := NewHistogram(-100, 100, 20)
		for _, r := range raw {
			h.Add(float64(r) / 50)
		}
		total := h.under + h.over
		for i := 0; i < 20; i++ {
			total += h.Bucket(i)
		}
		if total != h.N() {
			return false
		}
		return h.Quantile(0.25) <= h.Quantile(0.75)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ulps returns the distance between a and b in representable float64
// steps (0 = identical, 1 = adjacent).
func ulps(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.Signbit(a) != math.Signbit(b) {
		return math.MaxUint64
	}
	ai, bi := math.Float64bits(a), math.Float64bits(b)
	if ai > bi {
		return ai - bi
	}
	return bi - ai
}

// TestWelfordMergeMatchesTwoPass pins Merge's accuracy: for split
// accumulators over benign data, the merged mean and std must land
// within 1 ulp of a naive two-pass reference over the concatenation.
func TestWelfordMergeMatchesTwoPass(t *testing.T) {
	datasets := map[string][]float64{
		"integers":      {1, 2, 3, 4, 5, 6, 7, 8},
		"makespans":     {81.8125, 86.59375, 73.25, 60.5, 92.5, 65.25},
		"constant":      {5, 5, 5, 5, 5},
		"single-each":   {3, 11},
		"mixed-magnit.": {0.125, 1024, 7.5, 0.0625, 96},
	}
	for name, xs := range datasets {
		// Two-pass reference: exact mean then centered second moment.
		mean := Mean(xs)
		m2 := 0.0
		for _, x := range xs {
			d := x - mean
			m2 += d * d
		}
		std := math.Sqrt(m2 / float64(len(xs)))

		for cut := 1; cut < len(xs); cut++ {
			var a, b Welford
			for _, x := range xs[:cut] {
				a.Add(x)
			}
			for _, x := range xs[cut:] {
				b.Add(x)
			}
			a.Merge(&b)
			if a.N() != len(xs) {
				t.Fatalf("%s cut %d: merged n = %d, want %d", name, cut, a.N(), len(xs))
			}
			if d := ulps(a.Mean(), mean); d > 1 {
				t.Errorf("%s cut %d: merged mean %v is %d ulps from two-pass %v", name, cut, a.Mean(), d, mean)
			}
			if d := ulps(a.StdDev(), std); d > 1 {
				t.Errorf("%s cut %d: merged std %v is %d ulps from two-pass %v", name, cut, a.StdDev(), d, std)
			}
		}
	}
}

// TestWelfordMergeEmptySides checks both identity cases: merging an
// empty accumulator in, and merging into an empty accumulator.
func TestWelfordMergeEmptySides(t *testing.T) {
	var a, empty Welford
	for _, x := range []float64{2, 4, 6} {
		a.Add(x)
	}
	before := a
	a.Merge(&empty)
	if a != before {
		t.Error("merging an empty accumulator changed the receiver")
	}
	var dst Welford
	dst.Merge(&a)
	if dst != a {
		t.Error("merging into an empty accumulator did not copy")
	}
}
