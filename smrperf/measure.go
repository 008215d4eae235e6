package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// instance is one set-up of a workload: fresh substrate or a fresh
// server, ready to run closed-loop iterations.
type instance interface {
	// iterate runs one iteration and returns a digest of its simulated
	// outputs. A non-nil probe records spans and counts.
	iterate(p *probe) (string, error)
	// census repeats one iteration and adds to p the counts that need
	// flow tracing or artifact parsing. It runs after the profiled
	// phase, so that work never shows in the profiles.
	census(p *probe) error
	close() error
}

// renewer is an instance that is replaced every epoch() iterations,
// outside the timed window, so that state it retains per iteration
// cannot grow with run length.
type renewer interface {
	renew() error
	epoch() int
}

// probe collects client-side spans and counts during traced
// iterations. A nil *probe records nothing.
type probe struct {
	spans  map[string][]float64 // span name → durations in ms
	counts map[string]float64   // count name → total over the phase
}

func newProbe() *probe {
	return &probe{spans: map[string][]float64{}, counts: map[string]float64{}}
}

func (p *probe) span(name string, d time.Duration) {
	if p != nil {
		p.spans[name] = append(p.spans[name], float64(d)/float64(time.Millisecond))
	}
}

func (p *probe) add(name string, v float64) {
	if p != nil {
		p.counts[name] += v
	}
}

// checker compares every iteration's digest with the run's first one
// and, when the seed has one, with the stored golden digest.
type checker struct {
	golden    string
	first     string
	attempted int
	failed    int
	errs      []string
}

// check records one iteration's outcome and reports whether it passed.
func (c *checker) check(digest string, err error) bool {
	c.attempted++
	switch {
	case err != nil:
		return c.fail(err.Error())
	case c.first == "":
		c.first = digest
		if c.golden != "" && digest != c.golden {
			return c.fail(fmt.Sprintf("digest %s differs from the golden digest %s", digest, c.golden))
		}
	case digest != c.first:
		return c.fail(fmt.Sprintf("digest %s differs from the first iteration's %s", digest, c.first))
	}
	return true
}

func (c *checker) fail(msg string) bool {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, msg)
	}
	return false
}

// sample is one timed iteration.
type sample struct {
	wall   float64 // s
	cpu    float64 // process CPU s
	allocs uint64
	bytes  uint64
}

// phaseResult is one closed-loop phase.
type phaseResult struct {
	samples []sample
	heapMB  map[int]float64 // iteration count → live heap after a forced GC
}

// phaseOpts bounds a closed-loop phase: it runs until seconds have
// passed and at least minIters iterations are done, reading the live
// heap after the iterations listed in heapAt. When fresh is set it is
// called setUps times, spread evenly over the phase, so that set-up
// time samples the same machine state as the iterations.
type phaseOpts struct {
	seconds  float64
	minIters int
	heapAt   []int
	setUps   int
	fresh    func() bool
}

// runPhase drives inst in a closed loop: each iteration starts when the
// previous one has finished. Heap readings, renewals and fresh set-ups
// happen between iterations, outside the timed window. The phase stops
// at the first failed check.
func runPhase(inst instance, o phaseOpts, p *probe, chk *checker) phaseResult {
	res := phaseResult{heapMB: map[int]float64{}}
	ren, _ := inst.(renewer)
	var ms runtime.MemStats
	start := time.Now()
	span := time.Duration(o.seconds * float64(time.Second))
	done := 0 // fresh set-ups so far
	for n := 0; n < o.minIters || time.Since(start) < span; {
		runtime.ReadMemStats(&ms)
		allocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
		cpu0 := cpuSeconds()
		t0 := time.Now()
		digest, err := inst.iterate(p)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms)
		if !chk.check(digest, err) {
			return res
		}
		res.samples = append(res.samples, sample{wall, cpu, ms.Mallocs - allocs0, ms.TotalAlloc - bytes0})
		n++
		if slices.Contains(o.heapAt, n) {
			res.heapMB[n] = liveHeapMB()
		}
		if ren != nil && n%ren.epoch() == 0 {
			if err := ren.renew(); err != nil {
				chk.check("", fmt.Errorf("renew: %w", err))
				return res
			}
		}
		if done < o.setUps && time.Since(start) >= span*time.Duration(done+1)/time.Duration(o.setUps+1) {
			if !o.fresh() {
				return res
			}
			done++
		}
	}
	for ; done < o.setUps; done++ {
		if !o.fresh() {
			return res
		}
	}
	return res
}

// setUp opens a fresh instance and runs its first iteration, returning
// the instance and the time both took, or nil after a failed check.
func setUp(w *workload, seed uint64, chk *checker) (instance, float64) {
	t0 := time.Now()
	inst, err := w.open(seed)
	if err != nil {
		chk.check("", fmt.Errorf("set-up: %w", err))
		return nil, 0
	}
	digest, err := inst.iterate(nil)
	t := time.Since(t0).Seconds()
	if !chk.check(digest, err) {
		closeInstance(inst, chk)
		return nil, 0
	}
	return inst, t
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile returns the highest percentile with at least ten of n
// samples beyond it, 100·(1 − 10/n), and the median when n < 20.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return 100 * (1 - 10/float64(n))
}

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
