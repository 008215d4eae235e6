package sim

import "testing"

// BenchmarkScheduleFire measures raw event queue throughput: one
// schedule plus one fire per iteration at a queue depth of ~1000.
func BenchmarkScheduleFire(b *testing.B) {
	c := NewClock()
	depth := 1000
	for i := 0; i < depth; i++ {
		c.Schedule(float64(i), "seed", func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	at := float64(depth)
	for i := 0; i < b.N; i++ {
		c.Schedule(at, "bench", func() {})
		c.Step()
		at++
	}
}

// BenchmarkCancel measures cancel cost at depth ~1000.
func BenchmarkCancel(b *testing.B) {
	c := NewClock()
	for i := 0; i < 1000; i++ {
		c.Schedule(float64(i+1), "seed", func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := c.Schedule(2000, "victim", func() {})
		c.Cancel(e)
	}
}

// benchModes runs fn once on the timing wheel and once heap-only, so
// every scheduler benchmark reports both backends side by side.
func benchModes(b *testing.B, fn func(b *testing.B, c *Clock)) {
	b.Run("wheel", func(b *testing.B) { fn(b, NewClock()) })
	b.Run("heap", func(b *testing.B) {
		c := NewClock()
		c.SetHeapOnly(true)
		fn(b, c)
	})
}

// BenchmarkPeriodicBeat measures the periodic fast path: 64 staggered
// periodic events (the heartbeat shape) firing steadily. The wheel
// re-arms in place; heap-only pays a full push per beat.
func BenchmarkPeriodicBeat(b *testing.B) {
	benchModes(b, func(b *testing.B, c *Clock) {
		const chains = 64
		for i := 0; i < chains; i++ {
			c.SchedulePeriodic(float64(i)/chains, 1.0, "beat", func() {})
		}
		for i := 0; i < 4*chains; i++ {
			c.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Step()
		}
	})
}

// BenchmarkChurnMix measures a scheduler-realistic mix at depth ~1000:
// per iteration one schedule, one reschedule, one cancel and one fire,
// with delays spread across level 0, level 1 and the heap spill.
func BenchmarkChurnMix(b *testing.B) {
	benchModes(b, func(b *testing.B, c *Clock) {
		rng := NewRand(7)
		const depth = 1024
		var refs [depth]EventRef
		delay := func() float64 {
			switch v := rng.Float64(); {
			case v < 0.70:
				return rng.Float64() * 3 // level 0
			case v < 0.95:
				return 4 + rng.Float64()*200 // level 1
			default:
				return 1100 + rng.Float64()*1000 // heap spill
			}
		}
		for i := range refs {
			refs[i] = c.Schedule(c.Now()+delay(), "seed", func() {})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % depth
			if c.EventLive(refs[k]) {
				c.Reschedule(refs[k], c.Now()+delay())
			} else {
				refs[k] = c.Schedule(c.Now()+delay(), "re", func() {})
			}
			j := (i * 31) % depth
			if j != k && c.EventLive(refs[j]) {
				c.Cancel(refs[j])
			}
			c.Step()
		}
	})
}

// BenchmarkRandUint64 measures the PRNG.
func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkParkedBeat is BenchmarkPeriodicBeat with every chain
// parked: the beats fire from the lane, off the wheel and the heap,
// beside one ordinary periodic event (the sampler-tick shape).
func BenchmarkParkedBeat(b *testing.B) {
	benchModes(b, func(b *testing.B, c *Clock) {
		const chains = 64
		idle := func() {}
		for i := 0; i < chains; i++ {
			c.Park(c.SchedulePeriodic(float64(i)/chains, 1.0, "beat", func() {}), idle)
		}
		c.SchedulePeriodic(0.5, 10.0, "tick", func() {})
		for i := 0; i < 4*chains; i++ {
			c.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Step()
		}
	})
}
