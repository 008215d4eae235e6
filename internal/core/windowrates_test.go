package core

import (
	"math"
	"testing"

	"smapreduce/internal/mr"
)

// counterStats builds the minimal Stats windowRates consumes: the
// cumulative counters at one instant.
func counterStats(now, mb float64) mr.Stats {
	return mr.Stats{Now: now, MapInputProcessedMB: mb, MapOutputProducedMB: mb, ShuffleMovedMB: mb}
}

// TestWindowRatesIdleGapPruned reproduces the stale-anchor bug: after
// an idle gap (no ticks while the queue is empty between staggered
// jobs) the window's oldest sample used to stay anchored hours in the
// past, so the first post-gap rates were diluted by the dead time. The
// window span must stay within ~2× RateWindow so rates recover on the
// next sample.
func TestWindowRatesIdleGapPruned(t *testing.T) {
	m := MustNewSlotManager(SlotManagerConfig{})
	w := m.k.cfg.RateWindow

	// 20 MB/s for 100 s of ticks every 5 s.
	for now := 0.0; now <= 100; now += 5 {
		m.k.windowRates(counterStats(now, 20*now))
	}
	mbAtGap := 20.0 * 100

	// Idle gap: counters frozen, no ticks, until one hour later.
	in, _, _ := m.k.windowRates(counterStats(3600, mbAtGap))
	if in != 0 {
		t.Fatalf("first post-gap rate = %v, want 0 (window re-anchored)", in)
	}
	if span := 3600 - m.k.samples[0].t; span > 2*w {
		t.Fatalf("window span %v exceeds 2×RateWindow (%v) after the gap", span, 2*w)
	}

	// Work resumes at 20 MB/s: the very next tick must see it, not a
	// rate diluted across the hour of idleness (old behaviour: ~0.03).
	in, _, _ = m.k.windowRates(counterStats(3605, mbAtGap+100))
	if math.Abs(in-20) > 1e-9 {
		t.Fatalf("post-gap rate = %v, want 20 MB/s", in)
	}
}

// TestWindowRatesSteadyStateUnchanged pins the pre-fix behaviour for
// gap-free runs: continuous ticking never trips the re-anchor path.
func TestWindowRatesSteadyStateUnchanged(t *testing.T) {
	m := MustNewSlotManager(SlotManagerConfig{})
	var in float64
	for now := 0.0; now <= 300; now += 5 {
		in, _, _ = m.k.windowRates(counterStats(now, 20*now))
	}
	if math.Abs(in-20) > 1e-9 {
		t.Fatalf("steady-state rate = %v, want 20 MB/s", in)
	}
	// The window keeps one sample spanning RateWindow, as before.
	if span := 300 - m.k.samples[0].t; span > 2*m.k.cfg.RateWindow {
		t.Fatalf("steady-state window span %v too wide", span)
	}
}

func TestDecisionsReturnsCopy(t *testing.T) {
	m := MustNewSlotManager(SlotManagerConfig{})
	m.audits = append(m.audits, AuditRecord{At: 1, MapTarget: 3, Reason: "grow"})
	snap := m.Decisions()
	snap[0].Reason = "mutated"
	if m.audits[0].Reason != "grow" || m.Decisions()[0].Reason != "grow" {
		t.Fatal("mutating the returned slice changed the manager's log")
	}
	m.audits = append(m.audits, AuditRecord{At: 2, MapTarget: 4, Reason: "grow again"})
	if len(snap) != 1 || snap[0].At != 1 {
		t.Fatalf("snapshot changed under later appends: %+v", snap)
	}
}

// TestWindowRatesCounterRegressionResets pins the fault-discontinuity
// guard: a tracker crash unwinds committed work, so cumulative
// counters can drop below earlier samples. The window must restart at
// the current sample — never emit a negative rate — and resume clean
// differencing from the new baseline on the next tick.
func TestWindowRatesCounterRegressionResets(t *testing.T) {
	m := MustNewSlotManager(SlotManagerConfig{})
	for now := 0.0; now <= 50; now += 5 {
		m.k.windowRates(counterStats(now, 20*now))
	}
	// Crash at t=55: 300 MB of committed map output is requeued.
	in, out, shuf := m.k.windowRates(counterStats(55, 20*50-300))
	if in < 0 || out < 0 || shuf < 0 {
		t.Fatalf("negative rates after counter regression: %v %v %v", in, out, shuf)
	}
	if len(m.k.samples) != 1 {
		t.Fatalf("window not re-anchored after regression: %d samples", len(m.k.samples))
	}
	if m.k.suspects != 0 {
		t.Fatalf("suspicion state survived the reset: %d", m.k.suspects)
	}
	if m.k.lastChangeAt != 55 {
		t.Fatalf("stabilize timer not re-based: lastChangeAt = %v, want 55", m.k.lastChangeAt)
	}
	// Recovery proceeds at 20 MB/s from the new baseline.
	in, _, _ = m.k.windowRates(counterStats(60, 20*50-300+100))
	if math.Abs(in-20) > 1e-9 {
		t.Fatalf("post-reset rate = %v, want 20 MB/s", in)
	}
}
