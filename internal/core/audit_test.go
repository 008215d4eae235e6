package core

import (
	"math"
	"strings"
	"testing"

	"smapreduce/internal/mr"
	"smapreduce/internal/trace"
)

// TestDecisionStringRendering pins the Decision.String contract the
// CLIs print, across the factor's three shapes (finite, +Inf, NaN).
func TestDecisionStringRendering(t *testing.T) {
	cases := []struct {
		d    Decision
		want string
	}{
		{Decision{At: 12.5, MapTarget: 4, ReduceTarget: 2, Factor: 1.25, Reason: "x"},
			"[    12.5] maps=4 reduces=2 f=1.25  x"},
		{Decision{At: 0, MapTarget: 1, ReduceTarget: 1, Factor: math.Inf(1), Reason: ReasonMapHeavy},
			"[     0.0] maps=1 reduces=1 f=+Inf  " + ReasonMapHeavy},
		{Decision{At: 100, MapTarget: 3, ReduceTarget: 8, Factor: math.NaN(), Reason: ReasonTailBoost},
			"[   100.0] maps=3 reduces=8 f=-  " + ReasonTailBoost},
	}
	for _, tc := range cases {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestReasonConstantsMatchVocabulary pins the reason strings the rest
// of the repo greps for (tests, examples, the -explain renderer).
func TestReasonConstantsMatchVocabulary(t *testing.T) {
	if ReasonMapHeavy != "map-heavy: shuffle ahead of maps" {
		t.Errorf("ReasonMapHeavy = %q", ReasonMapHeavy)
	}
	if ReasonReduceHeavy != "reduce-heavy: shuffle lagging" {
		t.Errorf("ReasonReduceHeavy = %q", ReasonReduceHeavy)
	}
	if ReasonTailRelease != "tail: releasing map slots" {
		t.Errorf("ReasonTailRelease = %q", ReasonTailRelease)
	}
	if ReasonTailBoost != "tail: small shuffle, boosting reduce slots" {
		t.Errorf("ReasonTailBoost = %q", ReasonTailBoost)
	}
	if got := ReasonThrashing(5); got != "thrashing confirmed at 5 map slots" {
		t.Errorf("ReasonThrashing(5) = %q", got)
	}
	if !strings.HasPrefix(ReasonThrashing(3), ReasonThrashingPrefix) {
		t.Errorf("ReasonThrashing misses its own prefix")
	}
}

// driveAllReasons pushes one manager through synthetic stats that
// exercise every reason the decision vocabulary contains: map-heavy
// growth, suspected and confirmed thrashing, reduce-heavy shrink, and
// both tail-stretch variants.
func driveAllReasons(t *testing.T, m *SlotManager, c *mr.Cluster) {
	t.Helper()
	// Synthetic front-stretch feed with a consistent cumulative counter
	// (windowRates differences it, so jumps would fake rates).
	cum, last := 0.0, 0.0
	step := func(now, rate, potential float64) mr.Stats {
		cum += (now - last) * rate
		last = now
		s := frontStats(now, rate, potential, 8)
		s.MapInputProcessedMB = cum
		s.MapOutputProducedMB = cum
		return s
	}

	// Map-heavy: shuffle has huge headroom; the second tick has a full
	// window (the first has dt=0) and grows the target 3 -> 4.
	m.tick(c, step(20, 100, 5000))
	m.tick(c, step(40, 100, 5000))

	// Thrashing: after the increase the windowed rate sinks below the
	// 100 MB/s recorded at 3 slots; two stable observations confirm and
	// roll back to 3. (Growth is also blocked while suspected, so the
	// still-high f does not interfere.)
	m.tick(c, step(60, 40, 5000))
	m.tick(c, step(80, 40, 5000))
	if m.k.ceiling == 0 {
		t.Fatalf("thrashing never confirmed; decisions: %+v", m.Decisions())
	}

	// Reduce-heavy: the achievable shuffle collapses under the map
	// output rate (f = 30/1000), shrinking 3 -> 2.
	m.tick(c, step(120, 1000, 30))

	// Tail, large shuffle: pending maps done, release map slots only.
	tail := step(160, 0, 0)
	tail.PendingMaps = 0
	tail.RunningMaps = 1
	tail.ShufflePerReduceMB = 100000
	m.tick(c, tail)

	// Tail, small shuffle: boost reduce slots to the max.
	tail2 := step(180, 0, 0)
	tail2.PendingMaps = 0
	tail2.RunningMaps = 1
	tail2.ShufflePerReduceMB = 10
	m.tick(c, tail2)
}

// TestReasonVocabularyRoundTripsThroughExplain drives every decision
// path and asserts (a) the emitted reasons are exactly the stable
// vocabulary and (b) the audit inputs match what the manager saw
// (factor vs bounds, window rates, thrash state).
func TestReasonVocabularyRoundTripsThroughExplain(t *testing.T) {
	c, m := tickHarness(t)
	driveAllReasons(t, m, c)

	ds, as := m.Decisions(), m.Explain()
	seen := map[string]bool{}
	for i, d := range ds {
		a := as[i]
		switch {
		case d.Reason == ReasonMapHeavy:
			seen["map-heavy"] = true
			if !(a.Factor > a.UpperBound) {
				t.Errorf("map-heavy audit: f=%v not above upper bound %v", a.Factor, a.UpperBound)
			}
			if a.MapTarget != a.PrevMapTarget+1 {
				t.Errorf("map-heavy audit: %d -> %d, want +1", a.PrevMapTarget, a.MapTarget)
			}
		case d.Reason == ReasonReduceHeavy:
			seen["reduce-heavy"] = true
			if !(a.Factor < a.LowerBound) {
				t.Errorf("reduce-heavy audit: f=%v not below lower bound %v", a.Factor, a.LowerBound)
			}
			if a.MapTarget != a.PrevMapTarget-1 {
				t.Errorf("reduce-heavy audit: %d -> %d, want -1", a.PrevMapTarget, a.MapTarget)
			}
		case strings.HasPrefix(d.Reason, ReasonThrashingPrefix):
			seen["thrashing"] = true
			if d.Reason != ReasonThrashing(a.PrevMapTarget) {
				t.Errorf("thrashing reason %q does not name the rolled-back count %d",
					d.Reason, a.PrevMapTarget)
			}
			if a.Suspects < 2 {
				t.Errorf("thrashing audit lost the confirmation count: suspects=%d", a.Suspects)
			}
			if a.Ceiling != a.MapTarget {
				t.Errorf("thrashing audit ceiling=%d, target=%d", a.Ceiling, a.MapTarget)
			}
		case d.Reason == ReasonTailRelease:
			seen["tail-release"] = true
			if !a.InTail || a.PendingMaps != 0 {
				t.Errorf("tail-release audit: inTail=%v pending=%d", a.InTail, a.PendingMaps)
			}
		case d.Reason == ReasonTailBoost:
			seen["tail-boost"] = true
			if !a.InTail {
				t.Errorf("tail-boost audit not marked inTail")
			}
			if a.ReduceTarget <= a.PrevReduceTarget {
				t.Errorf("tail-boost audit: reduces %d -> %d, want growth",
					a.PrevReduceTarget, a.ReduceTarget)
			}
		default:
			t.Errorf("decision %d has unknown reason %q", i, d.Reason)
		}
	}
	for _, want := range []string{"map-heavy", "reduce-heavy", "thrashing", "tail-release", "tail-boost"} {
		if !seen[want] {
			t.Errorf("vocabulary path %q never exercised; decisions: %+v", want, ds)
		}
	}
}

// TestExplainReturnsCopy mirrors the Decisions aliasing guarantee.
func TestExplainReturnsCopy(t *testing.T) {
	c, m := tickHarness(t)
	m.tick(c, frontStats(20, 100, 5000, 8))
	m.tick(c, frontStats(40, 100, 5000, 8))
	a := m.Explain()
	if len(a) != 1 {
		t.Fatalf("explain len = %d, want 1", len(a))
	}
	a[0].Reason = "mutated"
	if m.Explain()[0].Reason == "mutated" {
		t.Fatal("Explain aliases internal storage")
	}
}

// TestAuditRecordString smoke-checks the -explain rendering carries
// the decision line plus the inputs.
func TestAuditRecordString(t *testing.T) {
	c, m := tickHarness(t)
	m.tick(c, frontStats(20, 100, 5000, 8))
	m.tick(c, frontStats(40, 100, 5000, 8))
	s := m.Explain()[0].String()
	for _, want := range []string{ReasonMapHeavy, "bounds [0.80,1.30]", "window", "suspects=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("audit string missing %q:\n%s", want, s)
		}
	}
}

// TestManagerEmitsDecisionInstants asserts every setTargets decision
// lands on the controller track as an instant whose args reproduce the
// targets, alongside thrash and tail instants.
func TestManagerEmitsDecisionInstants(t *testing.T) {
	c, m := tickHarness(t)
	tr := trace.New(trace.Options{})
	m.AttachTracer(tr)
	driveAllReasons(t, m, c)
	// Every decision must have produced at least one instant; thrash
	// suspicion and tail conversion add more.
	if tr.Len() < len(m.Decisions())+2 {
		t.Fatalf("trace has %d events for %d decisions", tr.Len(), len(m.Decisions()))
	}
	sum := tr.Summary()
	for _, cat := range []string{"decision", "thrash", "tail"} {
		if !strings.Contains(sum, cat) {
			t.Errorf("trace summary missing category %q:\n%s", cat, sum)
		}
	}
}
