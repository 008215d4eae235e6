package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSpanLifecycleAndLanes(t *testing.T) {
	tr := New(Options{})
	tr.SetTrackName(PIDJobs, "jobs")
	// Two overlapping spans on one track must land on distinct lanes;
	// after both end, the lanes free and the next span reuses lane 0.
	a := tr.Begin(1.0, PIDJobs, "task", "m0")
	b := tr.Begin(1.5, PIDJobs, "task", "m1")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad refs a=%d b=%d", a, b)
	}
	tr.End(2.0, a)
	tr.End(3.0, b)
	c := tr.Begin(4.0, PIDJobs, "task", "m2")
	tr.End(5.0, c)
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("OpenSpans = %d, want 0", got)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Cat  string  `json:"cat"`
			Name string  `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 metadata + 3 complete events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("traceEvents = %d, want 4", len(doc.TraceEvents))
	}
	lanes := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			lanes[e.Name] = e.Tid
			if e.Dur <= 0 {
				t.Errorf("span %s has dur %v", e.Name, e.Dur)
			}
		}
	}
	if lanes["m0"] == lanes["m1"] {
		t.Errorf("overlapping spans share lane %d", lanes["m0"])
	}
	if lanes["m2"] != 0 {
		t.Errorf("post-release span on lane %d, want 0 (reuse)", lanes["m2"])
	}
	// Seconds → microseconds scaling.
	for _, e := range doc.TraceEvents {
		if e.Name == "m0" && e.Ts != 1e6 {
			t.Errorf("m0 ts = %v, want 1e6", e.Ts)
		}
	}
}

func TestOpenSpansExportAsBegin(t *testing.T) {
	tr := New(Options{})
	tr.Begin(1.0, PIDJobs, "job", "running")
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"B"`) {
		t.Fatalf("open span missing from export: %s", buf.String())
	}
	if got := tr.OpenSpans(); got != 1 {
		t.Fatalf("OpenSpans = %d, want 1", got)
	}
}

func TestEndIsIdempotentAndZeroRefSafe(t *testing.T) {
	tr := New(Options{})
	tr.End(1.0, 0) // zero ref: no-op
	a := tr.Begin(1.0, PIDJobs, "task", "m0")
	tr.End(2.0, a)
	tr.End(3.0, a) // double end: no-op
	if got := tr.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	// The freed slot must be reusable without corrupting the old ref.
	b := tr.Begin(4.0, PIDJobs, "task", "m1")
	tr.End(5.0, a) // stale ref now aliases b's slot? must not close b.
	if got := tr.OpenSpans(); got != 1 {
		t.Fatalf("OpenSpans after stale End = %d, want 1", got)
	}
	tr.End(6.0, b)
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("OpenSpans = %d, want 0", got)
	}
}

func TestEvictionCountsDropped(t *testing.T) {
	tr := New(Options{})
	tr.limit = 4
	for i := 0; i < 6; i++ {
		tr.Instant(float64(i), PIDJobs, "x", "e")
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops beyond limit")
	}
	if got := tr.Len(); got > 4 {
		t.Fatalf("Len = %d beyond limit 4", got)
	}
	if tr.Dropped()+tr.Len() != 6 {
		t.Fatalf("dropped %d + len %d != 6", tr.Dropped(), tr.Len())
	}
}

func TestFieldsExportAndNonFinite(t *testing.T) {
	tr := New(Options{})
	tr.Instant(1.0, PIDController, "decision", "d",
		Str("reason", "map-heavy"), Num("f", 1.25), Num("bad", math.NaN()), Num("inf", math.Inf(1)))
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	args := doc.TraceEvents[0].Args
	if args["reason"] != "map-heavy" {
		t.Errorf("reason = %v", args["reason"])
	}
	if args["f"] != 1.25 {
		t.Errorf("f = %v", args["f"])
	}
	if v, ok := args["bad"]; !ok || v != nil {
		t.Errorf("NaN field = %v, want null", v)
	}
	if v, ok := args["inf"]; !ok || v != nil {
		t.Errorf("Inf field = %v, want null", v)
	}
}

func TestSummary(t *testing.T) {
	tr := New(Options{})
	a := tr.Begin(0, PIDJobs, "map", "m0")
	tr.End(10, a)
	tr.Instant(5, PIDController, "decision", "d")
	s := tr.Summary()
	for _, want := range []string{"map", "decision", "events=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if got := (*Tracer)(nil).Summary(); !strings.Contains(got, "disabled") {
		t.Errorf("nil summary = %q", got)
	}
}

// TestNilTracerZeroAlloc pins the disabled-tracing cost: every method
// on a nil *Tracer must be allocation-free. Arg-bearing call sites in
// the runtime additionally guard with Enabled() because building the
// variadic Field slice itself allocates.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("nil tracer claims enabled")
		}
		ref := tr.Begin(1.0, PIDJobs, "task", "m")
		tr.End(2.0, ref)
		tr.Instant(1.5, PIDController, "decision", "d")
		tr.SetTrackName(PIDJobs, "jobs")
		_ = tr.Verbosity()
		_ = tr.Len()
		_ = tr.Dropped()
		_ = tr.OpenSpans()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates %.1f per op, want 0", allocs)
	}
}

func TestVerbosity(t *testing.T) {
	if got := (*Tracer)(nil).Verbosity(); got != 0 {
		t.Fatalf("nil verbosity = %d", got)
	}
	if got := New(Options{Verbosity: VerbosityAllFlows}).Verbosity(); got != VerbosityAllFlows {
		t.Fatalf("verbosity = %d", got)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	tr := New(Options{})
	a := tr.Begin(5.0, PIDJobs, "task", "m")
	tr.End(4.0, a) // clock never goes backwards, but clamp defensively
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"dur":-`) {
		t.Fatalf("negative dur exported: %s", buf.String())
	}
}
