package trace

import (
	"strings"
	"testing"
)

func TestTracerResetMatchesFresh(t *testing.T) {
	drive := func(tr *Tracer) ([]SpanRef, string) {
		tr.SetTrackName(PIDJobs, "jobs")
		var refs []SpanRef
		r1 := tr.Begin(0, PIDJobs, "job", "j0")
		r2 := tr.Begin(1, PIDJobs, "job", "j1")
		refs = append(refs, r1, r2)
		tr.End(2, r1, Num("n", 1))
		r3 := tr.Begin(3, PIDJobs, "job", "j2") // reuses j0's lane and slot
		refs = append(refs, r3)
		tr.End(4, r2)
		tr.End(5, r3)
		tr.Instant(6, PIDController, "tick", "t")
		var b strings.Builder
		if err := tr.WriteChromeJSON(&b); err != nil {
			t.Fatal(err)
		}
		return refs, b.String() + tr.Summary()
	}
	reused := New(Options{})
	drive(reused)
	reused.Reset()
	fresh := New(Options{})
	wantRefs, wantSum := drive(fresh)
	gotRefs, gotSum := drive(reused)
	for i := range wantRefs {
		// A reset tracer must hand out the exact same refs as a fresh
		// one: span slots, generations and lanes all restart.
		if wantRefs[i] != gotRefs[i] {
			t.Fatalf("ref %d differs: fresh %#x, reused %#x", i, int64(wantRefs[i]), int64(gotRefs[i]))
		}
	}
	if wantSum != gotSum {
		t.Fatalf("summaries differ:\nfresh:\n%s\nreused:\n%s", wantSum, gotSum)
	}
}

func TestTracerResetClearsState(t *testing.T) {
	tr := New(Options{})
	ref := tr.Begin(0, PIDJobs, "job", "j")
	tr.Instant(1, PIDJobs, "i", "x")
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.OpenSpans() != 0 || tr.Began() != 0 {
		t.Fatalf("state after Reset: len=%d dropped=%d open=%d began=%d",
			tr.Len(), tr.Dropped(), tr.OpenSpans(), tr.Began())
	}
	// Ending a pre-reset ref is a harmless no-op: its slot is gone.
	tr.End(2, ref)
	if tr.Len() != 0 {
		t.Fatal("stale ref End recorded an event after Reset")
	}
}

func TestNilTracerReset(t *testing.T) {
	var tr *Tracer
	tr.Reset() // must not panic
}
