package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"smapreduce/internal/serve/ledger"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// TestRealServerLifecycle exercises the production path the httptest
// suite bypasses: a real listener via Start, /metrics and /trace with
// a live collector and tracer attached, then Shutdown and Wait.
func TestRealServerLifecycle(t *testing.T) {
	col := telemetry.NewCollector(8)
	col.Register("cluster/running-maps", func() float64 { return 3 })
	col.Tick(1)
	tr := trace.New(trace.Options{})
	tr.Instant(1, 1, "test", "marker")

	s, err := New(Options{Workers: 1, Collector: col, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != "" {
		t.Errorf("Addr before Start = %q", s.Addr())
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	code, body, hdr := getBody(t, base+"/metrics")
	if code != http.StatusOK || !bytes.Contains(body, []byte("smr_build_info")) {
		t.Errorf("/metrics = %d: %.120s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	code, body, _ = getBody(t, base+"/trace")
	if code != http.StatusOK || !bytes.Contains(body, []byte("marker")) {
		t.Errorf("/trace = %d: %.120s", code, body)
	}

	resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs over real listener = %d", resp.StatusCode)
	}
	waitState(t, s, "r000000", StateDone)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("wait after shutdown: %v", err)
	}
}

// TestPanicBecomesFailure pins the worker's recover path: a panic
// while finishing a run must fail that run (with a terminal failed
// event), not kill the worker.
func TestPanicBecomesFailure(t *testing.T) {
	calls := 0
	p := newPool(1, 1, func(r *Run, arts map[string][]byte) error {
		calls++
		if calls == 1 {
			panic("ledger exploded")
		}
		r.complete(arts, ledger.Entry{})
		return nil
	})
	defer p.drain()
	g := newRegistry()
	sc, err := ParseScenario([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := sc.Canonical()

	a := g.add(sc, canonical)
	if err := p.submit(a); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a)
	if st, msg := a.State(); st != StateFailed || !strings.Contains(msg, "ledger exploded") {
		t.Fatalf("after panic: state %s, err %q", st, msg)
	}
	// The state turns failed just before the terminal event is
	// published, so collect the live tail until the stream closes.
	replay, live, cancel := a.hub.subscribe()
	for ev := range live {
		replay = append(replay, ev)
	}
	cancel()
	if last := replay[len(replay)-1]; last.Name != "failed" {
		t.Errorf("terminal event %q", last.Name)
	}

	// The worker survived: the next run completes.
	b := g.add(sc, canonical)
	if err := p.submit(b); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, b)
	if st, msg := b.State(); st != StateDone {
		t.Fatalf("run after panic: state %s, err %q", st, msg)
	}
}

// TestFinishErrorFailsRun pins the non-panic finish failure path.
func TestFinishErrorFailsRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	run := s.reg.add(Scenario{}, nil)
	if err := s.finishRun(run, map[string][]byte{}); err == nil ||
		!strings.Contains(err.Error(), "missing artifact") {
		t.Errorf("finishRun with no artifacts: %v", err)
	}
	_ = ts
}

// TestShutdownAbandonsStuckDrain bounds the drain: an expired context
// reports the abandonment instead of hanging.
func TestShutdownAbandonsStuckDrain(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	hold := make(chan struct{})
	s.pool.hold = hold
	sc, _ := ParseScenario([]byte(smallScenario))
	canonical, _ := sc.Canonical()
	run := s.reg.add(sc, canonical)
	if err := s.pool.submit(run); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, run.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "drain abandoned") {
		t.Fatalf("shutdown with pinned worker: %v", err)
	}
	close(hold) // release the worker so the test process drains cleanly
}

// TestOversizedScenarioRejected pins the request body cap.
func TestOversizedScenarioRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	huge := `{"jobs":[{"bench":"grep","input_gb":1}],"chaos":"` +
		strings.Repeat("#", maxScenarioBytes) + `"}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST = %d, want 413", resp.StatusCode)
	}
}

// waitTerminal polls a run until done or failed.
func waitTerminal(t *testing.T, r *Run) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := r.State(); st == StateDone || st == StateFailed {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never terminated", r.ID)
}
