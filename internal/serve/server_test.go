package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smapreduce/internal/mr"
	"smapreduce/internal/serve/ledger"
)

// smallScenario is the suite's workhorse: tiny input so a run takes
// milliseconds of wall clock.
const smallScenario = `{"seed":3,"workers":4,"jobs":[{"bench":"grep","input_gb":1,"reduces":2}]}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func submitRun(t *testing.T, ts *httptest.Server, scenario string) RunInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(scenario))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs = %d: %s", resp.StatusCode, body)
	}
	var info RunInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	return info
}

// waitState polls until the run reaches the wanted state.
func waitState(t *testing.T, s *Server, id string, want RunState) *Run {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		run := s.reg.get(id)
		if run == nil {
			t.Fatalf("run %s vanished from registry", id)
		}
		if st, errMsg := run.State(); st == want {
			return run
		} else if st == StateFailed && want != StateFailed {
			t.Fatalf("run %s failed: %s", id, errMsg)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return nil
}

func getBody(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id   int
	name string
	data []byte
}

func parseSSE(t *testing.T, body []byte) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range bytes.Split(bytes.TrimSpace(body), []byte("\n\n")) {
		if len(block) == 0 {
			continue
		}
		var ev sseEvent
		for _, line := range bytes.Split(block, []byte("\n")) {
			switch {
			case bytes.HasPrefix(line, []byte("id: ")):
				n, err := strconv.Atoi(string(line[4:]))
				if err != nil {
					t.Fatalf("bad SSE id line %q", line)
				}
				ev.id = n
			case bytes.HasPrefix(line, []byte("event: ")):
				ev.name = string(line[7:])
			case bytes.HasPrefix(line, []byte("data: ")):
				ev.data = append([]byte(nil), line[6:]...)
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
		out = append(out, ev)
	}
	return out
}

// TestRunLifecycle drives the whole POST → run → artifacts → ledger
// path over HTTP.
func TestRunLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	info := submitRun(t, ts, smallScenario)
	if info.ID != "r000000" {
		t.Errorf("first run id = %s", info.ID)
	}
	waitState(t, s, info.ID, StateDone)

	code, body, _ := getBody(t, ts.URL+"/runs/"+info.ID)
	if code != http.StatusOK {
		t.Fatalf("GET run = %d", code)
	}
	var done RunInfo
	json.Unmarshal(body, &done)
	if done.State != StateDone || done.LedgerIndex != 0 || done.MerkleRoot == "" {
		t.Fatalf("run info after done: %+v", done)
	}

	// Every artifact serves with the right content type and non-empty
	// body; stats.json parses and matches the scenario.
	wantTypes := map[string]string{
		"scenario": "application/json", "log": "application/x-ndjson",
		"trace": "application/json", "audit": "text/plain; charset=utf-8",
		"telemetry": "application/x-ndjson", "stats": "application/json",
	}
	for route, ct := range wantTypes {
		code, body, hdr := getBody(t, ts.URL+"/runs/"+info.ID+"/"+route)
		if code != http.StatusOK || len(body) == 0 {
			t.Errorf("artifact %s: code %d, %d bytes", route, code, len(body))
		}
		if got := hdr.Get("Content-Type"); got != ct {
			t.Errorf("artifact %s content type = %q, want %q", route, got, ct)
		}
	}
	_, statsBody, _ := getBody(t, ts.URL+"/runs/"+info.ID+"/stats")
	var st runStats
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatalf("stats.json: %v", err)
	}
	if st.Engine != "SMapReduce" || st.Jobs != 1 || st.Workers != 4 || st.Seed != 3 {
		t.Errorf("stats header: %+v", st)
	}
	if len(st.JobDetails) != 1 || st.JobDetails[0].ExecutionS <= 0 {
		t.Errorf("stats job details: %+v", st.JobDetails)
	}

	// The scenario artifact is the canonical form of what we posted.
	_, scBody, _ := getBody(t, ts.URL+"/runs/"+info.ID+"/scenario")
	sc, err := ParseScenario([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := sc.Canonical()
	if !bytes.Equal(scBody, canonical) {
		t.Error("scenario artifact is not the canonical document")
	}

	// GET /ledger returns a verifiable chain whose artifact digests
	// match the bytes the artifact endpoints serve.
	code, ledgerBody, _ := getBody(t, ts.URL+"/ledger")
	if code != http.StatusOK {
		t.Fatalf("GET /ledger = %d", code)
	}
	var entries []ledger.Entry
	if err := json.Unmarshal(ledgerBody, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries", len(entries))
	}
	if err := ledger.VerifyChain(entries); err != nil {
		t.Fatalf("served chain fails verification: %v", err)
	}
	routeOf := map[string]string{
		ArtifactScenario: "scenario", ArtifactEvents: "log", ArtifactTrace: "trace",
		ArtifactAudit: "audit", ArtifactTelemetry: "telemetry", ArtifactStats: "stats",
	}
	err = ledger.VerifyArtifacts(entries[0], func(name string) ([]byte, error) {
		_, b, _ := getBody(t, ts.URL+"/runs/"+info.ID+"/"+routeOf[name])
		return b, nil
	})
	if err != nil {
		t.Fatalf("served artifacts do not match ledger: %v", err)
	}

	// Registry listing includes the run.
	code, listBody, _ := getBody(t, ts.URL+"/runs")
	var list []RunInfo
	json.Unmarshal(listBody, &list)
	if code != http.StatusOK || len(list) != 1 || list[0].ID != info.ID {
		t.Errorf("GET /runs = %d: %s", code, listBody)
	}
}

// TestSSEStream checks the stream shape: ids monotone from 0, started
// first, exactly one terminal done, progress counters monotone, and
// telemetry ticks present, row-aligned, numbered 1..N with no gaps,
// each followed at once by the sample progress frame at the same t.
func TestSSEStream(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	info := submitRun(t, ts, smallScenario)
	waitState(t, s, info.ID, StateDone)

	code, body, hdr := getBody(t, ts.URL+"/runs/"+info.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET events = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	events := parseSSE(t, body)
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].name != "started" {
		t.Errorf("first event %q", events[0].name)
	}
	if last := events[len(events)-1]; last.name != "done" {
		t.Errorf("last event %q", last.name)
	}
	var telemetrySeen, progressSeen, samplesSeen int
	lastFinished := 0
	for i, ev := range events {
		if ev.id != i {
			t.Fatalf("event %d has id %d", i, ev.id)
		}
		switch ev.name {
		case "progress":
			var p progressEvent
			if err := json.Unmarshal(ev.data, &p); err != nil {
				t.Fatal(err)
			}
			if p.JobsFinished < lastFinished {
				t.Errorf("jobs_finished regressed: %d after %d", p.JobsFinished, lastFinished)
			}
			lastFinished = p.JobsFinished
			progressSeen++
			if p.Milestone == mr.MilestoneSample {
				samplesSeen++
			}
		case "telemetry":
			var te telemetryEvent
			if err := json.Unmarshal(ev.data, &te); err != nil {
				t.Fatal(err)
			}
			if len(te.Names) == 0 || len(te.Names) != len(te.Values) {
				t.Errorf("telemetry tick %d: %d names, %d values", te.Seq, len(te.Names), len(te.Values))
			}
			telemetrySeen++
			if te.Seq != telemetrySeen {
				t.Errorf("telemetry seq %d, want %d", te.Seq, telemetrySeen)
			}
			var next progressEvent
			if i+1 == len(events) || events[i+1].name != "progress" {
				t.Fatalf("telemetry tick %d not followed by a progress frame", te.Seq)
			}
			if err := json.Unmarshal(events[i+1].data, &next); err != nil {
				t.Fatal(err)
			}
			if next.Milestone != mr.MilestoneSample || next.T != te.T {
				t.Errorf("telemetry tick %d at t=%v followed by %q at t=%v", te.Seq, te.T, next.Milestone, next.T)
			}
		case "done":
			var d doneEvent
			json.Unmarshal(ev.data, &d)
			if d.MerkleRoot == "" || len(d.Artifacts) != 6 {
				t.Errorf("done event: %s", ev.data)
			}
		}
	}
	if telemetrySeen == 0 || progressSeen == 0 || samplesSeen != telemetrySeen {
		t.Errorf("stream had %d telemetry, %d progress events (%d samples)", telemetrySeen, progressSeen, samplesSeen)
	}
	if lastFinished != 1 {
		t.Errorf("final jobs_finished = %d", lastFinished)
	}
}

// TestConcurrentSSESubscribers attaches several streams to a run
// pinned mid-execution; every subscriber must read the identical
// sealed stream.
func TestConcurrentSSESubscribers(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	hold := make(chan struct{})
	s.pool.hold = hold
	info := submitRun(t, ts, smallScenario)
	waitState(t, s, info.ID, StateRunning)

	const subscribers = 5
	bodies := make([][]byte, subscribers)
	var wg sync.WaitGroup
	wg.Add(subscribers)
	for i := 0; i < subscribers; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/runs/" + info.ID + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	close(hold)
	wg.Wait()
	for i := 1; i < subscribers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("subscriber %d read a different stream (%d vs %d bytes)",
				i, len(bodies[i]), len(bodies[0]))
		}
	}
	events := parseSSE(t, bodies[0])
	if events[len(events)-1].name != "done" {
		t.Errorf("shared stream does not end in done")
	}
}

// TestSaturationSheds pins both workers mid-run, fills the queue, and
// expects the next submission to shed with 429 + Retry-After while the
// pinned runs still complete.
func TestSaturationSheds(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, Queue: 2})
	hold := make(chan struct{})
	s.pool.hold = hold

	a := submitRun(t, ts, smallScenario)
	b := submitRun(t, ts, smallScenario)
	waitState(t, s, a.ID, StateRunning)
	waitState(t, s, b.ID, StateRunning)
	submitRun(t, ts, smallScenario) // queue slot 1
	submitRun(t, ts, smallScenario) // queue slot 2

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(hold)
	waitState(t, s, a.ID, StateDone)
	waitState(t, s, b.ID, StateDone)
	// The shed run must not linger in the registry.
	if n := len(s.reg.list()); n != 4 {
		t.Errorf("registry holds %d runs, want 4", n)
	}
}

// TestDeterministicArtifacts resubmits one scenario and requires
// byte-identical artifacts and identical ledger leaf hashes and Merkle
// roots; only the chain-position entry hashes differ.
func TestDeterministicArtifacts(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	scenario := `{"engine":"smapreduce","seed":11,"workers":6,
		"jobs":[{"bench":"terasort","input_gb":2,"reduces":4},{"bench":"grep","input_gb":1,"count":2,"stagger":3}],
		"chaos":"crash tt2 @15; rejoin tt2 @40"}`
	a := submitRun(t, ts, scenario)
	waitState(t, s, a.ID, StateDone)
	b := submitRun(t, ts, scenario)
	waitState(t, s, b.ID, StateDone)

	runA, runB := s.reg.get(a.ID), s.reg.get(b.ID)
	for _, name := range ArtifactNames() {
		if !bytes.Equal(runA.Artifact(name), runB.Artifact(name)) {
			t.Errorf("artifact %s differs across identical submissions", name)
		}
	}
	ea, eb := runA.LedgerEntry(), runB.LedgerEntry()
	for i := range ea.Artifacts {
		if ea.Artifacts[i].SHA256 != eb.Artifacts[i].SHA256 {
			t.Errorf("leaf %s hash differs", ea.Artifacts[i].Name)
		}
	}
	if ea.Root != eb.Root {
		t.Error("merkle roots differ for identical scenarios")
	}
	if ea.Hash == eb.Hash {
		t.Error("entry hashes collide across chain positions")
	}
	if eb.Prev != ea.Hash {
		t.Error("second entry not chained to the first")
	}
}

// TestArrivalScenario runs an open multi-tenant arrival stream on a
// capacity engine through the service.
func TestArrivalScenario(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	scenario := `{"engine":"fairshare","seed":5,"workers":6,"arrivals":{
		"horizon":120,"max_jobs":4,
		"tenants":[{"name":"etl","benchmarks":["grep"],"mean_interarrival":30,"input_mb_min":512,"input_mb_max":1024,"reduces":2},
		           {"name":"ads","benchmarks":["terasort"],"mean_interarrival":45,"input_mb_min":512,"input_mb_max":1024,"reduces":2}]}}`
	info := submitRun(t, ts, scenario)
	run := waitState(t, s, info.ID, StateDone)
	var st runStats
	if err := json.Unmarshal(run.Artifact(ArtifactStats), &st); err != nil {
		t.Fatal(err)
	}
	if st.Engine != "FairShare" || st.Jobs == 0 {
		t.Errorf("arrival stats: %+v", st)
	}
	for _, j := range st.JobDetails {
		if j.Tenant != "etl" && j.Tenant != "ads" {
			t.Errorf("job %s has tenant %q", j.Name, j.Tenant)
		}
	}
}

// TestSubmitRejections exercises the 4xx paths.
func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := []string{
		`{"jobs":[{"bench":"no-such-bench","input_gb":1}]}`,
		`{"engine":"mapreduce2","jobs":[{"bench":"grep","input_gb":1}]}`,
		`{}`, // no workload
		`{"jobs":[{"bench":"grep","input_gb":1}],"arrivals":{"horizon":10,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":5,"input_mb_min":64,"input_mb_max":128}]}}`,
		`{"jobs":[{"bench":"grep","input_gb":1}],"typo_field":1}`,
		`{"jobs":[{"bench":"grep","input_gb":1}],"chaos":"crash tt99 @5"}`,
		`not json`,
	}
	for _, scenario := range bad {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(scenario))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scenario %.40q = %d, want 400", scenario, resp.StatusCode)
		}
	}
}

// TestUnboundedScenarioRejectedPromptly posts the short bodies that
// used to exhaust memory (a hundred million jobs, or an arrival stream
// of a trillion) or wedge a worker (an infinite input size): each must
// get a prompt 400 from the handler, before any job spec exists, and
// the server stays up.
func TestUnboundedScenarioRejectedPromptly(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, body := range []string{
		`{"jobs":[{"bench":"grep","input_gb":1,"count":100000000}]}`,
		`{"jobs":[{"bench":"grep","input_gb":1e308}]}`,
		`{"workers":-4,"jobs":[{"bench":"grep","input_gb":1}]}`,
		`{"trace_verbosity":99,"jobs":[{"bench":"grep","input_gb":1}]}`,
		`{"jobs":[{"bench":"grep","input_gb":1,"submit_at":-5}]}`,
		`{"arrivals":{"horizon":1e9,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":0.001,"input_mb_min":1,"input_mb_max":1,"reduces":1}]}}`,
	} {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", body, resp.StatusCode)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s took %v to reject", body, d)
		}
	}
	submitRun(t, ts, smallScenario)
}

// TestNotFoundAndConflict covers unknown runs/artifacts and artifact
// fetches before completion.
func TestNotFoundAndConflict(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, url := range []string{"/runs/r999999", "/runs/r999999/events", "/runs/r999999/stats"} {
		if code, _, _ := getBody(t, ts.URL+url); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, code)
		}
	}
	hold := make(chan struct{})
	s.pool.hold = hold
	info := submitRun(t, ts, smallScenario)
	waitState(t, s, info.ID, StateRunning)
	if code, _, _ := getBody(t, ts.URL+"/runs/"+info.ID+"/stats"); code != http.StatusConflict {
		t.Errorf("artifact of a running run = %d, want 409", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/runs/"+info.ID+"/nonsense"); code != http.StatusNotFound {
		t.Errorf("unknown artifact = %d, want 404", code)
	}
	close(hold)
	waitState(t, s, info.ID, StateDone)
}

// TestAuxEndpoints covers /version, /healthz, and the legacy /metrics
// and /trace 404s when nothing is attached.
func TestAuxEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	code, body, _ := getBody(t, ts.URL+"/version")
	var v map[string]string
	json.Unmarshal(body, &v)
	if code != http.StatusOK || v["goversion"] == "" || v["version"] == "" {
		t.Errorf("/version = %d: %s", code, body)
	}
	code, body, _ = getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte("running")) {
		t.Errorf("/healthz = %d: %s", code, body)
	}
	s.MarkDone()
	_, body, _ = getBody(t, ts.URL+"/healthz")
	if !bytes.Contains(body, []byte("done")) {
		t.Errorf("/healthz after MarkDone: %s", body)
	}
	if code, _, _ := getBody(t, ts.URL+"/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics without collector = %d", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/trace"); code != http.StatusNotFound {
		t.Errorf("/trace without tracer = %d", code)
	}
}

// TestShutdownDrains verifies graceful shutdown: intake sheds with
// 503, queued runs still finish, and Shutdown is idempotent.
func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	info := submitRun(t, ts, smallScenario)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st, _ := s.reg.get(info.ID).State(); st != StateDone {
		t.Errorf("run state after drain = %s, want done", st)
	}
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", resp.StatusCode)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestArtifactDirPersistence checks the on-disk mirror: artifacts and
// ledger land under the store root, the persisted chain verifies, and
// a second server extends (not restarts) the chain.
func TestArtifactDirPersistence(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, ArtifactDir: dir})
	info := submitRun(t, ts, smallScenario)
	run := waitState(t, s, info.ID, StateDone)

	fetch := func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(dir, info.ID, name))
	}
	if err := ledger.VerifyArtifacts(*run.LedgerEntry(), fetch); err != nil {
		t.Fatalf("on-disk artifacts: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)

	s2, ts2 := newTestServer(t, Options{Workers: 1, ArtifactDir: dir})
	if s2.ledger.Len() != 1 {
		t.Fatalf("reopened ledger has %d entries", s2.ledger.Len())
	}
	info2 := submitRun(t, ts2, smallScenario)
	waitState(t, s2, info2.ID, StateDone)
	entries := s2.ledger.Entries()
	if len(entries) != 2 || entries[1].Prev != entries[0].Hash {
		t.Fatalf("chain did not extend across restart: %+v", entries)
	}
}
