package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// startServing runs smrsim in-process with args, which must bring the
// service up, and returns its base URL once the listening line is on
// stdout. stop sends the injected stop signal and requires run to
// drain, report the drain on stderr and return nil.
func startServing(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	outR, outW := io.Pipe()
	var stderr bytes.Buffer
	sig := make(chan os.Signal, 1)
	t.Cleanup(func() { // drain the service if the test fails before stopping it
		select {
		case sig <- os.Interrupt:
		default:
		}
	})
	exited := make(chan error, 1)
	go func() {
		err := run(args, outW, &stderr, func() <-chan os.Signal { return sig })
		outW.Close()
		exited <- err
	}()

	out := bufio.NewReader(outR)
	line, err := out.ReadString('\n')
	if err != nil {
		t.Fatalf("reading the listening line: %v", err)
	}
	go io.Copy(io.Discard, out)
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "smrsim: listening on ")
	if !ok {
		t.Fatalf("first stdout line %q is not the listening line", line)
	}
	return "http://" + addr, func() {
		t.Helper()
		sig <- os.Interrupt
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("run returned %v after the drain", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after the stop signal")
		}
		if !strings.Contains(stderr.String(), "draining runs") {
			t.Errorf("stderr does not report the drain:\n%s", stderr.String())
		}
	}
}

// TestServeOnly boots -serve-only in-process on an ephemeral port,
// runs one small scenario over HTTP to its done state, then sends the
// stop signal and requires run to drain and return nil.
func TestServeOnly(t *testing.T) {
	base, stop := startServing(t, "-serve-only", "-serve", "127.0.0.1:0", "-serve-workers", "1", "-drain", "10s")

	scenario := `{"engine":"smapreduce","seed":7,"workers":4,"jobs":[{"bench":"grep","input_gb":1,"reduces":2}]}`
	resp, err := http.Post(base+"/runs", "application/json", strings.NewReader(scenario))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || info.ID == "" {
		t.Fatalf("POST /runs: status %d, %+v, %v", resp.StatusCode, info, err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for info.State != "done" {
		if info.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("run %s ended in %q (%s), want done", info.ID, info.State, info.Error)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/runs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	stop()
}

// TestServeAfterRun runs a local simulation with -serve in-process on
// an ephemeral port, polls /healthz until the run reports done, then
// requires /metrics to carry the run's telemetry gauges and /trace to
// be a Chrome trace with events. The stop signal must drain the
// service and make run return nil.
func TestServeAfterRun(t *testing.T) {
	base, stop := startServing(t, "-bench", "grep", "-input-gb", "1", "-workers", "4", "-serve", "127.0.0.1:0")
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v\n%s", path, resp.StatusCode, err, body)
		}
		return body
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var health struct{ Status string }
		if err := json.Unmarshal(get("/healthz"), &health); err != nil {
			t.Fatal(err)
		}
		if health.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz still %q after 30 s", health.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	gauges := 0
	for _, l := range strings.Split(string(get("/metrics")), "\n") {
		if strings.HasPrefix(l, "# TYPE smr_") && !strings.HasPrefix(l, "# TYPE smr_build_info ") {
			gauges++
		}
	}
	if gauges == 0 {
		t.Error("/metrics carries no smr_ telemetry gauge")
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/trace"), &chrome); err != nil {
		t.Fatalf("/trace is not Chrome JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("/trace has no traceEvents")
	}
	stop()
}
