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

// TestServeOnly boots -serve-only in-process on an ephemeral port,
// runs one small scenario over HTTP to its done state, then sends the
// stop signal and requires run to drain and return nil.
func TestServeOnly(t *testing.T) {
	outR, outW := io.Pipe()
	var stderr bytes.Buffer
	stop := make(chan os.Signal, 1)
	t.Cleanup(func() { // drain the service if the test fails before stopping it
		select {
		case stop <- os.Interrupt:
		default:
		}
	})
	exited := make(chan error, 1)
	go func() {
		err := run([]string{"-serve-only", "-serve", "127.0.0.1:0", "-serve-workers", "1", "-drain", "10s"},
			outW, &stderr, func() <-chan os.Signal { return stop })
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
	base := "http://" + addr

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

	stop <- os.Interrupt
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
