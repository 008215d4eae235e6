package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"smapreduce/internal/mr"
	"smapreduce/internal/serve"
	"smapreduce/internal/trace"
)

// servedEpoch is how many runs one server handles before it is
// replaced. The registry keeps every finished run's artifacts, so a
// server that lived as long as the run would make later iterations pay
// for a heap that grows with run length; the growth is reported as
// serve.retained_mb_per_run instead. A short epoch also keeps the live
// heap small next to what one run allocates, so every run pays for
// about the same number of collections.
const servedEpoch = 4

// servedScenario is the POST /runs body for a seed: SMapReduce on 16
// trackers running a reduce-heavy terasort and a staggered map-heavy
// grep, under one tracker crash and rejoin and one slow node, with
// shuffle flows traced.
func servedScenario(seed uint64) []byte {
	sc := serve.Scenario{
		Engine:  "smapreduce",
		Seed:    seed,
		Workers: 16,
		Jobs: []serve.JobSet{
			{Bench: "terasort", InputGB: 48, Reduces: 16},
			{Bench: "grep", InputGB: 48, Reduces: 8, SubmitAt: 30},
		},
		Chaos:          "crash tt3 @20; rejoin tt3 @60; slow node5 @15 for 30 cpu 0.5 disk 0.5",
		TraceVerbosity: trace.VerbosityFlows,
	}
	b, err := json.Marshal(sc)
	if err != nil {
		panic(err) // a fixed struct of plain fields always marshals
	}
	return b
}

type served struct {
	body   []byte
	client *http.Client
	srv    *serve.Server
	base   string
}

func openServed(seed uint64) (instance, error) {
	body := servedScenario(seed)
	if _, err := serve.ParseScenario(body); err != nil {
		return nil, err
	}
	s := &served{
		body: body,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// start brings up a fresh in-process server with one simulation worker.
func (s *served) start() error {
	srv, err := serve.New(serve.Options{Workers: 1, Queue: 1})
	if err != nil {
		return err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	s.srv, s.base = srv, "http://"+srv.Addr()
	return nil
}

// stop drains the server and waits for its serve loop to exit.
func (s *served) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if werr := s.srv.Wait(); err == nil {
		err = werr
	}
	return err
}

func (s *served) renew() error {
	if err := s.stop(); err != nil {
		return err
	}
	return s.start()
}

func (s *served) epoch() int   { return servedEpoch }
func (s *served) close() error { return s.stop() }

// servedRun is what one served run returned to the client.
type servedRun struct {
	root                    string
	sseEvents, sseTelemetry int
	stats, trace, log       []byte
}

func (s *served) iterate(p *probe) (string, error) {
	r, err := s.serveOnce(p)
	if err != nil {
		return "", err
	}
	if p != nil {
		p.add("runs", 1)
		p.add("serve.sse_events", float64(r.sseEvents))
		p.add("telemetry.ticks", float64(r.sseTelemetry))
		p.add("serve.artifact_bytes", float64(len(r.stats)+len(r.trace)+len(r.log)))
	}
	return r.root, nil
}

// serveOnce submits the scenario, follows its event stream to the
// terminal event and fetches the stats, trace and event-log artifacts.
// Any error, non-2xx response or failed event fails the run.
func (s *served) serveOnce(p *probe) (*servedRun, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/runs", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return nil, err
	}
	body, err := readOK(resp, http.StatusAccepted)
	if err != nil {
		return nil, fmt.Errorf("POST /runs: %w", err)
	}
	var info serve.RunInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("POST /runs: %w", err)
	}
	t1 := time.Now()
	p.span("serve.submit", t1.Sub(t0))

	r := &servedRun{}
	started, err := s.follow(info.ID, r)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", info.ID, err)
	}
	t2 := time.Now()
	p.span("serve.queue", started.Sub(t1))
	p.span("serve.exec", t2.Sub(started))

	for _, a := range []struct {
		name string
		dst  *[]byte
	}{{"stats", &r.stats}, {"trace", &r.trace}, {"log", &r.log}} {
		resp, err := s.client.Get(s.base + "/runs/" + info.ID + "/" + a.name)
		if err != nil {
			return nil, err
		}
		if *a.dst, err = readOK(resp, http.StatusOK); err != nil {
			return nil, fmt.Errorf("GET %s: %w", a.name, err)
		}
	}
	p.span("serve.fetch", time.Since(t2))

	var st struct {
		Jobs        int      `json:"jobs"`
		LastFinishS *float64 `json:"last_finish_s"`
	}
	if err := json.Unmarshal(r.stats, &st); err != nil {
		return nil, fmt.Errorf("stats artifact: %w", err)
	}
	if st.Jobs != 2 || st.LastFinishS == nil || *st.LastFinishS <= 0 {
		return nil, fmt.Errorf("stats artifact: %d jobs, last finish %v; want 2 finished jobs", st.Jobs, st.LastFinishS)
	}
	return r, nil
}

// follow reads the run's SSE stream to its terminal event, recording
// the Merkle root and event counts in r. It returns when the started
// event arrived.
func (s *served) follow(id string, r *servedRun) (time.Time, error) {
	resp, err := s.client.Get(s.base + "/runs/" + id + "/events")
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("GET events: status %s", resp.Status)
	}
	var started time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		r.sseEvents++
		switch event {
		case "started":
			started = time.Now()
		case "telemetry":
			r.sseTelemetry++
		case "failed":
			return started, fmt.Errorf("failed event: %s", data)
		case "done":
			var done struct {
				MerkleRoot string `json:"merkle_root"`
			}
			if err := json.Unmarshal([]byte(data), &done); err != nil {
				return started, fmt.Errorf("done event: %w", err)
			}
			if started.IsZero() || done.MerkleRoot == "" {
				return started, fmt.Errorf("done event without a started event or Merkle root")
			}
			r.root = done.MerkleRoot
			return started, nil
		}
	}
	if err := sc.Err(); err != nil {
		return started, err
	}
	return started, fmt.Errorf("event stream ended without a terminal event")
}

// readOK reads and closes a response body, failing on an unexpected
// status.
func readOK(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// faultKinds are the event-log kinds that mark a fault taking effect.
var faultKinds = map[mr.EventKind]bool{
	mr.EvTrackerDown:   true,
	mr.EvTrackerRejoin: true,
	mr.EvTrackerHBLost: true,
	mr.EvNodeDegraded:  true,
	mr.EvLinkDegraded:  true,
	mr.EvFaultError:    true,
}

// census serves one more run and counts what its artifacts hold.
func (s *served) census(p *probe) error {
	r, err := s.serveOnce(nil)
	if err != nil {
		return err
	}
	spans, flows, err := traceSpans(r.trace)
	if err != nil {
		return fmt.Errorf("trace artifact: %w", err)
	}
	var st struct {
		LastFinishS       float64 `json:"last_finish_s"`
		Decisions         int     `json:"decisions"`
		CapacityDecisions int     `json:"capacity_decisions"`
	}
	if err := json.Unmarshal(r.stats, &st); err != nil {
		return fmt.Errorf("stats artifact: %w", err)
	}
	records, faults := 0, 0
	tasks := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(r.log))
	for dec.More() {
		var ev mr.Event
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("event log artifact: %w", err)
		}
		records++
		if faultKinds[ev.Kind] {
			faults++
		}
		if ev.Kind == mr.EvTaskStarted {
			tasks[ev.Job+" "+ev.Task] = true
		}
	}
	p.add("runs", 1)
	p.add("netsim.flows", float64(flows))
	p.add("trace.spans", float64(spans))
	p.add("events.records", float64(records))
	p.add("chaos.faults", float64(faults))
	p.add("mr.tasks", float64(len(tasks)))
	p.add("sim.virtual_s", st.LastFinishS)
	p.add("core.decisions", float64(st.Decisions))
	p.add("policy.decisions", float64(st.CapacityDecisions))
	return nil
}
