package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestCanonicalStable pins the canonicalisation contract: documents
// differing only in whitespace or key order render identical bytes.
func TestCanonicalStable(t *testing.T) {
	a, err := ParseScenario([]byte(`{"seed":3,"workers":4,"jobs":[{"bench":"grep","input_gb":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseScenario([]byte("{\n  \"jobs\": [ {\"input_gb\": 1, \"bench\": \"grep\"} ],\n  \"workers\": 4,\n  \"seed\": 3\n}"))
	if err != nil {
		t.Fatal(err)
	}
	ca, _ := a.Canonical()
	cb, _ := b.Canonical()
	if !bytes.Equal(ca, cb) {
		t.Errorf("canonical forms differ:\n%s\n---\n%s", ca, cb)
	}
	// Canonical output re-parses to the same scenario.
	again, err := ParseScenario(ca)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	cc, _ := again.Canonical()
	if !bytes.Equal(ca, cc) {
		t.Error("canonicalisation is not idempotent")
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown field", `{"jobs":[{"bench":"grep","input_gb":1}],"typo":1}`, "unknown field"},
		{"trailing data", `{"jobs":[{"bench":"grep","input_gb":1}]} {"x":1}`, "trailing data"},
		{"no workload", `{}`, "exactly one of"},
		{"both workloads", `{"jobs":[{"bench":"grep","input_gb":1}],"arrivals":{"horizon":10,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":5,"input_mb_min":64,"input_mb_max":128}]}}`, "exactly one of"},
		{"bad engine", `{"engine":"spark","jobs":[{"bench":"grep","input_gb":1}]}`, "engine"},
		{"bad bench", `{"jobs":[{"bench":"wordfrequency","input_gb":1}]}`, "jobs[0]"},
		{"bad chaos", `{"jobs":[{"bench":"grep","input_gb":1}],"chaos":"crash @nonsense"}`, "chaos"},
		{"empty chaos", `{"jobs":[{"bench":"grep","input_gb":1}],"chaos":"# only a comment"}`, "no faults"},
		{"chaos out of range", `{"workers":4,"jobs":[{"bench":"grep","input_gb":1}],"chaos":"crash tt9 @5"}`, "chaos"},
		{"bad arrivals", `{"arrivals":{"horizon":10,"tenants":[]}}`, "scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestJobSpecNaming pins the per-set prefixing rules: a single
// one-job set keeps the bare benchmark name, multi-set scenarios
// prefix with the set index.
func TestJobSpecNaming(t *testing.T) {
	single, err := ParseScenario([]byte(`{"jobs":[{"bench":"grep","input_gb":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := single.Plan()
	if err != nil {
		t.Fatal(err)
	}
	specs := plan.Specs
	if len(specs) != 1 || specs[0].Name != "grep-1" {
		t.Errorf("single-set specs: %+v", specs)
	}

	multi, err := ParseScenario([]byte(`{"jobs":[
		{"bench":"grep","input_gb":1,"submit_at":10},
		{"bench":"terasort","input_gb":1,"count":2,"stagger":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = multi.Plan(); err != nil {
		t.Fatal(err)
	}
	specs = plan.Specs
	if len(specs) != 3 {
		t.Fatalf("multi-set spec count = %d", len(specs))
	}
	wantNames := []string{"s0-grep-1", "s1-terasort-1", "s1-terasort-2"}
	wantAt := []float64{10, 0, 5}
	for i, sp := range specs {
		if sp.Name != wantNames[i] || sp.SubmitAt != wantAt[i] {
			t.Errorf("spec %d = %s@%.0f, want %s@%.0f", i, sp.Name, sp.SubmitAt, wantNames[i], wantAt[i])
		}
	}
}

// TestHubReplayAndSeal covers the stream lifecycle outside HTTP: late
// subscription replays the sealed stream, publish after terminate is
// a no-op, and cancel is idempotent.
func TestHubReplayAndSeal(t *testing.T) {
	h := newHub()
	h.publish("started", map[string]int{"n": 1})
	replay, live, cancel := h.subscribe()
	if len(replay) != 1 {
		t.Fatalf("replay %d events", len(replay))
	}
	h.publish("progress", map[string]int{"n": 2})
	h.terminate("done", map[string]int{"n": 3})
	var got []string
	for ev := range live {
		got = append(got, ev.Name)
	}
	if len(got) != 2 || got[0] != "progress" || got[1] != "done" {
		t.Fatalf("live events: %v", got)
	}
	cancel()
	cancel() // idempotent after stream end

	if !h.terminated() {
		t.Error("hub not terminated")
	}
	h.publish("progress", map[string]int{"n": 4}) // sealed: dropped
	replay, live, cancel = h.subscribe()
	defer cancel()
	if len(replay) != 3 {
		t.Errorf("post-seal replay has %d events", len(replay))
	}
	if _, ok := <-live; ok {
		t.Error("live channel open after seal")
	}
	for i, want := range []int{0, 1, 2} {
		if replay[i].ID != want {
			t.Errorf("replay[%d].ID = %d", i, replay[i].ID)
		}
	}
}

// TestHubEviction fills the replay buffer past its limit and checks
// the oldest half is evicted while IDs stay monotone.
func TestHubEviction(t *testing.T) {
	h := newHub()
	total := hubReplayLimit + 10
	for i := 0; i < total; i++ {
		h.publish("progress", i)
	}
	replay, _, cancel := h.subscribe()
	defer cancel()
	if len(replay) > hubReplayLimit {
		t.Fatalf("replay holds %d events, limit %d", len(replay), hubReplayLimit)
	}
	// The oldest events went first: the replay starts at the first
	// one not evicted.
	if first, evicted := replay[0].ID, total-len(replay); first != evicted {
		t.Errorf("first replayed ID = %d, want %d (the evicted count)", first, evicted)
	}
	for i := 1; i < len(replay); i++ {
		if replay[i].ID != replay[i-1].ID+1 {
			t.Fatalf("IDs not contiguous at %d", i)
		}
	}
	if last := replay[len(replay)-1].ID; last != total-1 {
		t.Errorf("newest replay ID = %d, want %d", last, total-1)
	}
}

// TestRegistryRemove pins that removal only forgets the given run and
// IDs never recycle.
func TestRegistryRemove(t *testing.T) {
	g := newRegistry()
	sc, err := ParseScenario([]byte(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := sc.Canonical()
	a := g.add(sc, canonical)
	b := g.add(sc, canonical)
	g.remove(b.ID)
	c := g.add(sc, canonical)
	if c.ID == b.ID {
		t.Errorf("ID %s recycled", c.ID)
	}
	if g.get(b.ID) != nil {
		t.Error("removed run still resolvable")
	}
	list := g.list()
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != c.ID {
		t.Errorf("listing after remove: %+v", list)
	}
}

// TestJSONFloatNulls pins NaN/Inf rendering in artifacts and stream
// payloads.
func TestJSONFloatNulls(t *testing.T) {
	if got, err := jsonFloat(1.5).MarshalJSON(); err != nil || string(got) != "1.5" {
		t.Errorf("jsonFloat(1.5) = %s, %v", got, err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := jsonFloat(v).MarshalJSON()
		if err != nil || string(got) != "null" {
			t.Errorf("jsonFloat(%v) = %s, %v", v, got, err)
		}
	}
}
