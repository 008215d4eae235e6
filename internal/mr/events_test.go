package mr

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"smapreduce/internal/telemetry"
)

func TestEventLogCollectsLifecycle(t *testing.T) {
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(0)
	jobs, err := c.Run(grepJob(1024))
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	if n := len(log.Filter(EvJobSubmitted)); n != 1 {
		t.Fatalf("submitted events = %d", n)
	}
	if n := len(log.Filter(EvJobFinished)); n != 1 {
		t.Fatalf("finished events = %d", n)
	}
	if n := len(log.Filter(EvBarrier)); n != 1 {
		t.Fatalf("barrier events = %d", n)
	}
	if n := len(log.Filter(EvTaskStarted)); n != j.NumMaps()+j.NumReduces() {
		t.Fatalf("task starts = %d, want %d", n, j.NumMaps()+j.NumReduces())
	}
	if n := len(log.Filter(EvTaskDone)); n != j.NumMaps()+j.NumReduces() {
		t.Fatalf("task dones = %d, want %d", n, j.NumMaps()+j.NumReduces())
	}
	// Events are time-ordered.
	evs := log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("event log out of order")
		}
	}
}

func TestEventLogFailureEvents(t *testing.T) {
	cfg := failureConfig()
	c := MustNewCluster(cfg)
	log := c.EnableEventLog(0)
	c.ScheduleFailure(2, 10)
	if _, err := c.Run(JobSpec{Name: "ts", Profile: terasortJob(4096).Profile, InputMB: 4096, Reduces: 8}); err != nil {
		t.Fatal(err)
	}
	if len(log.Filter(EvTrackerDown)) != 1 {
		t.Fatal("no tracker-failed event")
	}
	if len(log.Filter(EvRequeued)) == 0 {
		t.Fatal("no requeue events after mid-run failure")
	}
}

func TestEventLogJSONL(t *testing.T) {
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(0)
	if _, err := c.Run(grepJob(512)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := log.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(log.Events()) {
		t.Fatalf("jsonl lines = %d, events = %d", len(lines), len(log.Events()))
	}
	if !strings.Contains(lines[0], `"kind":"job-submitted"`) {
		t.Fatalf("first line = %s", lines[0])
	}
}

func TestEventLogCapDropsOldest(t *testing.T) {
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(16)
	if _, err := c.Run(grepJob(2048)); err != nil {
		t.Fatal(err)
	}
	if len(log.Events()) > 16 {
		t.Fatalf("log grew past cap: %d", len(log.Events()))
	}
	if log.Dropped == 0 {
		t.Fatal("cap never dropped despite many events")
	}
	// The tail must still end with job-finished.
	evs := log.Events()
	if evs[len(evs)-1].Kind != EvJobFinished {
		t.Fatalf("last event = %s", evs[len(evs)-1].Kind)
	}
}

// emitN emits n synthetic events with sequential Detail payloads so
// eviction tests can identify exactly which entries survived.
func emitN(c *Cluster, n int) {
	for i := 0; i < n; i++ {
		c.note(transition{kind: EvFaultError, tracker: 0, text: strconv.Itoa(i)})
	}
}

func TestEventLogLimitOneStillEvicts(t *testing.T) {
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(1)
	emitN(c, 5)
	if n := len(log.Events()); n != 1 {
		t.Fatalf("log length = %d, want 1 (eviction was a no-op for limit 1)", n)
	}
	if log.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4", log.Dropped)
	}
	if got := log.Events()[0].Detail; got != "4" {
		t.Fatalf("surviving event = %q, want the newest (\"4\")", got)
	}
}

func TestEventLogDroppedAccounting(t *testing.T) {
	c := MustNewCluster(smallConfig())
	const limit, emitted = 8, 50
	log := c.EnableEventLog(limit)
	emitN(c, emitted)
	evs := log.Events()
	if len(evs) > limit {
		t.Fatalf("log length %d exceeds limit %d", len(evs), limit)
	}
	if log.Dropped+len(evs) != emitted {
		t.Fatalf("Dropped (%d) + retained (%d) != emitted (%d)", log.Dropped, len(evs), emitted)
	}
	// The retained window is the contiguous newest suffix.
	for i, e := range evs {
		if want := strconv.Itoa(log.Dropped + i); e.Detail != want {
			t.Fatalf("event %d detail = %q, want %q", i, e.Detail, want)
		}
	}
}

func TestEventLogJSONLAfterEviction(t *testing.T) {
	c := MustNewCluster(smallConfig())
	const limit, emitted = 8, 50
	log := c.EnableEventLog(limit)
	emitN(c, emitted)
	var b strings.Builder
	if err := log.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	evs := log.Events()
	if len(lines) != len(evs) {
		t.Fatalf("jsonl lines = %d, events = %d", len(lines), len(evs))
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.Detail != evs[i].Detail {
			t.Fatalf("line %d detail = %q, events()[%d] = %q", i, e.Detail, i, evs[i].Detail)
		}
		if want := strconv.Itoa(log.Dropped + i); e.Detail != want {
			t.Fatalf("line %d detail = %q, want %q (ordering after eviction)", i, e.Detail, want)
		}
	}
	// The text rendering says how many events it lost, then renders
	// the retained window in the same order.
	b.Reset()
	if err := log.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := strings.Split(strings.TrimSpace(b.String()), "\n")
	if want := fmt.Sprintf("(%d earlier events dropped)", log.Dropped); text[0] != want || len(text) != len(evs)+1 {
		t.Fatalf("text log starts %q with %d lines, want %q and %d", text[0], len(text), want, len(evs)+1)
	}
	if want := "[     0.00] fault-error tt0: " + strconv.Itoa(log.Dropped); text[1] != want {
		t.Fatalf("first retained text line = %q, want %q", text[1], want)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(4)
	emitN(c, 4)
	snap := log.Events()
	before := fmt.Sprint(snap)
	// Trigger an in-place compaction plus further appends; a snapshot
	// aliasing the internal slice would see its entries rewritten.
	emitN(c, 10)
	if after := fmt.Sprint(snap); after != before {
		t.Fatalf("snapshot mutated by later events:\nbefore %s\nafter  %s", before, after)
	}
	// Mutating the snapshot must not leak into the log.
	snap2 := log.Events()
	snap2[0].Detail = "mutated"
	if log.Events()[0].Detail == "mutated" {
		t.Fatal("mutating the returned slice changed the log")
	}
}

func TestEventLogDisabledIsFree(t *testing.T) {
	c := MustNewCluster(smallConfig())
	if _, err := c.Run(grepJob(512)); err != nil {
		t.Fatal(err)
	}
	// No panic, no log: emit must be a no-op without EnableEventLog.
}

// TestUtilisationSeries checks the cluster-wide utilisation probes the
// telemetry collector samples: occupied slots and heartbeat-smoothed
// rates, summed over the trackers.
func TestUtilisationSeries(t *testing.T) {
	c := MustNewCluster(smallConfig())
	col := telemetry.NewCollector(0)
	c.EnableTelemetry(col)
	if _, err := c.Run(grepJob(2048)); err != nil {
		t.Fatal(err)
	}
	series := map[string]*telemetry.Series{}
	peak := map[string]float64{}
	for _, name := range []string{"cluster/running-maps", "cluster/running-reduces", "cluster/map-input-MBps", "cluster/shuffle-MBps"} {
		s := col.Get(name)
		if s == nil || s.Len() == 0 {
			t.Fatalf("utilisation series %s empty", name)
		}
		series[name] = s
		for _, p := range s.Points() {
			peak[name] = max(peak[name], p.V)
		}
	}
	// Peak concurrency is bounded by the slot configuration.
	if p := peak["cluster/running-maps"]; p > float64(smallConfig().Workers*smallConfig().MaxMapSlots) {
		t.Fatalf("running maps peak %v exceeds slot capacity", p)
	}
	if peak["cluster/running-maps"] <= 0 {
		t.Fatal("running maps never rose above zero")
	}
	if peak["cluster/map-input-MBps"] <= 0 {
		t.Fatal("map rate never rose above zero")
	}
	// Series share the sampler cadence.
	if series["cluster/running-maps"].Len() != series["cluster/shuffle-MBps"].Len() {
		t.Fatal("series lengths diverge")
	}
}
