package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
	"smapreduce/internal/puma"
	"smapreduce/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// faultCoverageRun runs a small two-tenant SMapReduce workload under
// fair-share caps, speculation and eager slot change, with every fault
// the runtime models armed on it: a crash, a crash of the already-dead
// tracker (a fault error), a rejoin, a heartbeat loss long enough to
// blacklist, a node and a link degradation, a contention slowdown and
// a decommission. It returns the event log as JSONL and the Chrome
// trace at VerbosityFlows.
func faultCoverageRun(t *testing.T) (events, chrome []byte) {
	t.Helper()
	cfg := mr.DefaultConfig()
	cfg.Workers = 6
	cfg.Net.Nodes = 6
	cfg.Speculation = true
	cfg.EagerSlotChange = true
	capacity, err := policy.NewFairShare(policy.Options{Tenants: []policy.Tenant{{Name: "batch", Weight: 2}, {Name: "adhoc"}}})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Verbosity: trace.VerbosityFlows})
	res, err := Run(EngineSMapReduce, Options{
		Cluster:  cfg,
		Capacity: capacity,
		Tracer:   tr,
		Events:   true,
		Prepare: func(c *mr.Cluster) error {
			c.ScheduleFailure(1, 20)
			c.ScheduleFailure(1, 25)
			c.ScheduleRecovery(1, 60)
			c.ScheduleHeartbeatLoss(2, 15, 8)
			c.ScheduleNodeDegrade(3, 10, 20, 0.5, 0.5)
			c.ScheduleLinkDegrade(4, 12, 15, 0.3, 0)
			c.ScheduleSlowdown(5, 1, 5, 30)
			c.ScheduleDecommission(0, 90)
			return nil
		},
	},
		mr.JobSpec{Name: "sort", Profile: puma.MustGet("terasort"), InputMB: 3072, Reduces: 6, Tenant: "batch"},
		mr.JobSpec{Name: "grep", Profile: puma.MustGet("grep"), InputMB: 2048, Reduces: 4, SubmitAt: 8, Tenant: "adhoc"},
		mr.JobSpec{Name: "count", Profile: puma.MustGet("wordcount"), InputMB: 2048, Reduces: 4, SubmitAt: 30, Tenant: "batch"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 || res.Events.Dropped != 0 {
		t.Fatalf("sinks dropped entries: trace %d, events %d", tr.Dropped(), res.Events.Dropped)
	}
	var ev, ch bytes.Buffer
	if err := res.Events.WriteJSONL(&ev); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeJSON(&ch); err != nil {
		t.Fatal(err)
	}
	return ev.Bytes(), ch.Bytes()
}

// TestFaultCoverageGolden pins the event log and the Chrome trace of
// faultCoverageRun byte for byte, after checking that the run fires
// every event kind and every runtime instant. Rewrite the goldens
// with go test ./internal/core -run TestFaultCoverageGolden -update
// only when a change is meant to move them.
func TestFaultCoverageGolden(t *testing.T) {
	events, chrome := faultCoverageRun(t)
	for _, kind := range []mr.EventKind{
		mr.EvJobSubmitted, mr.EvTaskStarted, mr.EvTaskDone, mr.EvBarrier, mr.EvJobFinished,
		mr.EvSlotChange, mr.EvTrackerDown, mr.EvSpeculative, mr.EvRequeued, mr.EvTrackerDrain,
		mr.EvTrackerRejoin, mr.EvTrackerHBLost, mr.EvTrackerHBRestored, mr.EvTrackerBlacklisted,
		mr.EvTrackerProbation, mr.EvTrackerCleared, mr.EvTenantCap,
		mr.EvNodeDegraded, mr.EvNodeRestored, mr.EvLinkDegraded, mr.EvLinkRestored, mr.EvFaultError,
	} {
		if !bytes.Contains(events, []byte(`"kind":"`+string(kind)+`"`)) {
			t.Errorf("event log has no %s event", kind)
		}
	}
	for _, want := range []string{`=uncapped"`, `"detail":"attempt aborted"`, `"detail":"output lost"`} {
		if !bytes.Contains(events, []byte(want)) {
			t.Errorf("event log has no %s detail", want)
		}
	}
	for _, name := range []string{
		"tracker-down", "tracker-rejoin", "hb-lost", "blacklisted", "hb-restored", "probation",
		"probation-cleared", "node-degraded", "node-restored", "link-degraded", "link-restored",
		"tracker-drain", "fault-error", "slot-change", "speculative-backup", "tenant-cap",
		"barrier ", "job-submitted ", "barrier-crossed ", "job-finished ",
	} {
		if !bytes.Contains(chrome, []byte(`"ph":"i"`)) || !strings.Contains(string(chrome), `"name":"`+name) {
			t.Errorf("trace has no %q instant", name)
		}
	}
	for name, got := range map[string][]byte{
		"fault-coverage.events.jsonl": events,
		"fault-coverage.trace.json":   chrome,
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/%s (%d bytes, want %d)", name, name, len(got), len(want))
		}
	}
}
