package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
	"smapreduce/internal/trace"
)

// The soak suite is the chaos subsystem's property-based pin: for many
// seeds it generates a random fault schedule (crash+rejoin, heartbeat
// loss, slow node, degraded link), runs a seeded two-job workload on
// the full SMapReduce stack (dynamic slot manager, tracing, event log,
// runtime invariants armed by the test binary / SMR_INVARIANTS=1), and
// asserts:
//
//   - every run terminates with the same completion counts as the
//     fault-free run of the same seed;
//   - the run is deterministic: the same seed and schedule produce
//     byte-identical event logs, Chrome traces and audit records;
//   - chaos invariants hold on the event trajectory: no task launches
//     on a tracker that is down, heartbeat-silent, blacklisted or on
//     probation, and slot targets end inside [1, Max].

const soakWorkers = 8

func soakSpecs() []mr.JobSpec {
	return []mr.JobSpec{
		{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 6},
		{Name: "grep", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4, SubmitAt: 3},
	}
}

type soakRun struct {
	jobs    []*mr.Job
	events  []mr.Event
	logJSON []byte
	traceJS []byte
	audits  string
	cluster *mr.Cluster
}

func runSoak(t *testing.T, seed uint64, sched *Schedule) soakRun {
	t.Helper()
	return runSoakWith(t, seed, sched, func(c *mr.Cluster) ([]*mr.Job, error) {
		return c.Run(soakSpecs()...)
	})
}

// runSoakWith is runSoak with the jobs submitted by drive, which runs
// the cluster to completion.
func runSoakWith(t *testing.T, seed uint64, sched *Schedule, drive func(*mr.Cluster) ([]*mr.Job, error)) soakRun {
	t.Helper()
	cfg := mr.DefaultConfig()
	cfg.Workers = soakWorkers
	cfg.Net.Nodes = soakWorkers
	cfg.Seed = seed
	cfg.Policy = mr.Dynamic
	c := mr.MustNewCluster(cfg)
	mgr, err := core.NewSlotManager(core.SlotManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetController(mgr); err != nil {
		t.Fatal(err)
	}
	log := c.EnableEventLog()
	tr := trace.New(trace.Options{})
	c.EnableTracing(tr)
	mgr.AttachTracer(tr)
	if sched != nil {
		if err := sched.Apply(c); err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
	}
	jobs, err := drive(c)
	if err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}
	var logBuf, traceBuf bytes.Buffer
	if err := log.WriteJSONL(&logBuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeJSON(&traceBuf); err != nil {
		t.Fatal(err)
	}
	var audits strings.Builder
	for _, a := range mgr.Explain() {
		audits.WriteString(a.String())
		audits.WriteByte('\n')
	}
	return soakRun{
		jobs: jobs, events: log.Events(),
		logJSON: logBuf.Bytes(), traceJS: traceBuf.Bytes(),
		audits: audits.String(), cluster: c,
	}
}

// checkChaosTrajectory replays the event log and fails on any task
// launch (including speculative backups) landing on a tracker inside a
// down, heartbeat-lost, or blacklist/probation window. The log records
// emission order, so same-timestamp sequences are checked exactly as
// they happened.
func checkChaosTrajectory(t *testing.T, seed uint64, events []mr.Event) {
	t.Helper()
	type state struct{ down, hbLost, black bool }
	states := make([]state, soakWorkers)
	for _, e := range events {
		if e.Tracker < 0 || e.Tracker >= soakWorkers {
			continue
		}
		s := &states[e.Tracker]
		switch e.Kind {
		case mr.EvTrackerDown:
			s.down = true
		case mr.EvTrackerRejoin:
			s.down = false
		case mr.EvTrackerHBLost:
			s.hbLost = true
		case mr.EvTrackerHBRestored:
			s.hbLost = false
		case mr.EvTrackerBlacklisted:
			s.black = true
		case mr.EvTrackerCleared:
			s.black = false
		case mr.EvTaskStarted, mr.EvSpeculative:
			if s.down || s.hbLost || s.black {
				t.Fatalf("seed %d: launch on unavailable tracker %d (down=%v hbLost=%v blacklisted=%v): %+v",
					seed, e.Tracker, s.down, s.hbLost, s.black, e)
			}
		}
	}
}

func soakSeed(t *testing.T, seed uint64) {
	t.Helper()

	// Fault-free baseline fixes the completion counts and sizes the
	// fault horizon so every fault lands while work is in flight.
	base := runSoak(t, seed, nil)
	horizon := 0.0
	for _, j := range base.jobs {
		if !j.Finished() {
			t.Fatalf("seed %d: fault-free job %s unfinished", seed, j.Spec.Name)
		}
		if j.FinishedAt > horizon {
			horizon = j.FinishedAt
		}
	}
	horizon *= 0.7
	if horizon < 1 {
		horizon = 1
	}
	sched := Generate(sim.NewRand(seed), soakWorkers, horizon)

	a := runSoak(t, seed, &sched)
	b := runSoak(t, seed, &sched)

	// Determinism: byte-identical artifacts across the two runs.
	if !bytes.Equal(a.logJSON, b.logJSON) {
		t.Fatalf("seed %d: event logs differ between identical runs\nschedule:\n%s", seed, sched)
	}
	if !bytes.Equal(a.traceJS, b.traceJS) {
		t.Fatalf("seed %d: traces differ between identical runs\nschedule:\n%s", seed, sched)
	}
	if a.audits != b.audits {
		t.Fatalf("seed %d: audit records differ between identical runs\nschedule:\n%s", seed, sched)
	}

	// Termination with fault-free completion counts.
	if len(a.jobs) != len(base.jobs) {
		t.Fatalf("seed %d: %d jobs, fault-free ran %d", seed, len(a.jobs), len(base.jobs))
	}
	for i, j := range a.jobs {
		bj := base.jobs[i]
		if !j.Finished() {
			t.Fatalf("seed %d: job %s did not finish under schedule:\n%s", seed, j.Spec.Name, sched)
		}
		if j.MapsDone() != bj.MapsDone() || j.NumMaps() != bj.NumMaps() ||
			j.ReducesDone() != bj.ReducesDone() || j.NumReduces() != bj.NumReduces() {
			t.Fatalf("seed %d: job %s completion counts %d/%d maps %d/%d reduces, fault-free %d/%d maps %d/%d reduces",
				seed, j.Spec.Name, j.MapsDone(), j.NumMaps(), j.ReducesDone(), j.NumReduces(),
				bj.MapsDone(), bj.NumMaps(), bj.ReducesDone(), bj.NumReduces())
		}
	}

	// The schedule was actually exercised: every fault kind left its
	// mark and none degraded to a fault error.
	counts := map[mr.EventKind]int{}
	for _, e := range a.events {
		counts[e.Kind]++
	}
	for _, kind := range []mr.EventKind{
		mr.EvTrackerDown, mr.EvTrackerRejoin, mr.EvTrackerHBLost,
		mr.EvTrackerHBRestored, mr.EvNodeDegraded, mr.EvNodeRestored,
		mr.EvLinkDegraded, mr.EvLinkRestored,
	} {
		if counts[kind] == 0 {
			t.Fatalf("seed %d: no %s event; schedule not exercised:\n%s", seed, kind, sched)
		}
	}
	if counts[mr.EvFaultError] != 0 {
		t.Fatalf("seed %d: %d fault errors on a generated schedule:\n%s", seed, counts[mr.EvFaultError], sched)
	}

	checkChaosTrajectory(t, seed, a.events)

	// Rejoined and healthy trackers end schedulable with sane targets;
	// slot targets stay inside [1, Max] everywhere.
	cfg := a.cluster.Config()
	for _, tt := range a.cluster.Trackers() {
		if tt.Failed() {
			t.Fatalf("seed %d: tracker %d still failed after rejoin", seed, tt.ID())
		}
		if tt.MapSlots() < 1 || tt.MapSlots() > cfg.MaxMapSlots {
			t.Fatalf("seed %d: tracker %d map target %d outside [1,%d]", seed, tt.ID(), tt.MapSlots(), cfg.MaxMapSlots)
		}
		if tt.ReduceSlots() < 1 || tt.ReduceSlots() > cfg.MaxReduceSlots {
			t.Fatalf("seed %d: tracker %d reduce target %d outside [1,%d]", seed, tt.ID(), tt.ReduceSlots(), cfg.MaxReduceSlots)
		}
		if tt.RunningMaps() != 0 || tt.RunningReduces() != 0 {
			t.Fatalf("seed %d: tracker %d still holds tasks after shutdown", seed, tt.ID())
		}
	}
}

// TestChaosSoak is the full 50-seed property soak; -short runs a
// subset. Each seed performs three complete cluster runs (fault-free
// baseline plus two identical chaos runs).
func TestChaosSoak(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := uint64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			soakSeed(t, seed)
		})
	}
}
