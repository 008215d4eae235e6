package mr

import (
	"os"
	"reflect"
	"testing"

	"smapreduce/internal/puma"
	"smapreduce/internal/trace"
)

// diffRun is what a differential compares: job milestones, final
// Stats and the event log.
type diffRun struct {
	jobs   []*Job
	stats  Stats
	events []Event
}

// referenceWorkload is a seeded workload chosen to exercise every
// optimised path: stragglers trigger speculation (killAttempt), the
// mid-run failure aborts maps and shuffling reducers (abortMap,
// abortReduce, the reducer-flow purge) and re-queues committed maps,
// remote split reads put non-shuffle flows on the fabric, and the
// heartbeat, probation and controller chains cross the timing wheel's
// bucket and level boundaries. noPool turns off op and flow pooling
// alone, leaving the clock, resolver and substrate in the mode cfg
// selects.
func referenceWorkload(t *testing.T, reference, noPool bool) diffRun {
	t.Helper()
	cfg := stragglerConfig(true)
	cfg.Seed = 7
	cfg.Reference = reference
	c := MustNewCluster(cfg)
	if noPool {
		c.noPool = true
	}
	log := c.EnableEventLog(0)
	tr := trace.New(trace.Options{Verbosity: trace.VerbosityAllFlows})
	c.EnableTracing(tr)
	c.ScheduleFailure(5, 6.0)
	specs := []JobSpec{
		{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 2048, Reduces: 6},
		{Name: "grep", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4, SubmitAt: 3},
	}
	jobs, err := c.Run(specs...)
	if err != nil {
		t.Fatalf("Run (reference=%v noPool=%v): %v", reference, noPool, err)
	}
	// The full-resolve verifier must see more than shuffle fetches.
	reads := 0
	for _, sp := range flowSpans(t, tr) {
		if sp.Cat == "read" {
			reads++
		}
	}
	if reads == 0 {
		t.Fatalf("reference=%v noPool=%v: no remote DFS read flow, only shuffles reach the verifier", reference, noPool)
	}
	return diffRun{jobs, c.Snapshot(), log.Events()}
}

// Idle gaps of idleGapWorkload: its jobs arrive at 0, 150 and 300,
// and every fault lands inside the first gap.
const idleGapStart, idleGapEnd = 90.0, 150.0

// idleGapWorkload is a seeded open-arrival workload with idle gaps
// between jobs, in which every tracker parks its heartbeat chain. Each
// job has more reduces than the trackers running its maps can hold, so
// trackers parked at its admission pick reduces up on their beats. A
// heartbeat loss (long enough to blacklist) and a crash and its
// recovery all land in the first gap, on parked trackers.
// Under the Dynamic policy a controller moves every tracker's slot
// targets each tick, so SetDesiredSlots wakes parked trackers. It
// returns the run and its parked-beat count.
func idleGapWorkload(t *testing.T, policy Policy, reference bool) (diffRun, uint64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Net.Nodes = 8
	cfg.Seed = 11
	cfg.Policy = policy
	cfg.Reference = reference
	c := MustNewCluster(cfg)
	if policy == Dynamic {
		if err := c.SetController(&jitterController{}); err != nil {
			t.Fatal(err)
		}
	}
	log := c.EnableEventLog(0)
	c.ScheduleHeartbeatLoss(2, 100.5, 20)
	c.ScheduleFailure(3, 105.25)
	c.ScheduleRecovery(3, 125)
	mk := func(name, bench string, at float64) JobSpec {
		return JobSpec{Name: name, Profile: puma.MustGet(bench), InputMB: 768, Reduces: 6, SubmitAt: at}
	}
	jobs, err := c.RunArrivals(&specList{specs: []JobSpec{
		mk("a", "terasort", 0), mk("b", "grep", idleGapEnd), mk("c", "wordcount", 300),
	}})
	if err != nil {
		t.Fatalf("RunArrivals (reference=%v): %v", reference, err)
	}
	return diffRun{jobs, c.Snapshot(), log.Events()}, c.ParkedBeats()
}

// requireSameRun fails unless runs a and b (named an and bn in the
// messages) agree bit for bit.
func requireSameRun(t *testing.T, an, bn string, a, b diffRun) {
	t.Helper()
	if len(a.jobs) != len(b.jobs) {
		t.Fatalf("job counts differ: %s %d, %s %d", an, len(a.jobs), bn, len(b.jobs))
	}
	for i := range a.jobs {
		x, y := a.jobs[i], b.jobs[i]
		if x.Submitted != y.Submitted || x.Started != y.Started ||
			x.BarrierAt != y.BarrierAt || x.FinishedAt != y.FinishedAt ||
			x.ShuffledMB != y.ShuffledMB ||
			x.SpeculativeLaunched != y.SpeculativeLaunched ||
			x.SpeculativeWins != y.SpeculativeWins {
			t.Fatalf("job %s milestones diverge:\n%-9s %+v %+v %+v %+v %v spec %d/%d\n%-9s %+v %+v %+v %+v %v spec %d/%d",
				x.Spec.Name,
				an, x.Submitted, x.Started, x.BarrierAt, x.FinishedAt, x.ShuffledMB, x.SpeculativeLaunched, x.SpeculativeWins,
				bn, y.Submitted, y.Started, y.BarrierAt, y.FinishedAt, y.ShuffledMB, y.SpeculativeLaunched, y.SpeculativeWins)
		}
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Fatalf("final Stats diverge:\n%-9s %+v\n%-9s %+v", an, a.stats, bn, b.stats)
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("event counts differ: %s %d, %s %d", an, len(a.events), bn, len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("event %d diverges:\n%-9s %+v\n%-9s %+v", i, an, a.events[i], bn, b.events[i])
		}
	}
}

// TestReferenceDifferential is the runtime's correctness pin for its
// optimisations: the same seeded workload run in the default mode and
// in Reference (heap-only clock, full-resolve verifier, no pooling,
// fresh substrate) must produce bit-identical milestones, stats and
// event logs. A pooled object leaking state across reuse or a wheel
// placement that perturbs firing order shows up as a divergence here.
func TestReferenceDifferential(t *testing.T) {
	requireSameRun(t, "default", "reference",
		referenceWorkload(t, false, false), referenceWorkload(t, true, false))
}

// TestIdleGapReferenceDifferential pins parked heartbeats: across the
// idle gaps of an open-arrival workload the default run parks its
// trackers' heartbeat chains, wakes them on submission and (Dynamic)
// on slot target changes, and cancels and re-arms them through faults,
// and it must still agree bit for bit with the reference run, whose
// heartbeats always run in full.
func TestIdleGapReferenceDifferential(t *testing.T) {
	for _, policy := range []Policy{HadoopV1, Dynamic} {
		t.Run(policy.String(), func(t *testing.T) { idleGapDifferential(t, policy) })
	}
}

func idleGapDifferential(t *testing.T, policy Policy) {
	def, parked := idleGapWorkload(t, policy, false)
	ref, refParked := idleGapWorkload(t, policy, true)
	// SMR_REFERENCE=1 forces the default run to reference mode too.
	if parked == 0 && os.Getenv("SMR_REFERENCE") != "1" {
		t.Fatal("the default run parked no heartbeat; the differential is vacuous")
	}
	if refParked != 0 {
		t.Fatalf("the reference run parked %d heartbeats", refParked)
	}
	// The workload must keep its shape: the first job is done before
	// the gap's faults, and slot commands and faults both land in it.
	if a := def.jobs[0]; a.FinishedAt >= idleGapStart {
		t.Fatalf("job a finishes at %v, inside the fault window", a.FinishedAt)
	}
	kinds := map[EventKind]int{}
	for _, e := range def.events {
		if e.At > idleGapStart && e.At < idleGapEnd {
			kinds[e.Kind]++
		}
	}
	want := []EventKind{EvTrackerHBLost, EvTrackerBlacklisted, EvTrackerDown, EvTrackerRejoin}
	if policy == Dynamic {
		want = append(want, EvSlotChange)
	}
	for _, k := range want {
		if kinds[k] == 0 {
			t.Fatalf("no %v event in the idle gap (%v)", k, kinds)
		}
	}
	requireSameRun(t, "default", "reference", def, ref)
}

// TestPooledVsUnpooledDifferential isolates pooling: the same workload
// with op and flow recycling on and off, everything else in the
// default mode, must agree bit for bit. Any pooled object leaking state
// across reuse (a stale Userdata, an unreset counter, a mis-ordered
// release) shows up here and not only as a reference-mode divergence.
func TestPooledVsUnpooledDifferential(t *testing.T) {
	requireSameRun(t, "pooled", "unpooled",
		referenceWorkload(t, false, false), referenceWorkload(t, false, true))
}

// TestReferenceMode pins what the mode switches on, whether selected
// by Config.Reference or forced by SMR_REFERENCE=1: a heap-only clock,
// an armed full resolver, no pooling, fresh substrate — the SimState
// handed to NewClusterReusing is ignored, so none of the ops a prior
// pooled run left in its pool are reused — and always-beat heartbeats,
// so an idle-gap run parks none.
func TestReferenceMode(t *testing.T) {
	for _, byEnv := range []bool{false, true} {
		name := "config"
		if byEnv {
			name = "env"
		}
		t.Run(name, func(t *testing.T) {
			// A prior default-mode run fills st's op pool.
			st := NewSimState()
			p, err := NewClusterReusing(DefaultConfig(), st)
			if err != nil {
				t.Fatal(err)
			}
			p.Mutate(func() {
				for i := 0; i < 4; i++ {
					p.addOp(1, func() float64 { return 1 }, nil)
				}
			})
			p.clock.RunUntilIdle(100)
			pooled := make(map[*fluidOp]bool, len(st.ops))
			for _, op := range st.ops {
				pooled[op] = true
			}
			if len(pooled) == 0 && os.Getenv("SMR_REFERENCE") != "1" {
				t.Fatal("prior run pooled no ops; the reuse check is vacuous")
			}

			cfg := DefaultConfig()
			if byEnv {
				t.Setenv("SMR_REFERENCE", "1")
			} else {
				cfg.Reference = true
			}
			c, err := NewClusterReusing(cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			if !c.clock.HeapOnly() || !c.fabric.FullResolve() || !c.noPool {
				t.Fatalf("reference cluster: heapOnly=%v fullResolve=%v noPool=%v, want all true",
					c.clock.HeapOnly(), c.fabric.FullResolve(), c.noPool)
			}
			if !c.Config().Reference {
				t.Fatal("Config().Reference = false on a reference cluster")
			}
			if c.sim == st || c.clock == st.clock || c.fabric == st.fabric {
				t.Fatal("reference cluster adopted the passed SimState")
			}
			c.Mutate(func() {
				for i := 0; i < 4; i++ {
					if op := c.addOp(1, func() float64 { return 1 }, nil); pooled[op] {
						t.Fatal("reference cluster took an op from the passed SimState's pool")
					}
				}
			})
			c.clock.RunUntilIdle(100)
			if len(st.ops) != len(pooled) || len(c.sim.ops) != 0 {
				t.Fatalf("reference run touched a pool: passed %d -> %d ops, own %d",
					len(pooled), len(st.ops), len(c.sim.ops))
			}
			if _, parked := idleGapWorkload(t, HadoopV1, !byEnv); parked != 0 {
				t.Fatalf("reference run parked %d heartbeats", parked)
			}
		})
	}
}
