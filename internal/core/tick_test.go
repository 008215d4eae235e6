package core

import (
	"strings"
	"testing"

	"smapreduce/internal/mr"
)

// tickHarness builds a Dynamic cluster plus a defaulted manager whose
// bounds are initialised, ready for synthetic-stats ticks.
func tickHarness(t *testing.T) (*mr.Cluster, *SlotManager) {
	t.Helper()
	c := mr.MustNewCluster(smallCluster())
	m := MustNewSlotManager(SlotManagerConfig{})
	// Initialise cluster-derived bounds with a first no-op tick.
	m.tick(c, mr.Stats{Now: 0, HeadJobID: -1})
	return c, m
}

// kernelHarness steps a defaulted kernel over smallCluster's bounds,
// with no cluster, and logs the decisions the steps return.
type kernelHarness struct {
	k  Kernel
	b  Bounds
	ds []Decision
}

func newKernelHarness() *kernelHarness {
	cfg := smallCluster()
	h := &kernelHarness{
		k: MustNewSlotManager(SlotManagerConfig{}).k,
		b: Bounds{InitMaps: cfg.MapSlots, InitReduces: cfg.ReduceSlots,
			MaxMaps: cfg.MaxMapSlots, MaxReduces: cfg.MaxReduceSlots, Workers: cfg.Workers},
	}
	h.tick(mr.Stats{Now: 0, HeadJobID: -1})
	return h
}

func (h *kernelHarness) tick(s mr.Stats) {
	if st := h.k.Step(s, h.b); st.Changed {
		h.ds = append(h.ds, st.Audit.Decision())
	}
}

func (h *kernelHarness) MapTarget() int        { return h.k.MapTarget() }
func (h *kernelHarness) Decisions() []Decision { return h.ds }

// frontStats builds a plausible front-stretch snapshot.
func frontStats(now, outRate, potential float64, runningReduces int) mr.Stats {
	return mr.Stats{
		Now:                  now,
		HeadJobID:            1,
		FrontJobID:           1,
		FrontJobName:         "synthetic",
		TotalMaps:            100,
		DoneMaps:             30,
		PendingMaps:          40,
		RunningMaps:          12,
		FrontTotalReduces:    8,
		FrontRunningReduces:  runningReduces,
		TotalReduces:         8,
		RunningReduces:       runningReduces,
		MapInputMBps:         outRate,
		MapInputProcessedMB:  outRate * now,
		MapOutputProducedMB:  outRate * now,
		PotentialShuffleMBps: potential,
		ShufflePerReduceMB:   1024,
	}
}

func TestTickIncrementsWhenMapHeavy(t *testing.T) {
	m := newKernelHarness()
	start := m.MapTarget()
	// Two ticks build the rate window; the second is stable and sees a
	// hugely underused shuffle (f ≫ upper).
	m.tick(frontStats(20, 100, 5000, 8))
	m.tick(frontStats(40, 100, 5000, 8))
	if m.MapTarget() != start+1 {
		t.Fatalf("map target = %d, want %d", m.MapTarget(), start+1)
	}
	if len(m.Decisions()) != 1 || !strings.Contains(m.Decisions()[0].Reason, "map-heavy") {
		t.Fatalf("decisions = %+v", m.Decisions())
	}
}

func TestTickDecrementsWhenReduceHeavy(t *testing.T) {
	m := newKernelHarness()
	start := m.MapTarget()
	m.tick(frontStats(20, 1000, 100, 8))
	m.tick(frontStats(40, 1000, 100, 8))
	if m.MapTarget() != start-1 {
		t.Fatalf("map target = %d, want %d", m.MapTarget(), start-1)
	}
	if !strings.Contains(m.Decisions()[0].Reason, "reduce-heavy") {
		t.Fatalf("reason = %q", m.Decisions()[0].Reason)
	}
}

func TestTickHoldsWhenBalanced(t *testing.T) {
	m := newKernelHarness()
	start := m.MapTarget()
	// f ≈ 1: inside the band.
	m.tick(frontStats(20, 500, 500, 8))
	m.tick(frontStats(40, 500, 500, 8))
	if m.MapTarget() != start || len(m.Decisions()) != 0 {
		t.Fatalf("balanced state moved: %d, %+v", m.MapTarget(), m.Decisions())
	}
}

func TestTickSlowStartGate(t *testing.T) {
	m := newKernelHarness()
	s := frontStats(20, 100, 5000, 8)
	s.DoneMaps = 5 // below 10% of 100
	m.tick(s)
	s2 := frontStats(40, 100, 5000, 8)
	s2.DoneMaps = 5
	m.tick(s2)
	if len(m.Decisions()) != 0 {
		t.Fatalf("decided before slow start: %+v", m.Decisions())
	}
}

func TestTickStabilizeGate(t *testing.T) {
	m := newKernelHarness()
	m.tick(frontStats(20, 100, 5000, 8))
	m.tick(frontStats(40, 100, 5000, 8)) // change at t=40
	n := len(m.Decisions())
	// Within StabilizeDelay of the change: no further move.
	m.tick(frontStats(45, 100, 5000, 8))
	if len(m.Decisions()) != n {
		t.Fatalf("changed during stabilisation: %+v", m.Decisions())
	}
	// Past the delay it moves again.
	m.tick(frontStats(55, 100, 5000, 8))
	if len(m.Decisions()) != n+1 {
		t.Fatalf("no change after stabilisation: %+v", m.Decisions())
	}
}

func TestTickSaturationGuard(t *testing.T) {
	m := newKernelHarness()
	s := frontStats(20, 100, 5000, 8)
	s.FrontRunningReduces = 0 // f = NaN would hold; make f computable
	s.FrontRunningReduces = 1 // Rm = 100/8 → f = 400 ≫ upper
	s.ShuffleMBps = 4900      // ≥ 0.85 × potential: pipeline saturated
	m.tick(s)
	s2 := s
	s2.Now = 40
	s2.MapInputProcessedMB = 100 * 40
	s2.MapOutputProducedMB = 100 * 40
	m.tick(s2)
	if len(m.Decisions()) != 0 {
		t.Fatalf("grew into a saturated shuffle: %+v", m.Decisions())
	}
}

func TestTickCeilingBlocksGrowth(t *testing.T) {
	m := newKernelHarness()
	// Establish the front job first (the job transition resets
	// learning, including any ceiling), then pin the ceiling.
	m.tick(frontStats(20, 100, 5000, 8))
	m.k.ceiling = m.MapTarget()
	m.tick(frontStats(40, 100, 5000, 8))
	m.tick(frontStats(60, 100, 5000, 8))
	if len(m.Decisions()) != 0 {
		t.Fatalf("grew past the thrashing ceiling: %+v", m.Decisions())
	}
}

func TestTickTailReleasesAndBoosts(t *testing.T) {
	m := newKernelHarness()
	s := frontStats(20, 100, 5000, 8)
	s.PendingMaps = 0
	s.RunningMaps = 2
	s.ShufflePerReduceMB = 50 // small shuffle → boost
	m.tick(s)
	if len(m.Decisions()) != 1 {
		t.Fatalf("tail made %d decisions", len(m.Decisions()))
	}
	d := m.Decisions()[0]
	if !strings.Contains(d.Reason, "boosting reduce") {
		t.Fatalf("reason = %q", d.Reason)
	}
	if d.MapTarget != 1 { // ceil(2/4 workers) = 1
		t.Fatalf("tail map target = %d, want 1", d.MapTarget)
	}
	if d.ReduceTarget != smallCluster().MaxReduceSlots {
		t.Fatalf("tail reduce target = %d, want max", d.ReduceTarget)
	}
}

func TestTickTailGuardLargeShuffle(t *testing.T) {
	m := newKernelHarness()
	s := frontStats(20, 100, 5000, 8)
	s.PendingMaps = 0
	s.RunningMaps = 2
	s.ShufflePerReduceMB = 4096 // large shuffle → no boost
	m.tick(s)
	if len(m.Decisions()) != 1 {
		t.Fatalf("tail made %d decisions", len(m.Decisions()))
	}
	if m.Decisions()[0].ReduceTarget != smallCluster().ReduceSlots {
		t.Fatalf("large-shuffle tail boosted reduces: %+v", m.Decisions()[0])
	}
}

func TestTickNoSignalHolds(t *testing.T) {
	m := newKernelHarness()
	// Front job has no running reducers: f is NaN, nothing moves.
	m.tick(frontStats(20, 100, 0, 0))
	m.tick(frontStats(40, 100, 0, 0))
	if len(m.Decisions()) != 0 {
		t.Fatalf("moved without a signal: %+v", m.Decisions())
	}
}

func TestTickEmptyQueueIsNoop(t *testing.T) {
	m := newKernelHarness()
	m.tick(mr.Stats{Now: 50, HeadJobID: -1})
	if len(m.Decisions()) != 0 {
		t.Fatal("decided with an empty queue")
	}
}
