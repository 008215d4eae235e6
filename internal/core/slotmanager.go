// Package core implements the paper's contribution: the SMapReduce
// slot manager, a runtime controller that retunes the number of map and
// reduce working slots on every task tracker to maximise cluster
// resource utilisation around the map/reduce synchronisation barrier.
//
// The algorithm follows §III–IV of the paper:
//
//   - Slow start: no decisions until a fraction (default 10%) of the
//     map tasks have finished reporting statistics.
//   - Balance (front stretch): compare the achievable shuffle rate Rs
//     against the map output rate of one reduce partition,
//     Rm = (n/N)·Rt. If f = Rs/Rm exceeds the upper bound the job is
//     map-heavy and map slots grow by one; below the lower bound it is
//     reduce-heavy and map slots shrink by one; in between the system
//     is in the Balanced State and nothing changes.
//   - Thrashing detection: the per-slot map processing rate is recorded
//     for every slot count. After an increase, once the rate has had
//     StabilizeDelay seconds to settle, a drop below the previous slot
//     count's rate marks the state "suspected"; consecutive suspected
//     observations confirm thrashing, the increase is rolled back and
//     a ceiling is remembered.
//   - Tail stretch: when no map tasks remain pending, map slots are
//     released and — only if the job's shuffle volume per reducer is
//     small — reduce slots are boosted to finish the tail faster.
//
// The decision itself is the Kernel (kernel.go), one pure step over a
// Stats snapshot. The SlotManager plugs it into the runtime as an
// mr.Controller and talks to trackers exclusively through the job
// tracker's desired-slot table, which trackers pick up in their next
// heartbeat (command-in-heartbeat, §III-C) and apply lazily (§III-D).
// localmr's dynamic worker pools drive the same kernel.
package core

import (
	"fmt"
	"math"

	"smapreduce/internal/mr"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// interval is the period between decisions, seconds. The paper's
// manager runs "after every time period" long enough for all trackers
// to have heartbeated; with 1 s heartbeats 5 s is comfortable.
const interval float64 = 5

// tailShufflePerReduceMB is the "small shuffle" threshold under which
// the tail stretch may add reduce slots (§III-B3).
const tailShufflePerReduceMB float64 = 256

// SlotManagerConfig tunes the slot manager. Zero values are replaced by
// the paper's defaults in NewSlotManager.
type SlotManagerConfig struct {
	// SlowStartFraction of map tasks that must finish before the first
	// decision (paper default 10%).
	SlowStartFraction float64

	// Balance-factor bounds (§IV-A3). Between them the system is
	// considered balanced.
	LowerBound float64
	UpperBound float64

	// StabilizeDelay is how long after a slot change the map rate is
	// left out of thrashing judgements (§IV-A2, "grow gradually to a
	// stable range").
	StabilizeDelay float64

	// RateWindow is the sliding window over which the manager computes
	// map and shuffle rates from the cumulative work counters. It must
	// span at least a couple of map waves, because within one wave the
	// instantaneous rate swings between full speed (map phase) and near
	// zero (sort/spill phase).
	RateWindow float64

	// SuspectConfirmations is how many consecutive suspected-thrashing
	// observations confirm thrashing (§IV-A2 gives the system "another
	// chance"; 2 matches the paper).
	SuspectConfirmations int

	// Ablation switches (Fig. 7), named so the zero value is the
	// paper's full algorithm.
	DisableThrashDetection bool
	DisableSlowStart       bool
	DisableTailBoost       bool

	// PerNodeScaling scales each tracker's slot targets by its node's
	// compute capacity relative to the cluster mean — the natural
	// extension of the paper's uniform targets to the heterogeneous
	// clusters its future-work section names. Off by default (the
	// paper's homogeneous behaviour).
	PerNodeScaling bool
}

// DefaultSlotManagerConfig returns the paper's settings.
func DefaultSlotManagerConfig() SlotManagerConfig {
	return SlotManagerConfig{
		SlowStartFraction:    0.10,
		LowerBound:           0.80,
		UpperBound:           1.30,
		StabilizeDelay:       10,
		RateWindow:           24,
		SuspectConfirmations: 2,
	}
}

// Validate reports the first problem with the config, or nil.
func (c SlotManagerConfig) Validate() error {
	switch {
	case c.SlowStartFraction < 0 || c.SlowStartFraction > 1:
		return fmt.Errorf("core: SlowStartFraction = %v, must be in [0,1]", c.SlowStartFraction)
	case c.LowerBound <= 0 || c.UpperBound < c.LowerBound:
		return fmt.Errorf("core: bounds [%v,%v] invalid", c.LowerBound, c.UpperBound)
	case c.StabilizeDelay < 0:
		return fmt.Errorf("core: StabilizeDelay = %v, must be >= 0", c.StabilizeDelay)
	case c.RateWindow <= 0:
		return fmt.Errorf("core: RateWindow = %v, must be positive", c.RateWindow)
	case c.SuspectConfirmations < 1:
		return fmt.Errorf("core: SuspectConfirmations = %d, must be >= 1", c.SuspectConfirmations)
	}
	return nil
}

// Decision records one slot-manager action, for tracing and tests.
type Decision struct {
	At           float64
	MapTarget    int
	ReduceTarget int
	Factor       float64 // balance factor f at decision time (may be +Inf or NaN)
	Reason       string
}

// String renders the decision the way the CLIs and examples print it.
func (d Decision) String() string {
	f := "-"
	switch {
	case math.IsInf(d.Factor, 1):
		f = "+Inf"
	case !math.IsNaN(d.Factor):
		f = fmt.Sprintf("%.2f", d.Factor)
	}
	return fmt.Sprintf("[%8.1f] maps=%d reduces=%d f=%s  %s",
		d.At, d.MapTarget, d.ReduceTarget, f, d.Reason)
}

// SlotManager implements mr.Controller: the adapter that runs the
// Kernel on a simulated cluster. Each tick snapshots the cluster, steps
// the kernel, pushes its targets into the job tracker's desired-slot
// table and emits the decision's trace instants.
type SlotManager struct {
	k Kernel

	// audits holds one full-input record per decision (see AuditRecord).
	audits []AuditRecord

	// tr, when attached, receives decision/thrash/tail instants on the
	// controller track. Nil when tracing is off.
	tr *trace.Tracer
}

// NewSlotManager builds a manager; zero-valued cfg fields take paper
// defaults, and an invalid cfg returns an error.
func NewSlotManager(cfg SlotManagerConfig) (*SlotManager, error) {
	d := DefaultSlotManagerConfig()
	orDefault := func(v *float64, def float64) {
		if *v == 0 {
			*v = def
		}
	}
	orDefault(&cfg.SlowStartFraction, d.SlowStartFraction)
	orDefault(&cfg.LowerBound, d.LowerBound)
	orDefault(&cfg.UpperBound, d.UpperBound)
	orDefault(&cfg.StabilizeDelay, d.StabilizeDelay)
	orDefault(&cfg.RateWindow, d.RateWindow)
	if cfg.SuspectConfirmations == 0 {
		cfg.SuspectConfirmations = d.SuspectConfirmations
	}
	k, err := NewKernel(cfg)
	if err != nil {
		return nil, err
	}
	return &SlotManager{k: *k}, nil
}

// MustNewSlotManager is NewSlotManager for static setup.
func MustNewSlotManager(cfg SlotManagerConfig) *SlotManager {
	m, err := NewSlotManager(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Interval implements mr.Controller.
func (m *SlotManager) Interval() float64 { return interval }

// Decisions returns the decision log (for traces, tests and examples):
// the audit trail projected through AuditRecord.Decision.
func (m *SlotManager) Decisions() []Decision {
	out := make([]Decision, len(m.audits))
	for i, a := range m.audits {
		out[i] = a.Decision()
	}
	return out
}

// AttachTracer points the manager's decision instants at tr. Call
// before the cluster runs; a nil tr keeps tracing off.
func (m *SlotManager) AttachTracer(tr *trace.Tracer) {
	m.tr = tr
	if tr.Enabled() {
		tr.SetTrackName(trace.PIDController, "slot manager")
	}
}

// Tick implements mr.Controller: one decision period.
func (m *SlotManager) Tick(c *mr.Cluster) {
	m.tick(c, c.Snapshot())
}

// tick applies one kernel step on s, separated from the snapshot so
// tests can drive it with synthetic statistics.
func (m *SlotManager) tick(c *mr.Cluster, s mr.Stats) {
	cfg := c.Config()
	st := m.k.Step(s, Bounds{InitMaps: cfg.MapSlots, InitReduces: cfg.ReduceSlots,
		MaxMaps: cfg.MaxMapSlots, MaxReduces: cfg.MaxReduceSlots, Workers: cfg.Workers})
	if st.Suspicion.Suspects > 0 && m.tr.Enabled() {
		sus := st.Suspicion
		m.tr.Instant(s.Now, trace.PIDController, "thrash", "thrash-suspect",
			trace.Num("map-slots", float64(sus.MapSlots)),
			trace.Num("rate", sus.Rate), trace.Num("prev-rate", sus.PrevRate),
			trace.Num("suspects", float64(sus.Suspects)))
	}
	if !st.Changed {
		return
	}
	a := st.Audit
	if st.TailEntry && m.tr.Enabled() {
		m.tr.Instant(s.Now, trace.PIDController, "tail", "tail-stretch",
			trace.Num("running-maps", float64(s.RunningMaps)),
			trace.Num("shuffle-per-reduce-MB", s.ShufflePerReduceMB))
	}
	m.push(c, a.MapTarget, a.ReduceTarget)
	m.audits = append(m.audits, a)
	if m.tr.Enabled() {
		m.tr.Instant(s.Now, trace.PIDController, "decision", a.Reason,
			trace.Num("maps", float64(a.MapTarget)), trace.Num("reduces", float64(a.ReduceTarget)),
			trace.Num("prev-maps", float64(a.PrevMapTarget)), trace.Num("prev-reduces", float64(a.PrevReduceTarget)),
			trace.Num("f", a.Factor),
			trace.Num("out-MBps", a.OutRate), trace.Num("shuffle-MBps", a.ShuffleMBps))
		if st.Confirmed {
			m.tr.Instant(s.Now, trace.PIDController, "thrash", "thrash-confirmed",
				trace.Num("ceiling", float64(a.Ceiling)))
		}
	}
}

// push hands uniform targets to every tracker through the job
// tracker's desired-slot table, scaled per node when configured.
func (m *SlotManager) push(c *mr.Cluster, maps, reduces int) {
	jt := c.JobTracker()
	for _, tt := range c.Trackers() {
		tm, tr := maps, reduces
		if m.k.cfg.PerNodeScaling {
			tm, tr = m.scaleForNode(c, tt.ID(), maps, reduces)
		}
		jt.SetDesiredSlots(tt.ID(), tm, tr)
	}
}

// scaleForNode adjusts uniform targets by the node's compute capacity
// relative to the cluster mean, rounding half-up and never below 1.
func (m *SlotManager) scaleForNode(c *mr.Cluster, node, maps, reduces int) (int, int) {
	capacity := func(i int) float64 {
		spec := c.NodeSpecOf(i)
		return float64(spec.Cores) * spec.CoreSpeed
	}
	mean := 0.0
	n := len(c.Trackers())
	for i := 0; i < n; i++ {
		mean += capacity(i)
	}
	mean /= float64(n)
	factor := capacity(node) / mean
	scale := func(v int) int {
		s := int(float64(v)*factor + 0.5)
		if s < 1 {
			s = 1
		}
		return s
	}
	return scale(maps), scale(reduces)
}

// RegisterTelemetry registers the manager's decision-state series on
// col: slot targets, windowed rates, the balance factor f and the
// thrashing-detector state. Call before the cluster runs.
func (m *SlotManager) RegisterTelemetry(col *telemetry.Collector) {
	k := &m.k
	col.Register("slotmgr/map-target", func() float64 { return float64(k.mapTarget) })
	col.Register("slotmgr/reduce-target", func() float64 { return float64(k.reduceTarget) })
	col.Register("slotmgr/in-MBps", func() float64 { return k.lastWindow.inRate })
	col.Register("slotmgr/out-MBps", func() float64 { return k.lastWindow.outRate })
	col.Register("slotmgr/shuffle-MBps", func() float64 { return k.lastWindow.shufRate })
	col.Register("slotmgr/balance-f", func() float64 { return k.lastFactor })
	col.Register("slotmgr/suspects", func() float64 { return float64(k.suspects) })
	col.Register("slotmgr/ceiling", func() float64 { return float64(k.ceiling) })
	col.Register("slotmgr/in-tail", func() float64 {
		if k.inTail {
			return 1
		}
		return 0
	})
}
