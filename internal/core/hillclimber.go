package core

import (
	"fmt"

	"smapreduce/internal/mr"
)

// HillClimber is a model-free baseline controller: it ignores the
// paper's balance factor and the map/reduce barrier entirely and
// simply hill-climbs the map slot count on measured aggregate map
// throughput — additive increase while throughput rises, step back
// when it falls. Run builds it for EngineHillClimber the way it builds
// the slot manager for EngineSMapReduce: Dynamic policy, controller
// attached, one tick per runtime control period. The zero value is
// ready to use.
//
// It exists to quantify what the paper's model buys: on map-heavy jobs
// pure hill climbing finds the same thrashing point, but on
// reduce-heavy jobs it keeps pushing map throughput that the shuffle
// cannot absorb, inflating the post-barrier tail that SMapReduce's
// balance factor exists to avoid.
type HillClimber struct {
	target       int
	maxMaps      int
	reduceTarget int
	lastRate     float64
	lastDir      int
	samples      []hcSample
	decisions    []Decision
}

// hcWindow is the span, in seconds, over which the hill climber
// measures map throughput.
const hcWindow float64 = 24

type hcSample struct{ t, inMB float64 }

// Decisions returns the decision log.
func (h *HillClimber) Decisions() []Decision { return h.decisions }

// Tick implements mr.Controller.
func (h *HillClimber) Tick(c *mr.Cluster) {
	s := c.Snapshot()
	if h.target == 0 {
		cfg := c.Config()
		h.target = cfg.MapSlots
		h.reduceTarget = cfg.ReduceSlots
		h.maxMaps = cfg.MaxMapSlots
	}
	if s.HeadJobID < 0 {
		return
	}

	h.samples = append(h.samples, hcSample{t: s.Now, inMB: s.MapInputProcessedMB})
	cut := s.Now - hcWindow
	for len(h.samples) > 2 && h.samples[1].t <= cut {
		h.samples = h.samples[1:]
	}
	old := h.samples[0]
	dt := s.Now - old.t
	if dt <= 0 {
		return
	}
	rate := (s.MapInputProcessedMB - old.inMB) / dt
	if rate <= 0 {
		return
	}
	defer func() { h.lastRate = rate }()

	if h.lastRate == 0 {
		h.set(c, s, h.target+1, "first sample: probe upward")
		return
	}
	switch {
	case h.lastDir > 0 && rate < h.lastRate*0.98:
		// The last increase hurt: step back.
		if h.target > 1 {
			h.set(c, s, h.target-1, "throughput fell: step back")
		} else {
			h.lastDir = 0
		}
	case rate >= h.lastRate*0.98:
		if h.target < h.maxMaps {
			h.set(c, s, h.target+1, "throughput holding: probe upward")
		}
	default:
		h.lastDir = 0
	}
}

// set pushes a new uniform map target.
func (h *HillClimber) set(c *mr.Cluster, s mr.Stats, target int, reason string) {
	h.lastDir = 0
	if target > h.target {
		h.lastDir = 1
	} else if target < h.target {
		h.lastDir = -1
	}
	h.target = target
	jt := c.JobTracker()
	for _, tt := range c.Trackers() {
		jt.SetDesiredSlots(tt.ID(), target, h.reduceTarget)
	}
	h.decisions = append(h.decisions, Decision{
		At: s.Now, MapTarget: target, ReduceTarget: h.reduceTarget,
		Reason: fmt.Sprintf("hill-climb: %s", reason),
	})
}
