package core

import (
	"math"

	"smapreduce/internal/mr"
	"smapreduce/internal/stats"
)

// Bounds are the slot limits a kernel step reads: the initial and
// maximum per-tracker slot counts, and the number of trackers the
// uniform targets apply to.
type Bounds struct {
	InitMaps, InitReduces int
	MaxMaps, MaxReduces   int
	Workers               int
}

// ThrashSuspect is a suspected-thrashing observation: at MapSlots the
// stable map rate fell below PrevRate, the rate one slot lower, for the
// Suspects-th consecutive time.
type ThrashSuspect struct {
	MapSlots       int
	Rate, PrevRate float64
	Suspects       int
}

// Step is what one kernel step decided and observed. Changed reports
// new uniform targets, carried by Audit with the inputs they were
// decided from; Confirmed marks them as a thrashing rollback to
// Audit.Ceiling, TailEntry as the first of a tail stretch. A non-zero
// Suspicion.Suspects reports a thrash-suspect observation.
type Step struct {
	Changed   bool
	Audit     AuditRecord
	Suspicion ThrashSuspect
	Confirmed bool
	TailEntry bool
}

// Kernel is the slot manager's decision (§III-B, §IV-A) as one pure
// step: it reads a Stats snapshot and the slot bounds, and returns the
// new uniform targets. It touches no cluster and emits no trace; the
// simulator's SlotManager and localmr's dynamic pools drive it and
// apply what it decides. Its time constants (StabilizeDelay,
// RateWindow) are in the clock of the Stats.Now it is fed.
type Kernel struct {
	cfg SlotManagerConfig

	mapTarget    int
	reduceTarget int

	headJob      int
	headProfile  string
	lastChangeAt float64

	// Stable aggregate map processing rate (EWMA) observed at each map
	// slot count, for thrashing detection: the aggregate rate rises
	// with the slot count until the thrashing point, then falls.
	ratesBySlots map[int]*stats.EWMA
	suspects     int
	ceiling      int // max map slots allowed after confirmed thrashing (0 = none)
	inTail       bool

	// Sliding window of cumulative counters for rate computation.
	samples []rateSample

	// lastWindow holds the most recent windowed rates.
	lastWindow struct{ inRate, outRate, shufRate float64 }

	// lastFactor is the balance factor f of the most recent
	// front-stretch step (NaN until one happens).
	lastFactor float64
}

// rateSample is one step's cumulative counter snapshot.
type rateSample struct {
	t, inMB, outMB, shufMB float64
}

// NewKernel builds a kernel from a complete config: unlike
// NewSlotManager it fills in no defaults, since the paper's 10 s and
// 24 s time constants only suit a caller whose clock runs in cluster
// seconds.
func NewKernel(cfg SlotManagerConfig) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Kernel{cfg: cfg, headJob: -1, ratesBySlots: make(map[int]*stats.EWMA), lastFactor: math.NaN()}, nil
}

// MapTarget returns the current uniform map slot target.
func (k *Kernel) MapTarget() int { return k.mapTarget }

// ReduceTarget returns the current uniform reduce slot target.
func (k *Kernel) ReduceTarget() int { return k.reduceTarget }

// Step runs one decision period on snapshot s. The first step adopts
// b's initial slot counts as the targets.
func (k *Kernel) Step(s mr.Stats, b Bounds) (st Step) {
	if k.mapTarget == 0 {
		k.mapTarget, k.reduceTarget = b.InitMaps, b.InitReduces
	}

	if s.HeadJobID < 0 {
		return // nothing queued
	}
	// Per-workload learning follows the job whose maps are running (the
	// front-stretch job), not the FIFO head: with queued jobs the head
	// can be deep in its reduce tail while the next job's maps define
	// the thrashing landscape. Learning (rate history, thrashing
	// ceiling) persists across same-profile jobs — the landscape they
	// define is the same — and resets when the workload changes.
	if s.FrontJobID >= 0 && s.FrontJobID != k.headJob {
		k.headJob = s.FrontJobID
		if s.FrontJobName != k.headProfile {
			k.resetForJob(s.FrontJobName, s.Now)
		}
	}

	// Always fold the counters into the sliding window so rates are
	// ready the moment the slow-start gate opens.
	inRate, outRate, _ := k.windowRates(s)

	// Slow start (§IV-A1): wait until enough maps have reported.
	if !k.cfg.DisableSlowStart && s.TotalMaps > 0 &&
		float64(s.DoneMaps) < k.cfg.SlowStartFraction*float64(s.TotalMaps) {
		return
	}

	// Tail stretch (§III-B3): no pending maps — convert slots.
	if s.PendingMaps == 0 {
		k.tailStretch(s, b, &st)
		return
	}
	k.inTail = false

	// Front stretch: record rates, detect thrashing, balance.
	stable := s.Now-k.lastChangeAt >= k.cfg.StabilizeDelay
	if stable && s.RunningMaps > 0 && inRate > 0 {
		e, ok := k.ratesBySlots[k.mapTarget]
		if !ok {
			e = stats.NewEWMA(0.4)
			k.ratesBySlots[k.mapTarget] = e
		}
		e.Observe(inRate)

		// Thrashing check: the aggregate map rate at the current slot
		// count is compared against the recorded rate one count lower.
		// This runs continuously, not only right after an increase —
		// with concurrent jobs the background load changes and a slot
		// count that was fine for one front stretch can be deep in
		// thrashing territory for the next.
		if !k.cfg.DisableThrashDetection && k.mapTarget > 1 {
			if prev, ok := k.ratesBySlots[k.mapTarget-1]; ok && prev.Count() > 0 && e.Count() > 0 {
				if e.Value() < prev.Value() {
					k.suspects++
					st.Suspicion = ThrashSuspect{MapSlots: k.mapTarget, Rate: e.Value(), PrevRate: prev.Value(), Suspects: k.suspects}
					if k.suspects >= k.cfg.SuspectConfirmations {
						k.confirmThrashing(s, &st)
						return
					}
				} else {
					k.suspects = 0
				}
			}
		}
	}

	f := k.balanceFactorFrom(s, outRate)
	k.lastFactor = f
	switch {
	case f > k.cfg.UpperBound:
		// Map-heavy: shuffle has headroom, push the maps — unless a
		// confirmed thrashing ceiling or the configured max stops us.
		if !stable {
			return
		}
		// Saturation guard: when the measured shuffle rate already
		// fills the achievable pipeline, faster maps only deepen the
		// backlog (this arises with queued jobs whose reducers hold all
		// reduce slots: the front job's own n is 0, inflating f).
		if s.PotentialShuffleMBps > 0 && s.ShuffleMBps >= 0.85*s.PotentialShuffleMBps {
			return
		}
		if !k.cfg.DisableThrashDetection && k.suspects > 0 {
			// Suspected thrashing: the paper gives the system "another
			// chance" rather than growing further (§IV-A2). A falling
			// map rate also inflates f, so growing here would feed the
			// very thrashing being investigated.
			return
		}
		next := k.mapTarget + 1
		if k.ceiling > 0 && next > k.ceiling {
			return
		}
		if next > b.MaxMaps {
			return
		}
		k.setTargets(s, next, k.reduceTarget, f, ReasonMapHeavy, &st)
	case f < k.cfg.LowerBound:
		if !stable {
			return
		}
		if k.mapTarget <= 1 {
			return
		}
		k.setTargets(s, k.mapTarget-1, k.reduceTarget, f, ReasonReduceHeavy, &st)
	default:
		// Balanced State (or f is NaN — no signal): leave the slots alone.
	}
	return
}

// windowRates differences the cumulative counters over the configured
// window. Returns zeros until two samples exist.
func (k *Kernel) windowRates(s mr.Stats) (inRate, outRate, shufRate float64) {
	// Fault discontinuity: a tracker crash discards in-flight work and
	// re-queues committed maps, so the cumulative counters can regress
	// below earlier samples. Differencing across the drop would yield
	// negative rates, poisoning the balance factor and the thrashing
	// ledger with phantom slowdowns and making the targets oscillate.
	// Restart the window at the current sample, forget the suspicion
	// state (rates under recovery say nothing about slot counts), and
	// reset the stabilize timer so the estimator settles before the
	// next judgement.
	if n := len(k.samples); n > 0 {
		last := k.samples[n-1]
		if s.MapInputProcessedMB < last.inMB || s.MapOutputProducedMB < last.outMB ||
			s.ShuffleMovedMB < last.shufMB {
			k.samples = k.samples[:0]
			k.suspects = 0
			k.lastChangeAt = s.Now
		}
	}
	k.samples = append(k.samples, rateSample{
		t: s.Now, inMB: s.MapInputProcessedMB, outMB: s.MapOutputProducedMB, shufMB: s.ShuffleMovedMB,
	})
	// Drop samples older than the window, always keeping one that
	// spans it so the window length stays close to RateWindow.
	cut := s.Now - k.cfg.RateWindow
	for len(k.samples) > 2 && k.samples[1].t <= cut {
		k.samples = k.samples[1:]
	}
	// After an idle gap (the queue drains between staggered jobs, so no
	// ticks ran) samples[0] can be arbitrarily stale; a window spanning
	// hours of zero progress would dilute the first post-gap rates and
	// misfire the balance factor. Re-anchor so the span never exceeds
	// ~2× the window, at worst collapsing to the current sample (one
	// tick of zero rates, then a clean window).
	for len(k.samples) > 1 && s.Now-k.samples[0].t > 2*k.cfg.RateWindow {
		k.samples = k.samples[1:]
	}
	old := k.samples[0]
	dt := s.Now - old.t
	if dt <= 0 {
		return 0, 0, 0
	}
	inRate = (s.MapInputProcessedMB - old.inMB) / dt
	outRate = (s.MapOutputProducedMB - old.outMB) / dt
	shufRate = (s.ShuffleMovedMB - old.shufMB) / dt
	// The regression guard above re-anchors on counter drops, so rates
	// here are non-negative up to float noise; clamp that noise away
	// rather than letting a -1e-16 rate flip a comparison downstream.
	inRate = math.Max(inRate, 0)
	outRate = math.Max(outRate, 0)
	shufRate = math.Max(shufRate, 0)
	k.lastWindow.inRate, k.lastWindow.outRate, k.lastWindow.shufRate = inRate, outRate, shufRate
	return inRate, outRate, shufRate
}

// balanceFactorFrom computes f = Rs / Rm (§IV-A3) given the windowed
// total map output rate Rt. Rm uses the front-stretch job's running
// reduce count — with concurrent jobs, only that job's partitions are
// being produced, so other jobs' tail reducers must not dilute the
// ratio. Returns +Inf when no partition output rate exists yet
// (trivially map-heavy).
func (k *Kernel) balanceFactorFrom(s mr.Stats, rt float64) float64 {
	if rt <= 1e-9 {
		// No map output measured yet: nothing to balance against.
		return math.NaN()
	}
	if s.FrontTotalReduces == 0 {
		// A job with no reducers is trivially map-heavy.
		return math.Inf(1)
	}
	if s.FrontRunningReduces == 0 {
		// The front job's reducers have not launched (earlier jobs may
		// hold every reduce slot): there is no shuffle to balance yet,
		// and neither growing nor shrinking is justified.
		return math.NaN()
	}
	rm := float64(s.FrontRunningReduces) / float64(s.FrontTotalReduces) * rt
	rs := s.PotentialShuffleMBps
	if s.ShuffleMBps > rs {
		rs = s.ShuffleMBps
	}
	return rs / rm
}

// confirmThrashing rolls back the last increase and pins the ceiling.
func (k *Kernel) confirmThrashing(s mr.Stats, st *Step) {
	k.ceiling = k.mapTarget - 1
	if k.ceiling < 1 {
		k.ceiling = 1
	}
	// setTargets runs before the suspect counter resets so the audit
	// record captures the confirmation count that triggered the rollback.
	k.setTargets(s, k.ceiling, k.reduceTarget, math.NaN(), ReasonThrashing(k.ceiling+1), st)
	k.suspects = 0
	st.Confirmed = true
}

// tailStretch releases map slots and, for small-shuffle jobs, boosts
// reduce slots (§III-B3).
func (k *Kernel) tailStretch(s mr.Stats, b Bounds, st *Step) {
	// Keep enough map slots for the stragglers still running, at least 1.
	perNode := (s.RunningMaps + b.Workers - 1) / b.Workers
	if perNode < 1 {
		perNode = 1
	}
	if perNode > k.mapTarget {
		perNode = k.mapTarget // never grow maps in the tail
	}
	reduces := k.reduceTarget
	reason := ReasonTailRelease
	if !k.cfg.DisableTailBoost && s.ShufflePerReduceMB > 0 && s.ShufflePerReduceMB < tailShufflePerReduceMB {
		reduces = b.MaxReduces
		reason = ReasonTailBoost
	}
	if perNode == k.mapTarget && reduces == k.reduceTarget {
		return
	}
	st.TailEntry = !k.inTail
	k.inTail = true
	k.setTargets(s, perNode, reduces, math.NaN(), reason, st)
}

// setTargets moves the uniform targets and records the decision in st
// with its full-input audit record.
func (k *Kernel) setTargets(s mr.Stats, maps, reduces int, f float64, reason string, st *Step) {
	prevMaps, prevReduces := k.mapTarget, k.reduceTarget
	k.mapTarget, k.reduceTarget = maps, reduces
	k.lastChangeAt = s.Now
	st.Changed = true
	st.Audit = AuditRecord{
		At:               s.Now,
		PrevMapTarget:    prevMaps,
		PrevReduceTarget: prevReduces,
		MapTarget:        maps,
		ReduceTarget:     reduces,
		Factor:           f,
		Reason:           reason,
		InRate:           k.lastWindow.inRate,
		OutRate:          k.lastWindow.outRate,
		ShufRate:         k.lastWindow.shufRate,

		ShuffleMBps:          s.ShuffleMBps,
		PotentialShuffleMBps: s.PotentialShuffleMBps,
		LowerBound:           k.cfg.LowerBound,
		UpperBound:           k.cfg.UpperBound,

		Suspects: k.suspects,
		Ceiling:  k.ceiling,
		InTail:   k.inTail,

		DoneMaps:            s.DoneMaps,
		TotalMaps:           s.TotalMaps,
		PendingMaps:         s.PendingMaps,
		RunningMaps:         s.RunningMaps,
		FrontJob:            s.FrontJobID,
		FrontRunningReduces: s.FrontRunningReduces,
		FrontTotalReduces:   s.FrontTotalReduces,
	}
}

// resetForJob clears per-workload learning when the front job's
// profile changes. Slot targets persist — the next job starts from
// wherever the previous one left the cluster, then adapts.
func (k *Kernel) resetForJob(profile string, now float64) {
	k.headProfile = profile
	k.ratesBySlots = make(map[int]*stats.EWMA)
	k.suspects = 0
	k.ceiling = 0
	k.inTail = false
	// A fresh job has seen no slot change, so the stabilize delay does
	// not apply: the manager may act on its first informed tick. The
	// slow-start gate is what protects the early decisions (§IV-A1).
	k.lastChangeAt = now - k.cfg.StabilizeDelay
	k.samples = nil
	k.lastFactor = math.NaN()
}
