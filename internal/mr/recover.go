package mr

import (
	"fmt"
	"math"
)

// This file is the recovery half of the fault model (internal/chaos):
// tracker rejoin after a crash, transient heartbeat loss with
// blacklisting and probation, and mid-run node/link degradations. The
// destructive half (FailTracker and friends) lives in failure.go.

// RecoverTracker brings a previously failed tracker back at the current
// virtual time, reproducing Hadoop's re-registration semantics: the
// daemon restarts on the same node with an empty local disk, so
//
//   - any committed map output that lived there is gone — outputs some
//     reducer still needs re-execute elsewhere, the rest are marked
//     lost so later shuffle rebuilds do not fetch phantom bytes;
//   - rate windows restart fresh (the job tracker has no history for a
//     re-registered daemon) and slot targets re-seed to the configured
//     initial values;
//   - heartbeats resume immediately on the tracker's own cadence.
//
// Recovering an unknown or live tracker returns an error.
func (c *Cluster) RecoverTracker(id int) error {
	if id < 0 || id >= len(c.trackers) {
		return fmt.Errorf("mr: RecoverTracker(%d): no such tracker", id)
	}
	tt := c.trackers[id]
	if !tt.failed {
		return fmt.Errorf("mr: tracker %d is not failed", id)
	}
	c.Mutate(func() { c.recoverTracker(tt) })
	return nil
}

// ScheduleRecovery arranges RecoverTracker(id) at virtual time at. Call
// before Run. An inapplicable recovery (tracker alive at fire time) is
// logged as a fault error rather than panicking.
func (c *Cluster) ScheduleRecovery(id int, at float64) {
	c.clock.Schedule(at, fmt.Sprintf("rejoin tt%d", id), func() {
		c.faultErr(id, "rejoin", c.RecoverTracker(id))
	})
}

// recoverTracker does the work inside a mutation scope.
func (c *Cluster) recoverTracker(tt *TaskTracker) {
	now := c.clock.Now()
	// The failure path emptied the slots; a rejoin holding task state
	// would mean ghost work survived the crash.
	c.inv.CheckRecover(tt.id, len(tt.runningMaps), len(tt.runningReduces))
	tt.failed = false
	// A crash supersedes any in-progress heartbeat-loss incident: the
	// restarted daemon registers cleanly (its loss timers were cancelled
	// by stop()).
	tt.hbLost, tt.blacklisted, tt.probation = false, false, false

	// Fresh rate windows: EWMAs restart and the window anchors re-base
	// on the cumulative done counters, which survive the crash — they
	// are the job tracker's ledger, not the daemon's, and the
	// telemetry invariant requires them monotone.
	tt.mapInputRate.Reset()
	tt.mapOutputRate.Reset()
	tt.shuffleRate.Reset()
	tt.lastHB = now
	tt.lastMapInputMB = tt.mapInputDoneMB
	tt.lastMapOutputMB = tt.mapOutputDoneMB
	tt.lastShuffleMB = tt.shuffleDoneMB

	// Slot targets re-seed to the configured initial values, for the
	// runtime controller to retune from scratch.
	tt.mapTarget = c.cfg.MapSlots
	tt.reduceTarget = c.cfg.ReduceSlots
	c.jt.desiredMaps[tt.id] = c.cfg.MapSlots
	c.jt.desiredReduces[tt.id] = c.cfg.ReduceSlots

	c.note(transition{kind: EvTrackerRejoin, tracker: tt.id, x: float64(tt.mapTarget), y: float64(tt.reduceTarget)})

	// Empty disk: every output committed here before the crash is gone.
	// The failure path already re-queued the ones needed at crash time;
	// anything still pointing at this host is either newly needed again
	// (a later failure reset some reducer's fetch ledger) or marked
	// lost so shuffle rebuilds skip it. Queued-but-unfetched shares
	// from this host on not-yet-running reducers are dropped the same
	// way — the rejoined daemon serves no pre-crash bytes.
	for _, j := range c.jt.queue {
		for _, m := range j.maps {
			if m.state != TaskDone || m.outputHost != tt.id {
				continue
			}
			if c.outputStillNeeded(j, m) {
				c.requeueCommittedMap(j, m)
			} else {
				m.outputLost = true
			}
		}
		for _, r := range j.reduces {
			if r.state == TaskDone || r.state == TaskRunning {
				continue // running reducers were purged at crash time
			}
			s := &r.srcs[tt.id]
			s.pendingMB = 0
			s.maps = s.maps[:0]
		}
	}

	// Heartbeats resume on the tracker's own cadence, first beat now —
	// unless the simulation already shut down.
	if !c.stopped {
		tt.hbEvent = c.clock.SchedulePeriodic(now, heartbeatPeriod, tt.hbLabel, tt.hbFn)
	}
}

// BeginHeartbeatLoss silences tracker id for duration seconds: its
// heartbeats stop arriving at the job tracker while its running tasks
// keep executing (the daemon is alive, only the control channel is
// out). If the silence outlasts blacklistTimeout (3 s) the job tracker
// blacklists the node; when heartbeats resume, a blacklisted tracker
// serves a probation of probationPeriod (5 s) doubled per accumulated
// incident before it receives new work again.
func (c *Cluster) BeginHeartbeatLoss(id int, duration float64) error {
	if id < 0 || id >= len(c.trackers) {
		return fmt.Errorf("mr: BeginHeartbeatLoss(%d): no such tracker", id)
	}
	if duration <= 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
		return fmt.Errorf("mr: BeginHeartbeatLoss(%d): duration %v must be positive and finite", id, duration)
	}
	tt := c.trackers[id]
	if tt.failed {
		return fmt.Errorf("mr: tracker %d is failed", id)
	}
	if tt.hbLost {
		return fmt.Errorf("mr: tracker %d already inside a heartbeat-loss window", id)
	}
	c.Mutate(func() { c.beginHeartbeatLoss(tt, duration) })
	return nil
}

// ScheduleHeartbeatLoss arranges BeginHeartbeatLoss(id, duration) at
// virtual time at. Call before Run. Inapplicable losses (tracker dead
// or already silent at fire time) are logged as fault errors.
func (c *Cluster) ScheduleHeartbeatLoss(id int, at, duration float64) {
	c.clock.Schedule(at, fmt.Sprintf("hbloss tt%d", id), func() {
		c.faultErr(id, "hbloss", c.BeginHeartbeatLoss(id, duration))
	})
}

func (c *Cluster) beginHeartbeatLoss(tt *TaskTracker, duration float64) {
	tt.hbLost = true
	c.clock.Cancel(tt.hbEvent)
	tt.hbEvent = 0
	c.note(transition{kind: EvTrackerHBLost, tracker: tt.id, x: duration})

	// The job tracker's side: silence beyond the timeout blacklists the
	// node. The check fires only if the loss window is still open then.
	if duration > blacklistTimeout {
		tt.blacklistCheck = c.clock.After(blacklistTimeout, lazyLabel(&tt.blacklistLabel, "blacklist tt%d", tt.id), func() {
			c.Mutate(func() {
				tt.blacklistCheck = 0
				if tt.failed || !tt.hbLost || tt.blacklisted {
					return
				}
				tt.blacklisted = true
				tt.blacklistCount++
				c.note(transition{kind: EvTrackerBlacklisted, tracker: tt.id, x: float64(tt.blacklistCount)})
			})
		})
	}
	tt.hbResume = c.clock.After(duration, lazyLabel(&tt.hbResumeLabel, "hb-resume tt%d", tt.id), func() {
		c.Mutate(func() { c.endHeartbeatLoss(tt) })
	})
}

// endHeartbeatLoss closes the loss window: heartbeats resume, and a
// blacklisted tracker converts its blacklist into a probation with
// exponential backoff over accumulated incidents.
func (c *Cluster) endHeartbeatLoss(tt *TaskTracker) {
	tt.hbResume = 0
	if tt.failed || !tt.hbLost {
		return // a crash (and possibly a rejoin) superseded the incident
	}
	now := c.clock.Now()
	tt.hbLost = false
	c.clock.Cancel(tt.blacklistCheck)
	tt.blacklistCheck = 0

	// Re-anchor the rate window on the far side of the silence so the
	// first beat back does not average across the gap.
	tt.lastHB = now
	tt.lastMapInputMB = tt.mapInputDoneMB + tt.inFlightMapInputMB()
	tt.lastMapOutputMB = tt.mapOutputDoneMB + tt.inFlightMapOutputMB()
	tt.lastShuffleMB = tt.shuffleDoneMB + tt.inFlightShuffleMB()

	c.note(transition{kind: EvTrackerHBRestored, tracker: tt.id})

	if tt.blacklisted {
		tt.blacklisted = false
		tt.probation = true
		backoff := probationPeriod * math.Pow(2, float64(tt.blacklistCount-1))
		c.note(transition{kind: EvTrackerProbation, tracker: tt.id, x: backoff})
		tt.probationEnd = c.clock.After(backoff, lazyLabel(&tt.probationLabel, "probation-end tt%d", tt.id), func() {
			c.Mutate(func() {
				tt.probationEnd = 0
				if tt.failed || !tt.probation {
					return
				}
				tt.probation = false
				c.note(transition{kind: EvTrackerCleared, tracker: tt.id})
				c.jt.assign(tt)
			})
		})
	}

	if !c.stopped {
		tt.hbEvent = c.clock.SchedulePeriodic(now, heartbeatPeriod, tt.hbLabel, tt.hbFn)
	}
}

// ScheduleNodeDegrade scales node id's CPU and disk service rates by
// the given factors in (0, 1] during [at, at+duration) — a slow node:
// failing disk, thermal throttling, a noisy co-tenant stealing cycles.
// It scales the delivered service rates directly. Call before Run;
// invalid arguments panic immediately (static schedule errors).
func (c *Cluster) ScheduleNodeDegrade(id int, at, duration, cpuScale, diskScale float64) {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("mr: ScheduleNodeDegrade(%d): no such node", id))
	}
	if cpuScale <= 0 || cpuScale > 1 || diskScale <= 0 || diskScale > 1 {
		panic(fmt.Sprintf("mr: ScheduleNodeDegrade scales (%v, %v) must be in (0,1]", cpuScale, diskScale))
	}
	if duration <= 0 {
		panic(fmt.Sprintf("mr: ScheduleNodeDegrade duration %v must be positive", duration))
	}
	c.clock.Schedule(at, fmt.Sprintf("degrade node%d", id), func() {
		c.Mutate(func() { c.nodes[id].SetServiceScale(cpuScale, diskScale) })
		c.note(transition{kind: EvNodeDegraded, tracker: id, x: cpuScale, y: diskScale})
		c.clock.After(duration, fmt.Sprintf("restore node%d", id), func() {
			c.Mutate(func() { c.nodes[id].SetServiceScale(1, 1) })
			c.note(transition{kind: EvNodeRestored, tracker: id})
		})
	})
}

// ScheduleLinkDegrade scales node id's fabric access links (egress and
// ingress capacity factors in [0, 1]; 0 severs the direction) during
// [at, at+duration). Flows crossing a severed link stall at rate zero
// and resume through the dirty-set resolver when the link is restored —
// reducers mid-fetch simply wait out the partition. Call before Run;
// invalid arguments panic immediately.
func (c *Cluster) ScheduleLinkDegrade(id int, at, duration, egressScale, ingressScale float64) {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("mr: ScheduleLinkDegrade(%d): no such node", id))
	}
	if egressScale < 0 || egressScale > 1 || ingressScale < 0 || ingressScale > 1 {
		panic(fmt.Sprintf("mr: ScheduleLinkDegrade scales (%v, %v) must be in [0,1]", egressScale, ingressScale))
	}
	if duration <= 0 {
		panic(fmt.Sprintf("mr: ScheduleLinkDegrade duration %v must be positive", duration))
	}
	c.clock.Schedule(at, fmt.Sprintf("degrade link%d", id), func() {
		c.Mutate(func() { c.fabric.SetNodeLinkScale(id, egressScale, ingressScale) })
		c.note(transition{kind: EvLinkDegraded, tracker: id, x: egressScale, y: ingressScale})
		c.clock.After(duration, fmt.Sprintf("restore link%d", id), func() {
			c.Mutate(func() { c.fabric.SetNodeLinkScale(id, 1, 1) })
			c.note(transition{kind: EvLinkRestored, tracker: id})
		})
	})
}
