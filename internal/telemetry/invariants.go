package telemetry

import (
	"fmt"
	"os"
	"strings"
)

// Runtime invariant checking is on inside test binaries (so every test
// run doubles as a trajectory-level oracle) and whenever
// SMR_INVARIANTS=1 is set; otherwise NewInvariants returns nil and
// every check compiles down to a nil-receiver no-op, adding a single
// predictable branch to the instrumented paths.
var invariantsOn = detectInvariants()

func detectInvariants() bool {
	if os.Getenv("SMR_INVARIANTS") == "1" {
		return true
	}
	exe := os.Args[0]
	return strings.HasSuffix(exe, ".test") || strings.HasSuffix(exe, ".test.exe")
}

// InvariantsEnabled reports whether invariant checking is active.
func InvariantsEnabled() bool { return invariantsOn }

// SetInvariantsEnabled overrides the detection (tests) and returns the
// previous setting so callers can restore it.
func SetInvariantsEnabled(on bool) bool {
	prev := invariantsOn
	invariantsOn = on
	return prev
}

// Invariants checks runtime properties that must hold on every
// trajectory, panicking with the offending context on violation:
//
//   - slot targets applied to a tracker stay within [1, Max*Slots];
//   - a task launch never exceeds the tracker's slot target (lazy
//     shrinking may leave running > target, but then nothing launches);
//   - per-tracker cumulative done counters never decrease;
//   - event and sample timestamps are monotone;
//   - the event log never grows beyond its limit.
//
// All methods are no-ops on the nil receiver.
type Invariants struct {
	lastEventAt  float64
	eventSeen    bool
	lastSampleAt float64
	sampleSeen   bool
	counters     [][3]float64 // by tracker id: {inMB, outMB, shufMB}
}

// NewInvariants returns a checker, or nil when checking is disabled.
func NewInvariants() *Invariants {
	if !invariantsOn {
		return nil
	}
	return &Invariants{}
}

// CheckSlotTargets validates a slot-change command applied to tracker.
func (v *Invariants) CheckSlotTargets(tracker, maps, reduces, maxMaps, maxReduces int) {
	if v == nil {
		return
	}
	if maps < 1 || maps > maxMaps {
		panic(fmt.Sprintf("telemetry: invariant violated: tracker %d map target %d outside [1,%d]",
			tracker, maps, maxMaps))
	}
	if reduces < 1 || reduces > maxReduces {
		panic(fmt.Sprintf("telemetry: invariant violated: tracker %d reduce target %d outside [1,%d]",
			tracker, reduces, maxReduces))
	}
}

// CheckMapLaunch validates the occupancy right after a map launch.
func (v *Invariants) CheckMapLaunch(tracker, running, target int) {
	if v == nil {
		return
	}
	if running > target {
		panic(fmt.Sprintf("telemetry: invariant violated: tracker %d launched map #%d beyond target %d",
			tracker, running, target))
	}
}

// CheckReduceLaunch validates the occupancy right after a reduce launch.
func (v *Invariants) CheckReduceLaunch(tracker, running, target int) {
	if v == nil {
		return
	}
	if running > target {
		panic(fmt.Sprintf("telemetry: invariant violated: tracker %d launched reduce #%d beyond target %d",
			tracker, running, target))
	}
}

// CheckLaunchTracker validates that the tracker receiving a task launch
// is actually eligible for work: not failed, not draining, not inside a
// heartbeat-loss window, not blacklisted, not on probation.
func (v *Invariants) CheckLaunchTracker(tracker int, failed, draining, hbLost, blacklisted, probation bool) {
	if v == nil {
		return
	}
	if failed || draining || hbLost || blacklisted || probation {
		panic(fmt.Sprintf("telemetry: invariant violated: task launched on ineligible tracker %d (failed=%v draining=%v hbLost=%v blacklisted=%v probation=%v)",
			tracker, failed, draining, hbLost, blacklisted, probation))
	}
}

// CheckRecover validates a tracker rejoin: a crashed tracker must come
// back with zero pre-crash task state (its slots were emptied by the
// failure path; anything still attached would be ghost work).
func (v *Invariants) CheckRecover(tracker, runningMaps, runningReduces int) {
	if v == nil {
		return
	}
	if runningMaps != 0 || runningReduces != 0 {
		panic(fmt.Sprintf("telemetry: invariant violated: tracker %d rejoined holding %d maps / %d reduces",
			tracker, runningMaps, runningReduces))
	}
}

// CheckCounters validates that a tracker's cumulative done counters
// have not decreased since the previous check.
func (v *Invariants) CheckCounters(tracker int, inMB, outMB, shufMB float64) {
	if v == nil {
		return
	}
	if tracker >= len(v.counters) {
		v.counters = append(v.counters, make([][3]float64, tracker+1-len(v.counters))...)
	}
	last := v.counters[tracker]
	if inMB < last[0] || outMB < last[1] || shufMB < last[2] {
		panic(fmt.Sprintf("telemetry: invariant violated: tracker %d counters regressed: in %v->%v out %v->%v shuffle %v->%v",
			tracker, last[0], inMB, last[1], outMB, last[2], shufMB))
	}
	v.counters[tracker] = [3]float64{inMB, outMB, shufMB}
}

// CheckSample validates that sampler timestamps are monotone.
func (v *Invariants) CheckSample(at float64) {
	if v == nil {
		return
	}
	if v.sampleSeen && at < v.lastSampleAt {
		panic(fmt.Sprintf("telemetry: invariant violated: sample at %v before previous %v", at, v.lastSampleAt))
	}
	v.lastSampleAt, v.sampleSeen = at, true
}

// CheckEventAppend validates the event log right after an append:
// bounded length and monotone timestamps.
func (v *Invariants) CheckEventAppend(at float64, length, limit int) {
	if v == nil {
		return
	}
	if length > limit {
		panic(fmt.Sprintf("telemetry: invariant violated: event log length %d exceeds limit %d", length, limit))
	}
	if v.eventSeen && at < v.lastEventAt {
		panic(fmt.Sprintf("telemetry: invariant violated: event at %v before previous %v", at, v.lastEventAt))
	}
	v.lastEventAt, v.eventSeen = at, true
}
