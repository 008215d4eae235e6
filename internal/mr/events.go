package mr

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// EventKind labels one entry of the structured runtime event log.
type EventKind string

// The event vocabulary. Task-level kinds identify the task in the
// Task field as "<type>/<id>"; slot changes carry "maps/reduces" in
// Detail.
const (
	EvJobSubmitted EventKind = "job-submitted"
	EvTaskStarted  EventKind = "task-started"
	EvTaskDone     EventKind = "task-done"
	EvBarrier      EventKind = "barrier-crossed"
	EvJobFinished  EventKind = "job-finished"
	EvSlotChange   EventKind = "slot-change"
	EvTrackerDown  EventKind = "tracker-failed"
	EvSpeculative  EventKind = "speculative-launch"
	EvRequeued     EventKind = "task-requeued"
	EvTrackerDrain EventKind = "tracker-draining"

	// Fault-injection vocabulary (internal/chaos). Degradations carry
	// their parameters in Detail; EvFaultError records a fault that
	// could not be applied (e.g. crashing an already-dead tracker).
	EvTrackerRejoin      EventKind = "tracker-rejoined"
	EvTrackerHBLost      EventKind = "tracker-hb-lost"
	EvTrackerHBRestored  EventKind = "tracker-hb-restored"
	EvTrackerBlacklisted EventKind = "tracker-blacklisted"
	EvTrackerProbation   EventKind = "tracker-probation"
	EvTrackerCleared     EventKind = "tracker-cleared"
	// EvTenantCap records one tenant's task cap changing at a capacity
	// tick; Detail carries "tenant=cap" (or "tenant=uncapped").
	EvTenantCap EventKind = "tenant-cap"

	EvNodeDegraded EventKind = "node-degraded"
	EvNodeRestored EventKind = "node-restored"
	EvLinkDegraded EventKind = "link-degraded"
	EvLinkRestored EventKind = "link-restored"
	EvFaultError   EventKind = "fault-error"
)

// Event is one structured log entry. Tracker is -1 when not applicable.
type Event struct {
	At      float64   `json:"at"`
	Kind    EventKind `json:"kind"`
	Job     string    `json:"job,omitempty"`
	Task    string    `json:"task,omitempty"`
	Tracker int       `json:"tracker"`
	Detail  string    `json:"detail,omitempty"`
}

// EventLog collects structured events up to a cap; beyond it the oldest
// entries are dropped (the Dropped counter records how many), so a
// pathological run cannot exhaust memory.
type EventLog struct {
	limit   int
	events  []Event
	Dropped int
}

// EnableEventLog attaches a structured event log to the cluster and
// returns it. Call before Run. A limit of 0 uses a generous default.
func (c *Cluster) EnableEventLog(limit int) *EventLog {
	if limit <= 0 {
		limit = 1 << 18
	}
	c.events = &EventLog{limit: limit}
	return c.events
}

// emit appends an event if logging is enabled.
func (c *Cluster) emit(kind EventKind, job, task string, tracker int, detail string) {
	if c.events == nil {
		return
	}
	l := c.events
	if len(l.events) >= l.limit {
		// Drop the oldest half in one amortised move — at least one
		// entry, so tiny limits still evict.
		half := l.limit / 2
		if half < 1 {
			half = 1
		}
		n := copy(l.events, l.events[half:])
		l.events = l.events[:n]
		l.Dropped += half
	}
	l.events = append(l.events, Event{
		At: c.clock.Now(), Kind: kind, Job: job, Task: task, Tracker: tracker, Detail: detail,
	})
	if c.inv != nil {
		e := &l.events[len(l.events)-1]
		c.inv.CheckEventAppend(e.At, len(l.events), l.limit)
	}
}

// emitTask logs a task-level event. The "<type>/<id>" task name is
// formatted only when a log is attached, so task launches and commits
// on an unlogged run format nothing.
func (c *Cluster) emitTask(kind EventKind, j *Job, typ string, id, tracker int, detail string) {
	if c.events == nil {
		return
	}
	c.emit(kind, j.Spec.Name, typ+"/"+strconv.Itoa(id), tracker, detail)
}

// Events returns a copy of the collected events in emission order. The
// log compacts its storage in place on eviction, so handing out the
// internal slice would let retained snapshots mutate under the caller.
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Filter returns the events of one kind, in order.
func (l *EventLog) Filter(kind EventKind) []Event {
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL streams the log as one JSON object per line.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("mr: encoding event log: %w", err)
		}
	}
	return nil
}
