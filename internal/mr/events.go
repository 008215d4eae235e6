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

// eventLogLimit caps an event log's retained entries.
const eventLogLimit = 1 << 18

// EventLog collects structured events up to a cap; beyond it the oldest
// entries are dropped (the Dropped counter records how many), so a
// pathological run cannot exhaust memory.
type EventLog struct {
	limit   int // eventLogLimit
	events  []Event
	Dropped int
}

// EnableEventLog attaches a structured event log to the cluster and
// returns it. Call before Run.
func (c *Cluster) EnableEventLog() *EventLog {
	c.events = &EventLog{limit: eventLogLimit}
	return c.events
}

// A transition is one runtime state change as every sink reads it:
// its kind, the job, task and tracker it concerns, and up to two
// numbers whose meaning the kind fixes (see detail and traceInstant).
// Building one formats nothing; each attached sink formats only the
// fields it reads.
type transition struct {
	kind    EventKind
	job     *Job
	task    string // "map" or "reduce" for task-level kinds, naming id
	id      int    // the map index or reduce partition
	tracker int    // -1 when the transition concerns no tracker
	x, y    float64
	text    string // a tenant cap's tenant, a requeue's or fault error's cause
}

// note is the one observation call of a runtime transition. It feeds
// every attached sink: the event log, the trace instant of the kind
// (instants) and, for a job's submission, barrier and finish, the
// progress milestone. With no sink attached it costs a nil check each.
func (c *Cluster) note(t transition) {
	if c.events != nil {
		c.logEvent(&t)
	}
	if c.tracer.Enabled() {
		c.traceInstant(&t)
	}
	switch t.kind {
	case EvJobSubmitted, EvBarrier, EvJobFinished:
		c.progressMilestone(string(t.kind), t.job.Spec.Name)
	}
}

// logEvent is the event-log sink: it appends t as an Event, evicting
// the oldest half of the log when it is full.
func (c *Cluster) logEvent(t *transition) {
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
	e := Event{At: c.clock.Now(), Kind: t.kind, Tracker: t.tracker, Detail: t.detail()}
	if t.job != nil {
		e.Job = t.job.Spec.Name
	}
	if t.task != "" {
		e.Task = t.task + "/" + strconv.Itoa(t.id)
	}
	l.events = append(l.events, e)
	c.inv.CheckEventAppend(e.At, len(l.events), l.limit)
}

// detail formats the event log's Detail field of t.
func (t *transition) detail() string {
	switch t.kind {
	case EvJobSubmitted:
		d := fmt.Sprintf("%d maps, %d reduces", t.job.NumMaps(), t.job.NumReduces())
		if t.job.Spec.Tenant != "" {
			d += ", tenant " + t.job.Spec.Tenant
		}
		return d
	case EvSlotChange, EvTrackerRejoin: // map/reduce slot targets
		return strconv.Itoa(int(t.x)) + "/" + strconv.Itoa(int(t.y))
	case EvTrackerHBLost, EvTrackerProbation: // the window in seconds
		return fmt.Sprint(t.x)
	case EvTrackerBlacklisted:
		return "incident " + strconv.Itoa(int(t.x))
	case EvNodeDegraded:
		return fmt.Sprintf("cpu %v disk %v", t.x, t.y)
	case EvLinkDegraded:
		return fmt.Sprintf("egress %v ingress %v", t.x, t.y)
	case EvTenantCap: // a negative cap lifts the tenant's cap
		if t.x < 0 {
			return t.text + "=uncapped"
		}
		return t.text + "=" + strconv.Itoa(int(t.x))
	}
	return t.text
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

// WriteText renders the log as text, one line per event except task
// starts and commits: "[at] kind job task ttN: detail", each field
// present only when the event has it.
func (l *EventLog) WriteText(w io.Writer) error {
	if l.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events dropped)\n", l.Dropped); err != nil {
			return err
		}
	}
	for _, e := range l.events {
		if e.Kind == EvTaskStarted || e.Kind == EvTaskDone {
			continue
		}
		line := fmt.Sprintf("[%9.2f] %s", e.At, e.Kind)
		for _, f := range []string{e.Job, e.Task} {
			if f != "" {
				line += " " + f
			}
		}
		if e.Tracker >= 0 {
			line += " tt" + strconv.Itoa(e.Tracker)
		}
		if e.Detail != "" {
			line += ": " + e.Detail
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	return nil
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
