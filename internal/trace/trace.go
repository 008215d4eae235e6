// Package trace records structured spans and instants of the runtime's
// causal sequences — job, task, shuffle-flow and slot-drain lifecycles,
// slot-manager ticks and decisions — and exports them as Chrome
// trace-event JSON, so a run opens directly in Perfetto or
// chrome://tracing, plus a plain-text per-category summary.
//
// The sampled telemetry layer (internal/telemetry) answers "what was
// the value at tick t"; this layer answers "what happened, caused by
// what, and how long did it take". The paper's mechanisms — slow start,
// balance-factor slot moves, thrashing confirmation over consecutive
// suspected periods, lazy tail-stretch shutdown — are exactly such
// causal sequences, which sampling cannot reconstruct.
//
// Cost model: like telemetry.Invariants, the tracer follows the
// nil-receiver pattern. A disabled tracer is a nil *Tracer; every
// method no-ops on it, so the instrumented hot paths pay one
// predictable branch and zero allocations (pinned by an AllocsPerRun
// guard in the tests). Call sites that must format names or build
// fields guard with Enabled() so even the argument construction is
// skipped when tracing is off.
//
// Timestamps are virtual-simulation seconds; the Chrome export scales
// them to microseconds, so one trace second renders as one simulated
// second.
package trace

import (
	"fmt"
	"math"
	"sync"
)

// Verbosity levels gate the high-volume span sources.
const (
	// VerbosityTasks records jobs, tasks, controller activity and
	// instants — the default.
	VerbosityTasks = 0
	// VerbosityFlows additionally records shuffle fetch flow spans.
	VerbosityFlows = 1
	// VerbosityAllFlows records every fabric flow (DFS reads and output
	// replication included).
	VerbosityAllFlows = 2
)

// Well-known track ids ("processes" in the Chrome trace model). The mr
// runtime registers its tracks under these ids; per-tracker tracks use
// PIDTrackerBase + tracker id. Documented as the trace schema contract
// in DESIGN.md.
const (
	PIDJobs        = 1
	PIDController  = 2
	PIDNetwork     = 3
	PIDProgress    = 4
	PIDTrackerBase = 10
)

// eventLimit bounds the retained event count; the oldest half is
// evicted beyond it (counted in Dropped). At roughly 100 bytes/event
// this caps memory near 100 MB for pathological runs; normal runs stay
// far below it.
const eventLimit = 1 << 20

// Field is one key/value argument attached to a span or instant. Build
// with Str or Num; the zero Field is skipped on export.
type Field struct {
	Key   string
	str   string
	num   float64
	isNum bool
}

// Str builds a string-valued field.
func Str(k, v string) Field { return Field{Key: k, str: v} }

// Num builds a numeric field. NaN and ±Inf export as null (JSON has no
// encoding for them).
func Num(k string, v float64) Field { return Field{Key: k, num: v, isNum: true} }

// SpanRef identifies an open span. The zero SpanRef is invalid (and is
// what a nil tracer returns), so span handles embed safely into structs
// without sentinels. The upper bits carry the slot's generation, so a
// stale ref held past End cannot close the slot's next occupant.
type SpanRef int64

// Options tunes a Tracer.
type Options struct {
	// Verbosity selects which span sources record (Verbosity* consts).
	Verbosity int
}

// event is one recorded trace event: a completed span (ph 'X'), an
// instant (ph 'i') or track metadata (ph 'M').
type event struct {
	ph     byte
	ts     float64 // virtual seconds
	dur    float64 // span duration, seconds (ph 'X' only)
	pid    int
	tid    int
	cat    string
	name   string
	fields []Field
}

// openSpan is a begun-but-unfinished span.
type openSpan struct {
	start    float64
	pid, tid int
	cat      string
	name     string
	fields   []Field
	live     bool
	gen      int32
	nextFree int32
}

// laneSet allocates the lowest free lane ("thread" row) per track, so
// concurrent spans of one track render side by side — on a tracker
// track the lanes read as working slots in use.
type laneSet struct {
	used []bool
}

func (l *laneSet) alloc() int {
	for i, u := range l.used {
		if !u {
			l.used[i] = true
			return i
		}
	}
	l.used = append(l.used, true)
	return len(l.used) - 1
}

func (l *laneSet) release(i int) {
	if i >= 0 && i < len(l.used) {
		l.used[i] = false
	}
}

// Tracer records spans and instants. Safe for concurrent use: the
// serve mode's /trace endpoint snapshots a live run from another
// goroutine. A nil Tracer is the disabled tracer; every method no-ops.
type Tracer struct {
	mu       sync.Mutex
	opt      Options
	limit    int     // eventLimit
	meta     []event // track-name metadata, never evicted
	events   []event
	dropped  int
	spans    []openSpan
	freeSpan int32 // free-list head into spans, -1 when empty
	lanes    map[int]*laneSet
	began    int
}

// New builds a tracer. To disable tracing, use a nil *Tracer instead.
func New(opt Options) *Tracer {
	return &Tracer{opt: opt, limit: eventLimit, freeSpan: -1, lanes: make(map[int]*laneSet)}
}

// Reset discards all recorded events, track metadata, open spans and
// lane assignments while retaining every backing allocation, so a
// pooled worker can recycle the tracer across consecutive runs. Span
// generations restart, making a reset tracer observationally identical
// to a fresh one — including the exact SpanRef values it hands out.
// SpanRefs issued before the reset must be dropped by the caller. A
// nil tracer no-ops, like every other method.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.events)
	t.events = t.events[:0]
	clear(t.meta)
	t.meta = t.meta[:0]
	t.dropped = 0
	clear(t.spans)
	t.spans = t.spans[:0]
	t.freeSpan = -1
	for _, ls := range t.lanes {
		ls.used = ls.used[:0]
	}
	t.began = 0
}

// Enabled reports whether the tracer records anything. Guard argument
// construction (fmt, Field building) behind it on hot paths.
func (t *Tracer) Enabled() bool { return t != nil }

// Verbosity returns the configured verbosity, 0 for a nil tracer.
func (t *Tracer) Verbosity() int {
	if t == nil {
		return 0
	}
	return t.opt.Verbosity
}

// SetTrackName names a track (pid) in the exported trace.
func (t *Tracer) SetTrackName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.meta = append(t.meta, event{ph: 'M', pid: pid, name: name})
}

// Begin opens a span on track pid at virtual time now and returns its
// handle. The span occupies the lowest free lane of the track until
// End releases it. Fields passed here are exported with the completed
// span's args.
func (t *Tracer) Begin(now float64, pid int, cat, name string, fields ...Field) SpanRef {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.lanes[pid]
	if ls == nil {
		ls = &laneSet{}
		t.lanes[pid] = ls
	}
	lane := ls.alloc()
	var idx int32
	if t.freeSpan >= 0 {
		idx = t.freeSpan
		t.freeSpan = t.spans[idx].nextFree
	} else {
		t.spans = append(t.spans, openSpan{})
		idx = int32(len(t.spans) - 1)
	}
	gen := t.spans[idx].gen + 1
	t.spans[idx] = openSpan{start: now, pid: pid, tid: lane, cat: cat, name: name, fields: fields, live: true, gen: gen}
	t.began++
	return SpanRef(int64(gen)<<32 | int64(idx+1))
}

// End closes a span, emitting one complete event spanning begin→now.
// Fields passed here are appended to the begin fields. Ending the zero
// SpanRef (or double-ending) is a no-op, so teardown paths need no
// bookkeeping.
func (t *Tracer) End(now float64, ref SpanRef, fields ...Field) {
	if t == nil || ref <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := int32(ref&0xffffffff) - 1
	gen := int32(ref >> 32)
	if idx < 0 || int(idx) >= len(t.spans) || !t.spans[idx].live || t.spans[idx].gen != gen {
		return
	}
	sp := &t.spans[idx]
	f := sp.fields
	if len(fields) > 0 {
		f = append(append(make([]Field, 0, len(f)+len(fields)), f...), fields...)
	}
	dur := now - sp.start
	if dur < 0 {
		dur = 0
	}
	t.append(event{ph: 'X', ts: sp.start, dur: dur, pid: sp.pid, tid: sp.tid, cat: sp.cat, name: sp.name, fields: f})
	t.lanes[sp.pid].release(sp.tid)
	sp.live = false
	sp.fields = nil
	sp.nextFree = t.freeSpan
	t.freeSpan = idx
}

// Instant records a point event on track pid.
func (t *Tracer) Instant(now float64, pid int, cat, name string, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.append(event{ph: 'i', ts: now, pid: pid, cat: cat, name: name, fields: fields})
}

// append stores one event, evicting the oldest half at the limit (the
// same amortised policy as mr.EventLog).
func (t *Tracer) append(e event) {
	if len(t.events) >= t.limit {
		half := t.limit / 2
		if half < 1 {
			half = 1
		}
		n := copy(t.events, t.events[half:])
		for i := n; i < len(t.events); i++ {
			t.events[i] = event{}
		}
		t.events = t.events[:n]
		t.dropped += half
	}
	t.events = append(t.events, e)
}

// Len returns the number of retained (closed or instant) events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events the limit evicted.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// OpenSpans returns the number of begun-but-unfinished spans. A clean
// run ends with zero; the invariant tests assert it.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.spans {
		if t.spans[i].live {
			n++
		}
	}
	return n
}

// Began returns how many spans were ever opened (for tests).
func (t *Tracer) Began() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.began
}

// value renders a field's value for human-readable output.
func (f Field) value() string {
	if !f.isNum {
		return f.str
	}
	if math.IsNaN(f.num) {
		return "NaN"
	}
	return fmt.Sprintf("%g", f.num)
}
