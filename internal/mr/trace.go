package mr

import (
	"strconv"

	"smapreduce/internal/netsim"
	"smapreduce/internal/trace"
)

// Tracing wiring: the runtime's span and instant emit points. All of
// them guard with tracer.Enabled() before building names or fields, so
// a run without tracing pays one nil check per site (pinned by the
// zero-alloc guard in internal/trace).
//
// Track layout (see DESIGN.md trace schema):
//
//	PIDJobs         job lifecycle spans, barrier instants
//	PIDController   slot-manager tick spans and decision instants,
//	                tenant-cap instants
//	PIDNetwork      flow spans (verbosity-gated)
//	PIDProgress     aggregate progress milestone instants (progress.go)
//	PIDTrackerBase+i  tracker i: task attempt spans on slot lanes,
//	                  drain spans, slot-change/speculation/fault
//	                  instants

// EnableTracing attaches a tracer and names the runtime's tracks. Call
// before Run. At VerbosityFlows and above, fabric flows get lifecycle
// spans on the network track (shuffle fetches at level 1; DFS reads
// and output replication too at level 2).
func (c *Cluster) EnableTracing(tr *trace.Tracer) {
	if !tr.Enabled() {
		return
	}
	c.tracer = tr
	tr.SetTrackName(trace.PIDJobs, "jobs")
	tr.SetTrackName(trace.PIDController, "controller")
	tr.SetTrackName(trace.PIDProgress, "progress")
	for i := range c.trackers {
		tr.SetTrackName(trace.PIDTrackerBase+i, "tt"+strconv.Itoa(i))
	}
	if tr.Verbosity() >= trace.VerbosityFlows {
		tr.SetTrackName(trace.PIDNetwork, "network")
		c.flowSpans = make(map[*netsim.Flow]trace.SpanRef)
		c.fabric.SetFlowObserver(c.traceFlowAdd, c.traceFlowRemove)
	}
}

// trackerPID maps a tracker id to its trace track.
func trackerPID(id int) int { return trace.PIDTrackerBase + id }

// flowCategory reports a flow's trace category — the kind of the op it
// drives — and the verbosity level the span requires.
func flowCategory(kind opKind) (cat string, minVerbosity int) {
	switch kind {
	case opShuffle:
		return "shuffle", trace.VerbosityFlows
	case opRead:
		return "read", trace.VerbosityAllFlows
	case opRepl:
		return "repl", trace.VerbosityAllFlows
	}
	return "flow", trace.VerbosityAllFlows
}

// traceFlowAdd opens a span for a newly registered flow, if the
// verbosity admits its category. Every runtime flow is started bound
// to its op (startFlow), whose id names the span.
func (c *Cluster) traceFlowAdd(f *netsim.Flow) {
	id := f.Userdata.(*fluidOp).id
	cat, min := flowCategory(id.kind)
	if c.tracer.Verbosity() < min {
		return
	}
	c.flowSpans[f] = c.tracer.Begin(c.clock.Now(), trace.PIDNetwork, cat, id.String(),
		trace.Num("src", float64(f.Src)), trace.Num("dst", float64(f.Dst)),
		trace.Num("MB", f.RemainingMB))
}

// traceFlowRemove closes a flow's span.
func (c *Cluster) traceFlowRemove(f *netsim.Flow) {
	if ref, ok := c.flowSpans[f]; ok {
		c.tracer.End(c.clock.Now(), ref)
		delete(c.flowSpans, f)
	}
}

// traceJobBegin opens the job's lifecycle span at admission.
func (c *Cluster) traceJobBegin(j *Job) {
	if !c.tracer.Enabled() {
		return
	}
	j.span = c.tracer.Begin(c.clock.Now(), trace.PIDJobs, "job", j.Spec.Name,
		trace.Num("maps", float64(j.NumMaps())), trace.Num("reduces", float64(j.NumReduces())),
		trace.Num("input-MB", j.Spec.InputMB))
}

// traceJobEnd closes the job span at completion.
func (c *Cluster) traceJobEnd(j *Job) {
	if !c.tracer.Enabled() {
		return
	}
	c.tracer.End(c.clock.Now(), j.span, trace.Num("shuffled-MB", j.ShuffledMB),
		trace.Num("speculative", float64(j.SpeculativeLaunched)))
	j.span = 0
}

// instants is the trace-instant table of the transition kinds that
// leave one: the instant's track (pid 0 is the tracker's own),
// category and name. Kinds absent here leave none: jobs and tasks have
// spans, and submissions and finishes show on the progress track.
var instants = map[EventKind]struct {
	pid       int
	cat, name string
}{
	EvBarrier:            {trace.PIDJobs, "job", "barrier"},
	EvSlotChange:         {0, "slot", "slot-change"},
	EvSpeculative:        {0, "speculation", "speculative-backup"},
	EvTenantCap:          {trace.PIDController, "capacity", "tenant-cap"},
	EvTrackerDown:        {0, "failure", "tracker-down"},
	EvTrackerDrain:       {0, "failure", "tracker-drain"},
	EvTrackerRejoin:      {0, "failure", "tracker-rejoin"},
	EvTrackerHBLost:      {0, "failure", "hb-lost"},
	EvTrackerHBRestored:  {0, "failure", "hb-restored"},
	EvTrackerBlacklisted: {0, "failure", "blacklisted"},
	EvTrackerProbation:   {0, "failure", "probation"},
	EvTrackerCleared:     {0, "failure", "probation-cleared"},
	EvNodeDegraded:       {0, "failure", "node-degraded"},
	EvNodeRestored:       {0, "failure", "node-restored"},
	EvLinkDegraded:       {0, "failure", "link-degraded"},
	EvLinkRestored:       {0, "failure", "link-restored"},
	EvFaultError:         {0, "failure", "fault-error"},
}

// traceInstant is the trace sink of note: the kind's instant, named
// for its job on the jobs track, with the fields the slot-change,
// speculation and tenant-cap instants carry. A fault error naming no
// tracker lands on the controller track; lifting a tenant's cap
// leaves no instant.
func (c *Cluster) traceInstant(t *transition) {
	in, ok := instants[t.kind]
	if !ok || t.kind == EvTenantCap && t.x < 0 {
		return
	}
	if in.pid == 0 {
		in.pid = trace.PIDController
		if t.tracker >= 0 && t.tracker < len(c.trackers) {
			in.pid = trackerPID(t.tracker)
		}
	}
	var fields []trace.Field
	switch t.kind {
	case EvBarrier:
		in.name += " " + t.job.Spec.Name
	case EvSlotChange:
		fields = []trace.Field{trace.Num("maps", t.x), trace.Num("reduces", t.y)}
	case EvSpeculative:
		fields = []trace.Field{trace.Str("task", t.job.Spec.Name+"/map/"+strconv.Itoa(t.id)),
			trace.Num("original-tt", t.x)}
	case EvTenantCap:
		fields = []trace.Field{trace.Str("tenant", t.text), trace.Num("cap", t.x)}
	}
	c.tracer.Instant(c.clock.Now(), in.pid, in.cat, in.name, fields...)
}

// traceMapBegin opens a map attempt's span on its tracker's track. The
// lane the span lands on reads as the occupied working slot.
func (c *Cluster) traceMapBegin(tt *TaskTracker, m *mapTask) {
	if !c.tracer.Enabled() {
		return
	}
	name := m.job.Spec.Name + "/map/" + strconv.Itoa(m.id)
	if m.backupOf != nil {
		name += " (backup)"
	}
	m.span = c.tracer.Begin(c.clock.Now(), trackerPID(tt.id), "map", name,
		trace.Num("split-MB", m.split.SizeMB))
}

// traceMapEnd closes a map attempt's span with its outcome: "done",
// "duplicate" (lost a speculative race at commit), "killed" (lost it
// earlier, or eager slot shrink) or "aborted" (tracker failure).
func (c *Cluster) traceMapEnd(m *mapTask, outcome string) {
	if !c.tracer.Enabled() {
		return
	}
	c.tracer.End(c.clock.Now(), m.span, trace.Str("outcome", outcome))
	m.span = 0
}

// traceReduceBegin opens a reduce attempt's span on its tracker.
func (c *Cluster) traceReduceBegin(tt *TaskTracker, r *reduceTask) {
	if !c.tracer.Enabled() {
		return
	}
	r.span = c.tracer.Begin(c.clock.Now(), trackerPID(tt.id), "reduce",
		r.job.Spec.Name+"/reduce/"+strconv.Itoa(r.partition))
}

// traceReduceEnd closes a reduce attempt's span with its outcome.
func (c *Cluster) traceReduceEnd(r *reduceTask, outcome string) {
	if !c.tracer.Enabled() {
		return
	}
	c.tracer.End(c.clock.Now(), r.span,
		trace.Str("outcome", outcome), trace.Num("fetched-MB", r.fetchedMB))
	r.span = 0
}

// traceDrainCheck maintains the tracker's lazy-drain span: open while
// the running task count exceeds the (lowered) slot target — the
// window in which launches are suppressed and the surplus drains by
// attrition (§III-D). Called on every slot-target change and whenever
// a slot frees.
func (tt *TaskTracker) traceDrainCheck() {
	c := tt.c
	if !c.tracer.Enabled() {
		return
	}
	surplus := len(tt.runningMaps) - tt.mapTarget
	if s := len(tt.runningReduces) - tt.reduceTarget; s > surplus {
		surplus = s
	}
	if tt.failed {
		surplus = 0 // aborts empty the slots; close any open drain
	}
	switch {
	case surplus > 0 && tt.drainSpan == 0:
		tt.drainSpan = c.tracer.Begin(c.clock.Now(), trackerPID(tt.id), "drain", "slot-drain",
			trace.Num("surplus", float64(surplus)))
	case surplus <= 0 && tt.drainSpan != 0:
		c.tracer.End(c.clock.Now(), tt.drainSpan)
		tt.drainSpan = 0
	}
}
