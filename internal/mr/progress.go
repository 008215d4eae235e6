package mr

import "smapreduce/internal/trace"

// The Milestone values OnProgress observes besides the lifecycle
// transitions, which fire as string(EvJobSubmitted), string(EvBarrier)
// and string(EvJobFinished) with the job's name attached (note):
// MilestoneSample fires on the progress sampler's cadence with an
// empty Job. MilestoneJobBarrier names the barrier for callers
// outside the package.
const (
	MilestoneSample     = "sample"
	MilestoneJobBarrier = string(EvBarrier)
)

// Progress is one aggregate progress snapshot delivered to the
// OnProgress hook: where the run is at virtual time At, and which
// milestone triggered the callback. Counters are cumulative and
// non-decreasing over a run; the percentage fields average task-level
// completion over every admitted job (finished jobs count as 100), so
// they can dip when a new job arrives mid-run — At and the counters
// are the monotone signals.
type Progress struct {
	At        float64
	Milestone string
	Job       string // job name for lifecycle milestones, "" for samples

	JobsSubmitted int
	JobsFinished  int
	JobsActive    int

	MapPct    float64
	ReducePct float64
}

// SetOnProgress attaches the progress hook: fn receives a Progress
// snapshot at every job admission, map/reduce barrier crossing, job
// completion and sampler tick — the serve mode's live event stream.
// Call before Run. The callback runs on the simulation goroutine at
// milestone instants, so it must not block and must not mutate the
// cluster.
func (c *Cluster) SetOnProgress(fn func(Progress)) { c.onProgress = fn }

// progressMilestone builds the aggregate snapshot and delivers it to
// the hook and, when tracing, to the progress track as an instant —
// the span-stream view of the same milestones the SSE stream carries.
func (c *Cluster) progressMilestone(milestone, job string) {
	if c.onProgress == nil && !c.tracer.Enabled() {
		return
	}
	p := Progress{At: c.clock.Now(), Milestone: milestone, Job: job}
	for _, j := range c.jt.jobs {
		if j.Submitted < 0 {
			continue
		}
		p.JobsSubmitted++
		if j.Finished() {
			p.JobsFinished++
			p.MapPct += 100
			p.ReducePct += 100
			continue
		}
		p.JobsActive++
		p.MapPct += j.mapProgressPct()
		p.ReducePct += j.reduceProgressPct()
	}
	if p.JobsSubmitted > 0 {
		p.MapPct /= float64(p.JobsSubmitted)
		p.ReducePct /= float64(p.JobsSubmitted)
	}
	if milestone != MilestoneSample && c.tracer.Enabled() {
		c.tracer.Instant(p.At, trace.PIDProgress, "progress", milestone+" "+job,
			trace.Num("jobs-finished", float64(p.JobsFinished)),
			trace.Num("map-pct", p.MapPct), trace.Num("reduce-pct", p.ReducePct))
	}
	if c.onProgress != nil {
		c.onProgress(p)
	}
}
