package core

import (
	"fmt"
	"strings"

	"smapreduce/internal/metrics"
	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
	"smapreduce/internal/stats"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// Engine selects which of the three evaluated systems runs a workload.
type Engine int

const (
	// EngineHadoopV1 is the static-slot baseline.
	EngineHadoopV1 Engine = iota
	// EngineYARN is the container baseline with map priority.
	EngineYARN
	// EngineSMapReduce is HadoopV1 plus the dynamic slot manager.
	EngineSMapReduce
	// EngineFairShare is HadoopV1 slots plus the weighted fair-share
	// capacity policy dividing task capacity among tenants.
	EngineFairShare
	// EngineCapacityQueue is HadoopV1 slots plus capacity queues:
	// per-tenant guarantees with elastic lending.
	EngineCapacityQueue
	// EngineGameTheoretic is HadoopV1 slots plus the per-control-period
	// proportional-fairness (Nash bargaining) allocator.
	EngineGameTheoretic
	// EngineHillClimber is the Dynamic policy driven by the model-free
	// HillClimber instead of the slot manager: the baseline of the
	// controllers experiment. ParseEngine does not accept it.
	EngineHillClimber
)

func (e Engine) String() string {
	switch e {
	case EngineHadoopV1:
		return "HadoopV1"
	case EngineYARN:
		return "YARN"
	case EngineSMapReduce:
		return "SMapReduce"
	case EngineFairShare:
		return "FairShare"
	case EngineCapacityQueue:
		return "CapacityQueue"
	case EngineGameTheoretic:
		return "GameTheoretic"
	case EngineHillClimber:
		return "HillClimber"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Engines lists the three systems in the order the paper plots them.
func Engines() []Engine {
	return []Engine{EngineHadoopV1, EngineYARN, EngineSMapReduce}
}

// CapacityEngines lists the multi-tenant capacity engines in shoot-out
// order.
func CapacityEngines() []Engine {
	return []Engine{EngineFairShare, EngineCapacityQueue, EngineGameTheoretic}
}

// ParseEngine maps a user-facing engine name (case-insensitive, with
// the usual aliases) to its Engine.
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "hadoopv1", "v1", "hadoop":
		return EngineHadoopV1, nil
	case "yarn":
		return EngineYARN, nil
	case "smapreduce", "smr":
		return EngineSMapReduce, nil
	case "fairshare", "fair-share":
		return EngineFairShare, nil
	case "capacityqueue", "capacity-queue", "capqueue":
		return EngineCapacityQueue, nil
	case "gametheoretic", "game-theoretic", "game":
		return EngineGameTheoretic, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (hadoopv1 | yarn | smapreduce | fairshare | capacityqueue | gametheoretic)", name)
	}
}

// NewCapacityPolicy returns the allocator a capacity engine runs,
// configured for the given tenants, or nil for the paper's slot
// engines (which run without per-tenant caps).
func NewCapacityPolicy(engine Engine, tenants []policy.Tenant) (mr.CapacityPolicy, error) {
	opts := policy.Options{Tenants: tenants}
	switch engine {
	case EngineFairShare:
		return policy.NewFairShare(opts)
	case EngineCapacityQueue:
		return policy.NewCapacityQueue(opts)
	case EngineGameTheoretic:
		return policy.NewGameTheoretic(opts)
	default:
		return nil, nil
	}
}

// Options configures a Run.
type Options struct {
	// Cluster is the base cluster configuration; its Policy field is
	// overridden by the chosen engine. Zero value means mr.DefaultConfig.
	Cluster mr.Config
	// SlotManager tunes the SMapReduce controller; ignored for the
	// baselines. Zero value means paper defaults.
	SlotManager SlotManagerConfig
	// Telemetry, when non-nil, receives the cluster's probe series
	// (and, on SMapReduce, the slot manager's) sampled over the run.
	Telemetry *telemetry.Collector
	// Tracer, when non-nil, records span/instant traces of the run
	// (task lifecycles, slot-manager decisions, flows by verbosity).
	Tracer *trace.Tracer
	// Sim, when non-nil, supplies recycled simulation substrate (event
	// arena, fabric) the cluster is built on instead of fresh
	// allocations — the fleet runner's per-worker reuse hook. See
	// mr.SimState for the aliasing rules.
	Sim *mr.SimState
	// Events, when true, attaches the structured event log; it is
	// returned on Result.Events.
	Events bool
	// Capacity attaches a multi-tenant capacity policy to the run. The
	// capacity engines build their own policy when this is nil; for the
	// other engines nil means no capacity management (the legacy
	// single-tenant behaviour).
	Capacity mr.CapacityPolicy
	// Tenants configures per-tenant weights and guarantees for the
	// policies the capacity engines build. Ignored when Capacity is set.
	Tenants []policy.Tenant
	// Arrivals, when non-nil, replaces the fixed spec list with an open
	// arrival process: jobs are pulled from the source as virtual time
	// advances. Run must then be called with no specs.
	Arrivals mr.ArrivalSource
	// Prepare, when non-nil, runs on the fully assembled cluster —
	// controller, capacity policy, telemetry, tracing and event log
	// already attached — just before the workload starts. The serve
	// mode uses it to arm chaos schedules and the progress hook; a
	// returned error aborts the run.
	Prepare func(c *mr.Cluster) error
}

// Result is the outcome of running a workload on one engine.
type Result struct {
	Engine Engine
	Jobs   []*mr.Job
	// Decisions is the slot controller's log (SMapReduce and
	// HillClimber only).
	Decisions []Decision
	// Audits carries the full-input audit record behind each decision,
	// index-aligned with Decisions (SMapReduce only).
	Audits []AuditRecord
	// Events is the structured event log, non-nil when Options.Events
	// was set.
	Events *mr.EventLog
	// Cluster is the cluster the run executed on, for post-run
	// inspection (Snapshot, reports). When the run used Options.Sim,
	// the cluster's substrate is recycled by the *next* run on that
	// SimState — finish reading before starting another run.
	Cluster *mr.Cluster
	// Capacity is the applied capacity decision log, non-empty when a
	// capacity policy was attached.
	Capacity []mr.CapacityDecision
}

// Run executes the given jobs on the chosen engine and returns the
// completed jobs with their timing milestones.
func Run(engine Engine, opts Options, specs ...mr.JobSpec) (*Result, error) {
	cfg := opts.Cluster
	if cfg.Workers == 0 { // zero value: adopt defaults
		cfg = mr.DefaultConfig()
	}
	capacity := opts.Capacity
	switch engine {
	case EngineHadoopV1:
		cfg.Policy = mr.HadoopV1
	case EngineYARN:
		cfg.Policy = mr.YARN
	case EngineSMapReduce, EngineHillClimber:
		cfg.Policy = mr.Dynamic
	case EngineFairShare, EngineCapacityQueue, EngineGameTheoretic:
		// Capacity engines divide tenant caps on top of static slots, so
		// the shoot-out isolates the allocation policy from the slot
		// mechanics.
		cfg.Policy = mr.HadoopV1
		if capacity == nil {
			var err error
			if capacity, err = NewCapacityPolicy(engine, opts.Tenants); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown engine %v", engine)
	}

	c, err := mr.NewClusterReusing(cfg, opts.Sim)
	if err != nil {
		return nil, err
	}

	res := &Result{Engine: engine, Cluster: c}
	if opts.Events {
		res.Events = c.EnableEventLog(0)
	}
	if capacity != nil {
		c.SetCapacityPolicy(capacity)
	}
	var mgr *SlotManager
	var hc *HillClimber
	switch engine {
	case EngineSMapReduce:
		if mgr, err = NewSlotManager(opts.SlotManager); err == nil {
			err = c.SetController(mgr)
		}
	case EngineHillClimber:
		hc = &HillClimber{}
		err = c.SetController(hc)
	}
	if err != nil {
		return nil, err
	}
	if opts.Telemetry != nil {
		c.EnableTelemetry(opts.Telemetry)
		if mgr != nil {
			mgr.RegisterTelemetry(opts.Telemetry)
		}
	}
	if opts.Tracer.Enabled() {
		c.EnableTracing(opts.Tracer)
		if mgr != nil {
			mgr.AttachTracer(opts.Tracer)
		}
	}

	if opts.Prepare != nil {
		if err := opts.Prepare(c); err != nil {
			return nil, err
		}
	}

	var jobs []*mr.Job
	if opts.Arrivals != nil {
		if len(specs) > 0 {
			return nil, fmt.Errorf("core: both Arrivals and %d fixed specs given", len(specs))
		}
		jobs, err = c.RunArrivals(opts.Arrivals)
	} else {
		jobs, err = c.Run(specs...)
	}
	if err != nil {
		return nil, err
	}
	res.Jobs = jobs
	if mgr != nil {
		res.Decisions = mgr.Decisions()
		res.Audits = mgr.Explain()
	}
	if hc != nil {
		res.Decisions = hc.Decisions()
	}
	if capacity != nil {
		res.Capacity = c.CapacityDecisions()
	}
	return res, nil
}

// MeanExecutionTime averages execution time over the result's jobs.
func (r *Result) MeanExecutionTime() float64 {
	times := make([]float64, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		times = append(times, j.ExecutionTime())
	}
	return stats.Mean(times)
}

// LastFinish returns the completion time of the last job to finish.
func (r *Result) LastFinish() float64 {
	last := 0.0
	for _, j := range r.Jobs {
		if j.FinishedAt > last {
			last = j.FinishedAt
		}
	}
	return last
}

// LatencyPercentile returns the p-th percentile (0..100) of per-job
// latency — submission to finish — over the result's jobs.
func (r *Result) LatencyPercentile(p float64) float64 {
	times := make([]float64, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		times = append(times, j.ExecutionTime())
	}
	return stats.Percentile(times, p)
}

// SLOMisses counts jobs that finished past their latency objective.
// Jobs without an SLO never miss.
func (r *Result) SLOMisses() int {
	n := 0
	for _, j := range r.Jobs {
		if j.SLOMissed() {
			n++
		}
	}
	return n
}

// RecordProgress wraps opts.Prepare so the run records its total
// progress curve — map% + reduce%, 0–200, averaged over admitted jobs —
// from the cluster's progress hook: one point per sample while a job
// is active and one at each job's finish. The recorder takes the hook
// after the wrapped Prepare runs, replacing any hook it set.
func RecordProgress(opts *Options) *metrics.Series {
	curve := metrics.NewSeries("total%")
	prepare := opts.Prepare
	opts.Prepare = func(c *mr.Cluster) error {
		if prepare != nil {
			if err := prepare(c); err != nil {
				return err
			}
		}
		c.SetOnProgress(func(p mr.Progress) {
			if p.Milestone == mr.MilestoneSample && p.JobsActive > 0 || p.Milestone == string(mr.EvJobFinished) {
				curve.Add(p.At, p.MapPct+p.ReducePct)
			}
		})
		return nil
	}
	return curve
}
