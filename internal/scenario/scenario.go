// Package scenario is the one description of a simulation: engine,
// cluster shape, workload (a fixed job list or an open arrival
// stream), tenants, chaos schedule and seed. The service's POST /runs
// body, each experiment-grid cell and smrsim's flags are all a
// Scenario, and Plan is the one translation from a validated scenario
// to core.Run's arguments.
//
// Parsing is strict (unknown fields and trailing data are rejected)
// and bounded: the job count and every size are checked against fixed
// caps before anything is materialised, so a short document cannot
// make validation allocate without limit.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"smapreduce/internal/arrival"
	"smapreduce/internal/chaos"
	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
	"smapreduce/internal/puma"
	"smapreduce/internal/resource"
	"smapreduce/internal/trace"
)

// Caps on a scenario's size, checked before any job spec or cluster
// is built. Each sits far above every checked-in workload (the largest
// fixed job is 100 GB, the largest arrival bound 12 GB, the largest
// cluster 16 trackers, the longest arrival stream about 30 jobs).
const (
	// MaxJobs caps the fixed workload (the sum of every set's count)
	// and an arrival stream's job bound (see arrivalJobBound).
	MaxJobs = 10_000
	// MaxInputGB caps one job's input, for fixed jobs and for arrival
	// tenants' input_mb_max alike.
	MaxInputGB = 10_240
	// MaxReduces caps one job's reduce task count.
	MaxReduces = 10_000
	// MaxWorkers caps the task-tracker count.
	MaxWorkers = 4_096
	// MaxSlots caps the initial map and reduce slots per tracker.
	MaxSlots = 256
)

// JobSet describes a batch of identical jobs, mirroring smrsim's
// -bench/-input-gb/-reduces/-jobs/-stagger flags.
type JobSet struct {
	// Bench names the PUMA profile.
	Bench string `json:"bench"`
	// InputGB is the per-job input size in GB.
	InputGB float64 `json:"input_gb"`
	// Reduces is the reduce task count per job (default 4).
	Reduces int `json:"reduces,omitempty"`
	// Count is how many identical jobs to submit (default 1).
	Count int `json:"count,omitempty"`
	// Stagger is the gap between submissions in virtual seconds.
	Stagger float64 `json:"stagger,omitempty"`
	// SubmitAt offsets the set's first submission.
	SubmitAt float64 `json:"submit_at,omitempty"`
	// Tenant names the queue the set's jobs bill to (capacity
	// policies); empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// SLOSeconds is each job's latency objective (0 = none).
	SLOSeconds float64 `json:"slo_seconds,omitempty"`
}

// Scenario is one complete simulation description. Zero values keep
// the defaults: engine smapreduce, seed 1, mr.DefaultConfig's cluster
// shape.
type Scenario struct {
	// Engine names the evaluated system (core.ParseEngine vocabulary);
	// empty means "smapreduce".
	Engine string `json:"engine,omitempty"`
	// Seed is the cluster seed; 0 keeps the default (1).
	Seed uint64 `json:"seed,omitempty"`

	// Cluster shape; zero values keep mr.DefaultConfig.
	Workers     int    `json:"workers,omitempty"`
	MapSlots    int    `json:"map_slots,omitempty"`
	ReduceSlots int    `json:"reduce_slots,omitempty"`
	Scheduler   string `json:"scheduler,omitempty"`
	Speculate   bool   `json:"speculate,omitempty"`
	// SlowNodes makes the last N trackers half-speed with doubled
	// contention (a heterogeneous cluster).
	SlowNodes int `json:"slow_nodes,omitempty"`

	// Jobs is the fixed workload; exactly one of Jobs and Arrivals must
	// be set.
	Jobs []JobSet `json:"jobs,omitempty"`
	// Arrivals is an open multi-tenant arrival config
	// (arrival.ParseConfig schema).
	Arrivals *arrival.Config `json:"arrivals,omitempty"`
	// Tenants configures the capacity engines' per-tenant weights and
	// guarantees. When empty, a scenario with arrivals derives them
	// from the arrival tenants (priority as weight, even guarantees).
	Tenants []policy.Tenant `json:"tenants,omitempty"`

	// Chaos is a fault schedule in the chaos text format, armed before
	// the workload starts.
	Chaos string `json:"chaos,omitempty"`

	// TraceVerbosity selects the span sources recorded into a trace
	// (trace.Verbosity* levels, 0–2).
	TraceVerbosity int `json:"trace_verbosity,omitempty"`
}

// Parse decodes and validates a scenario document.
func Parse(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return Scenario{}, fmt.Errorf("scenario: trailing data after document")
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Validate reports the first problem with the scenario, or nil. A
// scenario that validates always translates (Plan succeeds).
func (s *Scenario) Validate() error {
	_, err := s.Plan()
	return err
}

// Canonical renders the scenario in canonical bytes: fixed field
// order, two-space indent, trailing newline. Two documents differing
// only in whitespace or key order render identically, and
// Parse(Canonical()) reproduces the same bytes.
func (s *Scenario) Canonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EngineName is the engine as the document names it, "smapreduce"
// when unset.
func (s *Scenario) EngineName() string {
	if s.Engine == "" {
		return "smapreduce"
	}
	return s.Engine
}

// Plan is a scenario translated into core.Run's arguments: callers
// add only their sinks (Events, Telemetry, Tracer, Trace) and
// substrate (Sim) to Options, may wrap Options.Prepare, and call
// core.Run(p.Engine, p.Options, p.Specs...). The arrival source is
// stateful, so a Plan runs once.
type Plan struct {
	Engine  core.Engine
	Options core.Options
	Specs   []mr.JobSpec
	// Chaos is the fault schedule Options.Prepare arms; empty when the
	// scenario has none.
	Chaos chaos.Schedule
}

// Plan validates the scenario and translates it: the engine, a
// core.Options carrying the cluster config, tenants, arrival source
// and a Prepare that arms the chaos schedule, and the fixed job specs.
func (s *Scenario) Plan() (Plan, error) {
	if err := s.check(); err != nil {
		return Plan{}, fmt.Errorf("scenario: %w", err)
	}
	var p Plan
	var err error
	if p.Engine, err = core.ParseEngine(s.EngineName()); err != nil {
		return Plan{}, fmt.Errorf("scenario: %w", err)
	}
	if p.Options.Cluster, err = s.clusterConfig(); err != nil {
		return Plan{}, fmt.Errorf("scenario: %w", err)
	}
	if p.Specs, err = s.jobSpecs(); err != nil {
		return Plan{}, fmt.Errorf("scenario: %w", err)
	}
	if p.Options.Tenants = s.tenants(); len(p.Options.Tenants) > 0 {
		if err := (policy.Options{Tenants: p.Options.Tenants}).Validate(); err != nil {
			return Plan{}, fmt.Errorf("scenario: tenants: %w", err)
		}
	}
	if s.Arrivals != nil {
		if p.Options.Arrivals, err = arrival.New(*s.Arrivals, arrival.RNG(p.Options.Cluster.Seed)); err != nil {
			return Plan{}, fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Chaos != "" {
		if p.Chaos, err = chaos.ParseSchedule(s.Chaos); err != nil {
			return Plan{}, fmt.Errorf("scenario chaos: %w", err)
		}
		if len(p.Chaos.Faults) == 0 {
			return Plan{}, fmt.Errorf("scenario chaos: schedule contains no faults")
		}
		if err := p.Chaos.Validate(p.Options.Cluster.Workers); err != nil {
			return Plan{}, fmt.Errorf("scenario chaos: %w", err)
		}
		p.Options.Prepare = p.Chaos.Apply
	}
	return p, nil
}

// check applies the bounds and sign rules that must hold before
// anything is built.
func (s *Scenario) check() error {
	switch {
	case s.Workers < 0 || s.Workers > MaxWorkers:
		return fmt.Errorf("workers = %d, must be in [0,%d]", s.Workers, MaxWorkers)
	case s.MapSlots < 0 || s.MapSlots > MaxSlots:
		return fmt.Errorf("map_slots = %d, must be in [0,%d]", s.MapSlots, MaxSlots)
	case s.ReduceSlots < 0 || s.ReduceSlots > MaxSlots:
		return fmt.Errorf("reduce_slots = %d, must be in [0,%d]", s.ReduceSlots, MaxSlots)
	case s.SlowNodes < 0:
		return fmt.Errorf("slow_nodes = %d, must be >= 0", s.SlowNodes)
	case s.TraceVerbosity < trace.VerbosityTasks || s.TraceVerbosity > trace.VerbosityAllFlows:
		return fmt.Errorf("trace_verbosity = %d, must be in [%d,%d]", s.TraceVerbosity, trace.VerbosityTasks, trace.VerbosityAllFlows)
	case (len(s.Jobs) == 0) == (s.Arrivals == nil):
		return fmt.Errorf("exactly one of jobs and arrivals must be set")
	}
	total := 0
	for i, set := range s.Jobs {
		if err := set.check(); err != nil {
			return fmt.Errorf("jobs[%d]: %w", i, err)
		}
		total += max(set.Count, 1)
		if total > MaxJobs {
			return fmt.Errorf("jobs: more than %d jobs", MaxJobs)
		}
	}
	if s.Arrivals != nil {
		if err := s.Arrivals.Validate(); err != nil {
			return err
		}
		if n := arrivalJobBound(*s.Arrivals); !(n <= MaxJobs) {
			return fmt.Errorf("arrivals: up to %.4g jobs expected, more than %d", n, MaxJobs)
		}
		for _, t := range s.Arrivals.Tenants {
			switch {
			case t.InputMBMax > MaxInputGB*1024:
				return fmt.Errorf("arrival tenant %s: input_mb_max = %v, must be <= %d", t.Name, t.InputMBMax, MaxInputGB*1024)
			case t.Reduces > MaxReduces:
				return fmt.Errorf("arrival tenant %s: reduces = %d, must be <= %d", t.Name, t.Reduces, MaxReduces)
			}
		}
	}
	return nil
}

// check bounds one job set; the per-job rules mr.JobSpec.Validate
// applies again to every built spec.
func (j JobSet) check() error {
	if _, err := puma.Get(j.Bench); err != nil {
		return err
	}
	switch {
	case !(j.InputGB > 0 && j.InputGB <= MaxInputGB):
		return fmt.Errorf("input_gb = %v, must be in (0,%d]", j.InputGB, MaxInputGB)
	case j.Reduces < 0 || j.Reduces > MaxReduces:
		return fmt.Errorf("reduces = %d, must be in [0,%d]", j.Reduces, MaxReduces)
	case j.Count < 0 || j.Count > MaxJobs:
		return fmt.Errorf("count = %d, must be in [0,%d]", j.Count, MaxJobs)
	case !finiteNonNeg(j.Stagger):
		return fmt.Errorf("stagger = %v, must be >= 0 and finite", j.Stagger)
	case !finiteNonNeg(j.SubmitAt):
		return fmt.Errorf("submit_at = %v, must be >= 0 and finite", j.SubmitAt)
	case !finiteNonNeg(j.SLOSeconds):
		return fmt.Errorf("slo_seconds = %v, must be >= 0 and finite", j.SLOSeconds)
	}
	return nil
}

// arrivalJobBound bounds how many jobs a validated arrival config
// submits: the sum over tenants of the expected count at the peak rate
// (horizon × rate × load factor × (1+diurnal); a service tenant's
// cadence is exact), each capped by the tenant's max_jobs, and the
// total capped by the config's max_jobs. +Inf when nothing bounds a
// tenant. The Poisson count exceeds its mean by a few square roots at
// most, so a bound under MaxJobs keeps a stream's memory and run time
// within the fixed workload's.
func arrivalJobBound(c arrival.Config) float64 {
	load := c.LoadFactor
	if load == 0 {
		load = 1
	}
	total := 0.0
	for _, t := range c.Tenants {
		n := math.Inf(1)
		if c.Horizon > 0 {
			rate := 1 / t.MeanInterarrival
			if !t.Service {
				rate *= load * (1 + c.Diurnal)
			}
			n = c.Horizon * rate
		}
		if t.MaxJobs > 0 {
			n = min(n, float64(t.MaxJobs))
		}
		total += n
	}
	if c.MaxJobs > 0 {
		total = min(total, float64(c.MaxJobs))
	}
	return total
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }

// clusterConfig builds the validated cluster config.
func (s *Scenario) clusterConfig() (mr.Config, error) {
	cfg := mr.DefaultConfig()
	if s.Workers > 0 {
		cfg.Workers = s.Workers
		cfg.Net.Nodes = s.Workers
	}
	if s.MapSlots > 0 {
		cfg.MapSlots = s.MapSlots
		cfg.MaxMapSlots = max(cfg.MaxMapSlots, s.MapSlots)
	}
	if s.ReduceSlots > 0 {
		cfg.ReduceSlots = s.ReduceSlots
		cfg.MaxReduceSlots = max(cfg.MaxReduceSlots, s.ReduceSlots)
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	cfg.Speculation = s.Speculate
	if s.Scheduler != "" {
		kind, err := parseScheduler(s.Scheduler)
		if err != nil {
			return mr.Config{}, err
		}
		cfg.Scheduler = kind
	}
	if s.SlowNodes > 0 {
		if s.SlowNodes >= cfg.Workers {
			return mr.Config{}, fmt.Errorf("slow_nodes %d must leave at least one full-speed worker", s.SlowNodes)
		}
		specs := make([]resource.Spec, cfg.Workers)
		for i := range specs {
			specs[i] = cfg.NodeSpec
			if i >= cfg.Workers-s.SlowNodes {
				specs[i].CoreSpeed *= 0.5
				specs[i].ContentionScale *= 2
			}
		}
		cfg.NodeSpecs = specs
	}
	if err := cfg.Validate(); err != nil {
		return mr.Config{}, err
	}
	return cfg, nil
}

func parseScheduler(name string) (mr.SchedulerKind, error) {
	switch strings.ToLower(name) {
	case "fifo":
		return mr.FIFO, nil
	case "fair":
		return mr.Fair, nil
	case "priority":
		return mr.Priority, nil
	default:
		return 0, fmt.Errorf("unknown scheduler %q (fifo | fair | priority)", name)
	}
}

// jobSpecs materialises the fixed workload. A set's jobs are named
// <bench>-<n>; when the scenario holds more than one job the names
// gain an s<set>- prefix so they stay distinguishable.
func (s *Scenario) jobSpecs() ([]mr.JobSpec, error) {
	var specs []mr.JobSpec
	for i, set := range s.Jobs {
		profile, err := puma.Get(set.Bench)
		if err != nil {
			return nil, fmt.Errorf("jobs[%d]: %w", i, err)
		}
		count := max(set.Count, 1)
		reduces := set.Reduces
		if reduces == 0 {
			reduces = 4
		}
		for j := 0; j < count; j++ {
			spec := mr.JobSpec{
				Name:       fmt.Sprintf("%s-%d", set.Bench, j+1),
				Profile:    profile,
				InputMB:    set.InputGB * 1024,
				Reduces:    reduces,
				SubmitAt:   float64(j)*set.Stagger + set.SubmitAt,
				Tenant:     set.Tenant,
				SLOSeconds: set.SLOSeconds,
			}
			if count > 1 || len(s.Jobs) > 1 {
				spec.Name = fmt.Sprintf("s%d-%s", i, spec.Name)
			}
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("jobs[%d]: %w", i, err)
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// tenants returns the explicit tenants, or derives them from the
// arrival config: names carry over, Priority becomes the weight
// (minimum 1), and guarantees split the cluster evenly.
func (s *Scenario) tenants() []policy.Tenant {
	if len(s.Tenants) > 0 || s.Arrivals == nil {
		return s.Tenants
	}
	ts := s.Arrivals.Tenants
	out := make([]policy.Tenant, len(ts))
	for i, t := range ts {
		out[i] = policy.Tenant{
			Name:      t.Name,
			Weight:    max(float64(t.Priority), 1),
			Guarantee: 1 / float64(len(ts)),
		}
	}
	return out
}
