package mr

import (
	"fmt"
	"math"
	"os"

	"smapreduce/internal/dfs"
	"smapreduce/internal/metrics"
	"smapreduce/internal/netsim"
	"smapreduce/internal/resource"
	"smapreduce/internal/sim"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// Controller retunes slot targets at runtime; SMapReduce's slot manager
// (internal/core) implements it. Tick runs on the job tracker under a
// mutation scope, so it may inspect Stats and call SetDesiredSlots but
// must not block.
type Controller interface {
	// Interval is the period between Tick calls, in virtual seconds.
	Interval() float64
	// Tick observes the cluster and may adjust per-tracker slot targets.
	Tick(c *Cluster)
}

// Cluster is one simulated MapReduce deployment: substrate, trackers,
// job tracker and the fluid-work engine.
type Cluster struct {
	cfg    Config
	clock  *sim.Clock
	rng    *sim.Rand
	nodes  []*resource.Node
	fabric *netsim.Fabric
	fs     *dfs.FS

	trackers []*TaskTracker
	jt       *JobTracker

	ops      []*fluidOp
	mutDepth int

	// Dirty-op tracking for incremental refresh: ops queued for the
	// next refreshDirty, per-node op lists, and the loose ops refreshed
	// every scope (test harness closures). Flow-bound ops are reached
	// through Flow.Userdata rather than a lookup table.
	dirtyOps []*fluidOp
	looseOps []*fluidOp
	nodeOps  [][]*fluidOp

	controller   Controller
	ctrlEvent    sim.EventRef
	sampleEvent  sim.EventRef
	activeJobs   int
	jobsToSubmit int
	started      bool
	stopped      bool
	nextJobID    int
	arrivalErr   error

	// Multi-tenant capacity management (capacity.go): the attached
	// policy, its periodic tick, the applied per-tenant task caps and
	// running counters, the sorted tenant name list with each name's
	// position in it, and the decision log with the arenas backing its
	// rows and the tick's scratch rows.
	capacity          CapacityPolicy
	capEvent          sim.EventRef
	capFn             func()
	tenantCaps        map[string]int
	tenantRunning     map[string]int
	tenantRunningMaps map[string]int
	tenantNames       []string
	tenantIndex       map[string]int
	capLog            []CapacityDecision
	capSnaps          rowArena[TenantSnapshot]
	capAllocs         rowArena[TenantAllocation]
	snapScratch       []TenantSnapshot
	allocScratch      []TenantAllocation

	// sampleFn/ctrlFn are the periodic tick callbacks, bound once so
	// re-arming the sampler and controller each tick does not allocate
	// a fresh closure.
	sampleFn func()
	ctrlFn   func()

	// Completion handlers shared by every task op, bound once so task
	// phases and shuffle fetches start without allocating a closure;
	// each finds its task (and fetch source) through the op's id.
	mapOpDoneFn    func(*fluidOp)
	reduceOpDoneFn func(*fluidOp)
	fetchDoneFn    func(*fluidOp)

	// Object pooling. sim.ops recycles retired fluidOps; flow
	// recycling lives on the fabric. noPool (Config.Reference)
	// disables both.
	sim    *SimState
	noPool bool

	// onProgress, when set, receives aggregate Progress snapshots at
	// milestone instants (progress.go) — the serve mode's live stream.
	onProgress func(Progress)

	// events, when enabled, collects the structured runtime log.
	events *EventLog

	// util, when enabled, records cluster-wide utilisation series.
	util *Utilisation

	// telem, when enabled, samples the registered probe series on the
	// progress sampler's cadence.
	telem *telemetry.Collector

	// inv is the runtime invariant checker; nil unless invariant
	// checking is enabled (test binaries, SMR_INVARIANTS=1).
	inv *telemetry.Invariants

	// tracer records span/instant traces; nil when tracing is off
	// (every emit point no-ops on the nil receiver). flowSpans maps
	// live fabric flows to their open spans at VerbosityFlows+.
	tracer    *trace.Tracer
	flowSpans map[*netsim.Flow]trace.SpanRef
}

// Utilisation holds cluster-wide time series sampled on the progress
// sampler's cadence: occupied slots and heartbeat-smoothed rates.
type Utilisation struct {
	RunningMaps    *metrics.Series
	RunningReduces *metrics.Series
	MapInputMBps   *metrics.Series
	ShuffleMBps    *metrics.Series
}

// EnableUtilisation attaches utilisation recording. Call before Run.
func (c *Cluster) EnableUtilisation() *Utilisation {
	c.util = &Utilisation{
		RunningMaps:    metrics.NewSeries("running-maps"),
		RunningReduces: metrics.NewSeries("running-reduces"),
		MapInputMBps:   metrics.NewSeries("map-input-MBps"),
		ShuffleMBps:    metrics.NewSeries("shuffle-MBps"),
	}
	return c.util
}

// EnableTelemetry attaches a collector and registers the cluster's
// probe series: cluster-wide task counts and cumulative MB counters,
// per-tracker slot targets and occupancy, per-node CPU utilisation and
// the aggregate fabric throughput. Call before Run; every series is
// sampled on the progress sampler's cadence (Config.SampleInterval).
func (c *Cluster) EnableTelemetry(col *telemetry.Collector) {
	c.telem = col
	// total registers the sum of f over the trackers, in tracker order;
	// count registers the number of trackers f holds for.
	total := func(name string, f func(tt *TaskTracker) float64) {
		col.Register(name, func() float64 {
			s := 0.0
			for _, tt := range c.trackers {
				s += f(tt)
			}
			return s
		})
	}
	count := func(name string, f func(tt *TaskTracker) bool) {
		total(name, func(tt *TaskTracker) float64 {
			if f(tt) {
				return 1
			}
			return 0
		})
	}
	total("cluster/running-maps", func(tt *TaskTracker) float64 { return float64(len(tt.runningMaps)) })
	total("cluster/running-reduces", func(tt *TaskTracker) float64 { return float64(len(tt.runningReduces)) })
	col.Register("cluster/pending-maps", func() float64 { return float64(c.jt.PendingMapCount()) })
	col.Register("cluster/pending-reduces", func() float64 { return float64(c.jt.PendingReduceCount()) })
	total("cluster/map-input-MB", func(tt *TaskTracker) float64 { return tt.mapInputDoneMB + tt.inFlightMapInputMB() })
	total("cluster/map-output-MB", func(tt *TaskTracker) float64 { return tt.mapOutputDoneMB + tt.inFlightMapOutputMB() })
	total("cluster/shuffle-MB", func(tt *TaskTracker) float64 { return tt.shuffleDoneMB + tt.inFlightShuffleMB() })
	total("cluster/map-input-MBps", func(tt *TaskTracker) float64 { return tt.mapInputRate.Value() })
	total("cluster/shuffle-MBps", func(tt *TaskTracker) float64 { return tt.shuffleRate.Value() })
	col.Register("net/total-MBps", c.fabric.TotalRate)
	// Fault-model gauges (internal/chaos): how much of the cluster is
	// currently dead, silenced or running degraded.
	count("cluster/failed-trackers", func(tt *TaskTracker) bool { return tt.failed })
	count("cluster/unschedulable-trackers", func(tt *TaskTracker) bool { return !tt.schedulable() })
	count("cluster/degraded-nodes", func(tt *TaskTracker) bool {
		cpu, disk := tt.node.ServiceScale()
		return cpu != 1 || disk != 1
	})
	for i, tt := range c.trackers {
		tt := tt
		col.Register(fmt.Sprintf("tt%d/map-slots", i), func() float64 { return float64(tt.mapTarget) })
		col.Register(fmt.Sprintf("tt%d/reduce-slots", i), func() float64 { return float64(tt.reduceTarget) })
		col.Register(fmt.Sprintf("tt%d/running-maps", i), func() float64 { return float64(len(tt.runningMaps)) })
		col.Register(fmt.Sprintf("tt%d/running-reduces", i), func() float64 { return float64(len(tt.runningReduces)) })
	}
	for i, node := range c.nodes {
		node := node
		col.Register(fmt.Sprintf("node%d/cpu-util", i), node.Utilisation)
	}
}

// NewCluster builds a cluster from cfg. Invalid configs return an error.
func NewCluster(cfg Config) (*Cluster, error) {
	return newCluster(cfg, nil)
}

// newCluster builds a cluster, adopting st's recycled substrate when
// non-nil (see NewClusterReusing).
func newCluster(cfg Config, st *SimState) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := cfg.Net
	net.Nodes = cfg.Workers
	// Heartbeat-loss handling defaults scale with the heartbeat period
	// so custom configs predating the fault model keep working.
	if cfg.BlacklistTimeout == 0 {
		cfg.BlacklistTimeout = 3 * cfg.HeartbeatPeriod
	}
	if cfg.ProbationPeriod == 0 {
		cfg.ProbationPeriod = 5 * cfg.HeartbeatPeriod
	}
	// Reference mode refuses recycled substrate (see Config.Reference).
	cfg.Reference = cfg.Reference || os.Getenv("SMR_REFERENCE") == "1"
	if st == nil || cfg.Reference {
		st = NewSimState()
	}
	if st.clock == nil {
		st.clock = sim.NewClock()
	} else {
		st.clock.Reset()
	}
	if st.fabric == nil {
		st.fabric = netsim.NewFabric(net)
	} else {
		st.fabric.Reset(net)
	}
	rng := sim.NewRand(cfg.Seed)
	c := &Cluster{
		cfg:     cfg,
		clock:   st.clock,
		rng:     rng.Fork(0),
		fabric:  st.fabric,
		sim:     st,
		fs:      dfs.New(cfg.Workers, cfg.DFS, rng.Fork(1)),
		nodeOps: make([][]*fluidOp, cfg.Workers),
		inv:     telemetry.NewInvariants(),
	}
	// The runtime batches flow changes per mutation scope and resolves
	// perturbed components once in refreshDirty. The rate listener
	// marks the ops of flows whose allocation actually moved.
	c.fabric.SetAutoRecompute(false)
	c.fabric.SetRateListener(func(f *netsim.Flow) {
		if op, ok := f.Userdata.(*fluidOp); ok {
			c.markOpDirty(op)
		}
	})
	c.fabric.SetFullResolve(cfg.Reference)
	c.clock.SetHeapOnly(cfg.Reference)
	c.noPool = cfg.Reference
	for i := 0; i < cfg.Workers; i++ {
		spec := cfg.NodeSpec
		if cfg.NodeSpecs != nil {
			spec = cfg.NodeSpecs[i]
		}
		node := resource.NewNode(i, spec)
		id := i
		node.SetChangeHook(func() { c.markNodeOpsDirty(id) })
		c.nodes = append(c.nodes, node)
		c.trackers = append(c.trackers, newTaskTracker(c, i, node))
	}
	c.jt = newJobTracker(c)
	c.mapOpDoneFn = c.mapOpDone
	c.reduceOpDoneFn = c.reduceOpDone
	c.fetchDoneFn = c.fetchDone
	return c, nil
}

// MustNewCluster is NewCluster for static experiment setup.
func MustNewCluster(cfg Config) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// newFlow builds a shuffle/read/replication flow, recycled from the
// fabric's pool unless pooling is disabled. Its Label stays empty: the
// op it drives carries its identity (see startFlow). The caller
// registers it with c.fabric.Add and must pair every removal with
// releaseFlow.
func (c *Cluster) newFlow(src, dst int, mb, capMBps float64) *netsim.Flow {
	var f *netsim.Flow
	if c.noPool {
		f = &netsim.Flow{}
	} else {
		f = c.fabric.AcquireFlow()
	}
	f.Src, f.Dst = src, dst
	f.RemainingMB, f.CapMBps = mb, capMBps
	return f
}

// releaseFlow returns an unregistered flow to the fabric pool. The
// flow must already be Removed and unbound from its op (dropOp or
// completion), and the caller must clear its own pointer: the object
// may be reincarnated as an unrelated flow on the next acquire.
func (c *Cluster) releaseFlow(f *netsim.Flow) {
	if c.noPool {
		return
	}
	c.fabric.ReleaseFlow(f)
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Now returns the current virtual time.
func (c *Cluster) Now() float64 { return c.clock.Now() }

// FS exposes the simulated file system (input staging).
func (c *Cluster) FS() *dfs.FS { return c.fs }

// JobTracker exposes the master, primarily for SetDesiredSlots.
func (c *Cluster) JobTracker() *JobTracker { return c.jt }

// Trackers returns the task trackers.
func (c *Cluster) Trackers() []*TaskTracker { return c.trackers }

// NodeSpecOf returns the hardware spec of one worker.
func (c *Cluster) NodeSpecOf(i int) resource.Spec { return c.nodes[i].Spec() }

// Jobs returns every job admitted so far, in submission order.
func (c *Cluster) Jobs() []*Job { return c.jt.jobs }

// ParkedBeats reports how many heartbeats so far ran parked: beats of
// a quiet tracker that the clock dispatched from its lane (see
// TaskTracker.heartbeat). Always 0 in reference mode. It is a
// diagnostic for differential tests, not part of Stats, and reads 0
// again once the cluster's SimState is reused.
func (c *Cluster) ParkedBeats() uint64 { return c.clock.ParkedFired() }

// SetController attaches a slot controller. Only meaningful with the
// Dynamic policy; attaching one under another policy is rejected so a
// misconfigured experiment fails loudly.
func (c *Cluster) SetController(ctrl Controller) error {
	if c.cfg.Policy != Dynamic {
		return fmt.Errorf("mr: controller requires the Dynamic policy, have %v", c.cfg.Policy)
	}
	if ctrl.Interval() <= 0 {
		return fmt.Errorf("mr: controller interval %v must be positive", ctrl.Interval())
	}
	c.controller = ctrl
	return nil
}

// Run submits the given jobs at their SubmitAt times and drives the
// simulation until all of them finish. It returns the completed jobs in
// submission order. Run may only be called once per cluster.
func (c *Cluster) Run(specs ...JobSpec) ([]*Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("mr: Run with no jobs")
	}
	if c.started || c.stopped || len(c.jt.jobs) > 0 {
		return nil, fmt.Errorf("mr: Run called twice")
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}

	// Stage inputs up front, in spec order.
	jobs := make([]*Job, 0, len(specs))
	for _, spec := range specs {
		j, err := c.stageJob(spec)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}

	c.jobsToSubmit = len(jobs)
	c.activeJobs = 0
	for _, j := range jobs {
		j := j
		c.clock.Schedule(j.Spec.SubmitAt, "submit "+j.Spec.Name, func() {
			c.jobsToSubmit--
			c.submitJob(j)
		})
	}

	c.start()
	c.drive()

	for _, j := range jobs {
		if !j.Finished() {
			return jobs, fmt.Errorf("mr: job %s did not finish (maps %d/%d, reduces %d/%d)",
				j.Spec.Name, j.mapsDone, len(j.maps), j.reducesDone, len(j.reduces))
		}
	}
	return jobs, nil
}

// ArrivalSource produces an open-ended stream of job submissions for
// RunArrivals. Next returns the next job and its absolute submission
// time in virtual seconds; ok=false ends the stream. Times must be
// non-decreasing. Sources must be deterministic: all randomness drawn
// from seeded streams (internal/arrival reserves fork 3 of the cluster
// seed), never from the wall clock or the global RNG.
type ArrivalSource interface {
	Next() (spec JobSpec, at float64, ok bool)
}

// RunArrivals pulls jobs from src as the simulation advances — an open
// arrival process, in contrast to Run's fixed job list — and drives the
// simulation until the stream ends and every submitted job finishes.
// It returns the completed jobs in submission order. Like Run it may
// only be called once per cluster.
func (c *Cluster) RunArrivals(src ArrivalSource) ([]*Job, error) {
	if c.started || c.stopped || len(c.jt.jobs) > 0 {
		return nil, fmt.Errorf("mr: RunArrivals called twice")
	}
	spec, at, ok := src.Next()
	if !ok {
		return nil, fmt.Errorf("mr: RunArrivals with an empty arrival source")
	}
	c.jobsToSubmit = 1 // the staged next arrival keeps shutdown at bay
	c.activeJobs = 0
	c.scheduleArrival(src, spec, at)

	c.start()
	c.drive()

	jobs := append([]*Job(nil), c.jt.jobs...)
	if c.arrivalErr != nil {
		return jobs, c.arrivalErr
	}
	for _, j := range jobs {
		if !j.Finished() {
			return jobs, fmt.Errorf("mr: job %s did not finish (maps %d/%d, reduces %d/%d)",
				j.Spec.Name, j.mapsDone, len(j.maps), j.reducesDone, len(j.reduces))
		}
	}
	return jobs, nil
}

// scheduleArrival arms the submission of one arrived job and, when it
// fires, pulls the following arrival — a chained event per job, so the
// source is consumed lazily as virtual time reaches each arrival.
func (c *Cluster) scheduleArrival(src ArrivalSource, spec JobSpec, at float64) {
	if at < c.clock.Now() {
		at = c.clock.Now()
	}
	c.clock.Schedule(at, "arrival "+spec.Name, func() {
		c.jobsToSubmit--
		j, err := c.stageJob(spec)
		if err != nil {
			// A malformed arrival poisons the run: record the first
			// error, stop pulling, and let the admitted jobs drain.
			if c.arrivalErr == nil {
				c.arrivalErr = fmt.Errorf("mr: arrival %s: %w", spec.Name, err)
			}
			if c.activeJobs == 0 && c.jobsToSubmit == 0 {
				c.shutdown()
			}
			return
		}
		c.submitJob(j)
		if next, nextAt, ok := src.Next(); ok {
			c.jobsToSubmit++
			c.scheduleArrival(src, next, nextAt)
		}
	})
}

// Submit stages and admits one job at the current virtual time — the
// mid-simulation submission path used by arrival events and tests. It
// may be called from any scheduled callback while the simulation is
// live; once the cluster has shut down submissions are rejected.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	if c.stopped {
		return nil, fmt.Errorf("mr: Submit(%s) after cluster shutdown", spec.Name)
	}
	j, err := c.stageJob(spec)
	if err != nil {
		return nil, err
	}
	c.submitJob(j)
	return j, nil
}

// stageJob validates a spec, stages its input file and materialises the
// job's tasks. Job IDs count up in staging order.
func (c *Cluster) stageJob(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	id := c.nextJobID
	name := fmt.Sprintf("input/%s-%d", spec.Name, id)
	file, err := c.fs.Create(name, spec.InputMB)
	if err != nil {
		return nil, err
	}
	c.nextJobID++
	return newJob(id, spec, file, c.cfg.NodeSpec.Beta, c.cfg.Workers), nil
}

// submitJob admits a staged job at the current virtual time and kicks
// every tracker so assignment starts immediately rather than waiting up
// to a heartbeat period.
func (c *Cluster) submitJob(j *Job) {
	c.activeJobs++
	c.Mutate(func() {
		c.jt.admit(j)
		c.registerTenant(j)
		c.traceJobBegin(j)
		c.note(transition{kind: EvJobSubmitted, job: j, tracker: -1})
		for _, tt := range c.trackers {
			c.jt.assign(tt)
		}
	})
}

// start arms the periodic machinery: staggered heartbeats, progress
// sampler, controller and capacity ticks. Each chain is one
// SchedulePeriodic event that re-arms in place — no alloc/free per
// beat and a stable ref for the chain's whole life.
func (c *Cluster) start() {
	c.started = true
	for i, tt := range c.trackers {
		offset := c.cfg.HeartbeatPeriod * float64(i) / float64(len(c.trackers))
		tt.lastHB = 0
		// Keep the ref: a fault injected before the first beat (crash,
		// heartbeat loss) must be able to cancel the pending chain.
		tt.hbEvent = c.clock.SchedulePeriodic(offset, c.cfg.HeartbeatPeriod, tt.hbLabel, tt.hbFn)
	}
	c.scheduleSampler()
	if c.controller != nil {
		c.scheduleController()
	}
	if c.capacity != nil {
		c.scheduleCapacity()
	}
}

// drive runs the event loop until the queue drains. The event bound is
// generous: a runaway simulation indicates a runtime bug and panics
// inside the clock.
func (c *Cluster) drive() {
	c.clock.RunUntilIdle(200_000_000)
}

// scheduleSampler records progress curves for all running jobs. One
// periodic event drives the whole chain: the clock re-arms it in place
// every SampleInterval, so steady-state sampling does not allocate and
// shutdown's Cancel stops the chain wherever it is.
func (c *Cluster) scheduleSampler() {
	if c.sampleFn == nil {
		c.sampleFn = c.sampleTick
	}
	c.sampleEvent = c.clock.SchedulePeriodic(
		c.clock.Now()+c.cfg.SampleInterval, c.cfg.SampleInterval, "sample", c.sampleFn)
}

func (c *Cluster) sampleTick() {
	// No settle pass needed: op fractions settle lazily on read.
	now := c.clock.Now()
	for _, j := range c.jt.jobs {
		if j.Submitted >= 0 && !j.Finished() {
			j.Progress.Sample(now, j.mapProgressPct(), j.reduceProgressPct())
		}
	}
	if c.util != nil {
		runningMaps, runningReduces := 0, 0
		inRate, shufRate := 0.0, 0.0
		for _, tt := range c.trackers {
			runningMaps += len(tt.runningMaps)
			runningReduces += len(tt.runningReduces)
			inRate += tt.mapInputRate.Value()
			shufRate += tt.shuffleRate.Value()
		}
		c.util.RunningMaps.Add(now, float64(runningMaps))
		c.util.RunningReduces.Add(now, float64(runningReduces))
		c.util.MapInputMBps.Add(now, inRate)
		c.util.ShuffleMBps.Add(now, shufRate)
	}
	if c.inv != nil {
		c.inv.CheckSample(now)
		for _, tt := range c.trackers {
			c.inv.CheckCounters(tt.id, tt.mapInputDoneMB, tt.mapOutputDoneMB, tt.shuffleDoneMB)
		}
	}
	if c.telem != nil {
		c.telem.Tick(now)
	}
	c.progressMilestone(MilestoneSample, "")
	// No explicit re-arm: the periodic event re-arms itself unless
	// shutdown cancelled it (possibly from inside this very tick).
}

// scheduleController runs controller ticks on their interval (read
// once here: a periodic event's cadence is fixed at arm time). Each
// tick gets a span on the controller track; Tick consumes no virtual
// time, so the spans render as zero-width markers whose args carry the
// tick ordinal — the decision instants between them are the payload.
func (c *Cluster) scheduleController() {
	if c.ctrlFn == nil {
		c.ctrlFn = c.ctrlTick
	}
	iv := c.controller.Interval()
	c.ctrlEvent = c.clock.SchedulePeriodic(c.clock.Now()+iv, iv, "controller", c.ctrlFn)
}

func (c *Cluster) ctrlTick() {
	var ref trace.SpanRef
	if c.tracer.Enabled() {
		ref = c.tracer.Begin(c.clock.Now(), trace.PIDController, "controller", "tick")
	}
	c.Mutate(func() { c.controller.Tick(c) })
	c.tracer.End(c.clock.Now(), ref)
	// The periodic event re-arms itself unless shutdown cancelled it.
}

// shutdown cancels periodic machinery so the event queue drains.
func (c *Cluster) shutdown() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, tt := range c.trackers {
		tt.stop()
	}
	c.clock.Cancel(c.ctrlEvent)
	c.clock.Cancel(c.sampleEvent)
	c.clock.Cancel(c.capEvent)
}

// Stats is an instantaneous snapshot of the runtime state the slot
// manager consumes — the aggregate of what trackers report in their
// heartbeats (§III-C).
type Stats struct {
	Now float64

	RunningMaps    int
	RunningReduces int
	PendingMaps    int
	PendingReduces int
	TotalMaps      int
	DoneMaps       int
	TotalReduces   int
	DoneReduces    int

	// Shuffling reducers (still in the copy phase).
	ShufflingReduces int

	// Rates aggregated over trackers (heartbeat EWMA), MB/s. These are
	// 1 s-window estimates and oscillate with task waves; controllers
	// needing stable rates should difference the cumulative counters
	// below over their own longer windows.
	MapInputMBps  float64
	MapOutputMBps float64
	ShuffleMBps   float64

	// Cumulative work counters (committed plus in-flight estimates),
	// MB. Monotone non-decreasing while a single workload runs.
	MapInputProcessedMB float64
	MapOutputProducedMB float64
	ShuffleMovedMB      float64

	// PotentialShuffleMBps estimates what the shuffle fabric could
	// absorb right now given the running reducers — the achievable
	// rate the balance factor compares against (§III-B1).
	PotentialShuffleMBps float64

	// ShufflePerReduceMB is the expected shuffle volume per reducer of
	// the job at the head of the queue (the tail-stretch guard input).
	ShufflePerReduceMB float64

	// HeadJobID identifies the job at the head of the FIFO queue, or -1
	// when the queue is empty. Controllers reset per-job learning (e.g.
	// thrashing history) when it changes.
	HeadJobID int

	// Front-stretch view: the first queued job whose maps have not all
	// committed is the one whose map/shuffle balance the slot manager
	// steers. With a single job these equal the cluster-wide counts.
	FrontJobID           int    // -1 when every queued job is past its barrier
	FrontJobName         string // profile name, keys per-workload learning
	FrontRunningReduces  int
	FrontTotalReduces    int
	FrontShuffleReduces  int
	FrontShufflePerRedMB float64

	// Per-tracker views.
	Trackers []TrackerStats
}

// TrackerStats is one tracker's heartbeat-reported state.
type TrackerStats struct {
	ID             int
	MapTarget      int
	ReduceTarget   int
	RunningMaps    int
	RunningReduces int
	MapInputMBps   float64
}

// Snapshot gathers Stats. Safe to call from controller Tick.
func (c *Cluster) Snapshot() Stats {
	s := Stats{Now: c.clock.Now(), HeadJobID: -1, FrontJobID: -1, Trackers: make([]TrackerStats, 0, len(c.trackers))}
	for _, j := range c.jt.jobs {
		if j.Submitted < 0 {
			continue
		}
		s.TotalMaps += len(j.maps)
		s.DoneMaps += j.mapsDone
		s.TotalReduces += len(j.reduces)
		s.DoneReduces += j.reducesDone
	}
	for _, j := range c.jt.queue {
		s.ShufflePerReduceMB = j.expectedShufflePerReduceMB()
		s.HeadJobID = j.ID
		break
	}
	for _, j := range c.jt.queue {
		if j.BarrierReached() {
			continue
		}
		s.FrontJobID = j.ID
		s.FrontJobName = j.Spec.Profile.Name
		s.FrontTotalReduces = len(j.reduces)
		s.FrontShufflePerRedMB = j.expectedShufflePerReduceMB()
		for _, r := range j.reduces {
			if r.state != TaskRunning {
				continue
			}
			s.FrontRunningReduces++
			if r.phase == 0 {
				s.FrontShuffleReduces++
			}
		}
		break
	}
	perReducerCap := float64(c.cfg.Fetchers) * c.cfg.PerFetchMBps
	for _, tt := range c.trackers {
		s.RunningMaps += len(tt.runningMaps)
		s.RunningReduces += len(tt.runningReduces)
		s.MapInputMBps += tt.mapInputRate.Value()
		s.MapOutputMBps += tt.mapOutputRate.Value()
		s.ShuffleMBps += tt.shuffleRate.Value()
		s.MapInputProcessedMB += tt.mapInputDoneMB + tt.inFlightMapInputMB()
		s.MapOutputProducedMB += tt.mapOutputDoneMB + tt.inFlightMapOutputMB()
		s.ShuffleMovedMB += tt.shuffleDoneMB + tt.inFlightShuffleMB()
		shuffling := 0
		for _, r := range tt.runningReduces {
			if r.phase == 0 {
				shuffling++
			}
		}
		s.ShufflingReduces += shuffling
		if shuffling > 0 {
			s.PotentialShuffleMBps += math.Min(float64(shuffling)*perReducerCap, c.cfg.Net.IngressMBps)
		}
		s.Trackers = append(s.Trackers, TrackerStats{
			ID:             tt.id,
			MapTarget:      tt.mapTarget,
			ReduceTarget:   tt.reduceTarget,
			RunningMaps:    len(tt.runningMaps),
			RunningReduces: len(tt.runningReduces),
			MapInputMBps:   tt.mapInputRate.Value(),
		})
	}
	s.PendingMaps = c.jt.PendingMapCount()
	s.PendingReduces = c.jt.PendingReduceCount()
	return s
}
