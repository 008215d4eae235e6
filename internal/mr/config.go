// Package mr implements the slot-based MapReduce runtime the paper
// modifies: a job tracker (task scheduler + heartbeat handler), task
// trackers with map/reduce working slots and lazy slot changing, map
// and reduce task phase machines with the map→reduce synchronisation
// barrier, a FIFO scheduler, and a YARN-style container policy.
//
// The runtime executes on the simulated substrates (internal/resource,
// internal/netsim, internal/dfs) under a virtual clock, so a 250 GB job
// on 16 nodes runs in milliseconds of wall time while preserving the
// rate dynamics the paper's evaluation measures.
package mr

import (
	"fmt"

	"smapreduce/internal/dfs"
	"smapreduce/internal/netsim"
	"smapreduce/internal/resource"
)

// SchedulerKind selects how the job tracker orders jobs when assigning
// tasks.
type SchedulerKind int

const (
	// FIFO serves jobs strictly in submission order (Hadoop 1 default,
	// used by the paper for HadoopV1 and SMapReduce).
	FIFO SchedulerKind = iota
	// Fair balances running tasks across jobs (a simplified Hadoop
	// Fair Scheduler): the job with the smallest running share is
	// served first.
	Fair
	// Priority serves the highest JobSpec.Priority first, ties broken
	// by submission order (the dynamic-priority schedulers of the
	// related work, reduced to static priorities).
	Priority
)

func (k SchedulerKind) String() string {
	switch k {
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	case Priority:
		return "priority"
	}
	return fmt.Sprintf("SchedulerKind(%d)", int(k))
}

// Policy selects how trackers turn resources into runnable tasks.
type Policy int

const (
	// HadoopV1 uses statically configured map and reduce slot counts
	// per tracker (the paper's baseline #1).
	HadoopV1 Policy = iota
	// YARN pools each node's memory into fungible containers with
	// map-priority assignment and a reduce slow-start ramp (baseline #2).
	YARN
	// Dynamic is HadoopV1 slots whose targets are retuned at runtime by
	// an attached Controller — SMapReduce attaches its slot manager.
	Dynamic
)

func (p Policy) String() string {
	switch p {
	case HadoopV1:
		return "hadoopv1"
	case YARN:
		return "yarn"
	case Dynamic:
		return "smapreduce"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config describes one simulated cluster and runtime policy.
type Config struct {
	// Cluster geometry.
	Workers  int           // task trackers / data nodes (the paper uses 16)
	NodeSpec resource.Spec // per-node hardware
	Net      netsim.Config // fabric; Nodes is overridden with Workers
	DFS      dfs.Config    // block size, replication, racks

	// Slot configuration (initial values for Dynamic).
	MapSlots       int // per-tracker map slots (paper default 3)
	ReduceSlots    int // per-tracker reduce slots (paper default 2)
	MaxMapSlots    int // upper bound a controller may set
	MaxReduceSlots int // upper bound a controller may set

	// Runtime behaviour.
	PerFetchMBps float64 // per-copier transfer cap (HTTP fetch goodput)
	Seed         uint64  // master RNG seed

	// Policy selection.
	Policy Policy
	// Scheduler orders jobs during assignment (default FIFO).
	Scheduler SchedulerKind
	// EagerSlotChange kills surplus running map tasks immediately when
	// a slot target shrinks, instead of the paper's lazy policy of
	// letting them finish. Exists for the lazy-vs-eager ablation; the
	// killed attempts are re-queued and re-executed from scratch.
	EagerSlotChange bool

	// Speculative execution (maps only): when a running map's progress
	// falls speculationGap below the mean of its running peers after
	// SpeculationMinRuntime seconds, a backup attempt launches on a
	// different node; the first attempt to commit wins and the loser is
	// killed. Off by default — the paper's systems do not speculate.
	Speculation           bool
	SpeculationMinRuntime float64

	// NodeSpecs optionally gives every worker its own hardware spec
	// (heterogeneous clusters, the paper's future work). When nil all
	// workers use NodeSpec; when set its length must equal Workers.
	NodeSpecs []resource.Spec

	// Reference turns on every reference path at once: a heap-only
	// clock (no timing wheel), the fabric's full-resolve verifier, no
	// op or flow pooling, fresh substrate even when a SimState is
	// passed in, and heartbeats that always run in full (a quiet
	// tracker never parks its chain). Outputs must be byte-identical to the default mode, as
	// the per-layer differential tests assert. SMR_REFERENCE=1 forces it.
	Reference bool
}

// Runtime constants of the paper's workbench. No experiment varies
// them, so they are not options.
const (
	// heartbeatPeriod is the tracker heartbeat interval, seconds.
	heartbeatPeriod float64 = 1
	// sampleInterval is the progress sampling interval, seconds.
	sampleInterval float64 = 2
	// controlPeriod is the period between slot-controller ticks and
	// between capacity-policy rebalances, seconds. The paper's manager
	// runs "after every time period" long enough for all trackers to
	// have heartbeated; with 1 s heartbeats 5 s is comfortable.
	controlPeriod float64 = 5
	// reduceSlowstart is the fraction of maps finished before reduces
	// launch.
	reduceSlowstart float64 = 0.05
	// fetchers is the number of parallel shuffle copiers per reduce task.
	fetchers = 5
	// jitter is the relative task cost noise amplitude.
	jitter float64 = 0.08

	// Slot-change disturbance: applying a slot command perturbs the
	// tracker for stabilizeTime seconds with slotChangePressure extra
	// pressure (the paper's "map processing rate ... will drop slightly
	// at first").
	slotChangePressure float64 = 0.15
	stabilizeTime      float64 = 4

	// Heartbeat-loss handling (fault injection): a tracker silent for
	// blacklistTimeout seconds is blacklisted (no new work). When its
	// heartbeats resume it serves a probation of probationPeriod
	// seconds, doubled for every blacklisting incident it has accrued,
	// before receiving work again.
	blacklistTimeout float64 = 3
	probationPeriod  float64 = 5

	// speculationGap is how far below its running peers' mean rate a
	// map must fall to be speculated (see Config.Speculation).
	speculationGap float64 = 0.2

	// YARN container sizes; the node memory pool is derived from the
	// equivalent slot configuration: MapSlots·mapContainerMB +
	// ReduceSlots·reduceContainerMB, matching how the paper configures
	// "equivalently able to run 3 map containers and 2 reduce
	// containers concurrently".
	mapContainerMB    float64 = 2048
	reduceContainerMB float64 = 3072
)

// DefaultConfig mirrors the paper's workbench: 16 workers, 3 map +
// 2 reduce slots, 128 MB blocks, GbE fabric, 1 s heartbeats.
func DefaultConfig() Config {
	return Config{
		Workers:               16,
		NodeSpec:              resource.DefaultSpec(),
		Net:                   netsim.DefaultConfig(16),
		DFS:                   dfs.DefaultConfig(),
		MapSlots:              3,
		ReduceSlots:           2,
		MaxMapSlots:           16,
		MaxReduceSlots:        6,
		PerFetchMBps:          3.5,
		Seed:                  1,
		Policy:                HadoopV1,
		SpeculationMinRuntime: 10,
	}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.Workers <= 0:
		return fmt.Errorf("mr: Workers = %d, must be positive", c.Workers)
	case c.MapSlots <= 0:
		return fmt.Errorf("mr: MapSlots = %d, must be positive", c.MapSlots)
	case c.ReduceSlots <= 0:
		return fmt.Errorf("mr: ReduceSlots = %d, must be positive", c.ReduceSlots)
	case c.MaxMapSlots < c.MapSlots:
		return fmt.Errorf("mr: MaxMapSlots = %d below MapSlots %d", c.MaxMapSlots, c.MapSlots)
	case c.MaxReduceSlots < c.ReduceSlots:
		return fmt.Errorf("mr: MaxReduceSlots = %d below ReduceSlots %d", c.MaxReduceSlots, c.ReduceSlots)
	case c.PerFetchMBps <= 0:
		return fmt.Errorf("mr: PerFetchMBps = %v, must be positive", c.PerFetchMBps)
	case c.Speculation && c.SpeculationMinRuntime < 0:
		return fmt.Errorf("mr: SpeculationMinRuntime = %v, must be >= 0", c.SpeculationMinRuntime)
	}
	if err := c.NodeSpec.Validate(); err != nil {
		return err
	}
	if c.NodeSpecs != nil {
		if len(c.NodeSpecs) != c.Workers {
			return fmt.Errorf("mr: NodeSpecs has %d entries for %d workers", len(c.NodeSpecs), c.Workers)
		}
		for i, spec := range c.NodeSpecs {
			if err := spec.Validate(); err != nil {
				return fmt.Errorf("mr: NodeSpecs[%d]: %w", i, err)
			}
		}
	}
	if c.Scheduler != FIFO && c.Scheduler != Fair && c.Scheduler != Priority {
		return fmt.Errorf("mr: unknown scheduler %v", c.Scheduler)
	}
	net := c.Net
	net.Nodes = c.Workers
	if err := net.Validate(); err != nil {
		return err
	}
	return c.DFS.Validate()
}
