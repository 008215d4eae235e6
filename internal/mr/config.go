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
	HeartbeatPeriod float64 // tracker heartbeat interval, seconds
	SampleInterval  float64 // progress sampling interval, seconds
	ReduceSlowstart float64 // fraction of maps finished before reduces launch
	Fetchers        int     // parallel shuffle copiers per reduce task
	PerFetchMBps    float64 // per-copier transfer cap (HTTP fetch goodput)
	Jitter          float64 // relative task cost noise amplitude
	Seed            uint64  // master RNG seed

	// Slot-change disturbance: applying a slot command perturbs the
	// tracker for StabilizeTime seconds with this extra pressure (the
	// paper's "map processing rate ... will drop slightly at first").
	SlotChangePressure float64
	StabilizeTime      float64

	// Heartbeat-loss handling (fault injection): a tracker silent for
	// BlacklistTimeout seconds is blacklisted (no new work). When its
	// heartbeats resume it serves a probation of ProbationPeriod
	// seconds, doubled for every blacklisting incident it has accrued,
	// before receiving work again. Zero values take defaults derived
	// from HeartbeatPeriod in NewCluster.
	BlacklistTimeout float64
	ProbationPeriod  float64

	// Policy selection.
	Policy Policy
	// Scheduler orders jobs during assignment (default FIFO).
	Scheduler SchedulerKind
	// EagerSlotChange kills surplus running map tasks immediately when
	// a slot target shrinks, instead of the paper's lazy policy of
	// letting them finish. Exists for the lazy-vs-eager ablation; the
	// killed attempts are re-queued and re-executed from scratch.
	EagerSlotChange bool
	// OutputReplication is the HDFS replication factor of reduce
	// outputs. 1 (the default, and the common benchmark setting —
	// terasort jobs set dfs.replication=1 for exactly this reason)
	// writes only the local replica; higher values stream copies to
	// replica nodes over the fabric and write them to remote disks,
	// lengthening the reduce tail realistically.
	OutputReplication int

	// Shuffle compression (Hadoop's mapred.compress.map.output): map
	// outputs are compressed before the spill, shrinking disk and
	// network bytes by CompressionRatio at the cost of compress CPU in
	// the map's spill phase and decompress CPU in the reduce merge.
	CompressShuffle    bool
	CompressionRatio   float64 // compressed size / uncompressed size, in (0,1]
	CompressCPUPerMB   float64 // core-seconds per uncompressed MB (map side)
	DecompressCPUPerMB float64 // core-seconds per uncompressed MB (reduce side)

	// Speculative execution (maps only): when a running map's progress
	// falls SpeculationGap below the mean of its running peers after
	// SpeculationMinRuntime seconds, a backup attempt launches on a
	// different node; the first attempt to commit wins and the loser is
	// killed. Off by default — the paper's systems do not speculate.
	Speculation           bool
	SpeculationGap        float64
	SpeculationMinRuntime float64

	// NodeSpecs optionally gives every worker its own hardware spec
	// (heterogeneous clusters, the paper's future work). When nil all
	// workers use NodeSpec; when set its length must equal Workers.
	NodeSpecs []resource.Spec
	// YARN container sizes; the node memory pool is derived from the
	// equivalent slot configuration: MapSlots·MapContainerMB +
	// ReduceSlots·ReduceContainerMB, matching how the paper configures
	// "equivalently able to run 3 map containers and 2 reduce
	// containers concurrently".
	MapContainerMB    float64
	ReduceContainerMB float64

	// Reference turns on every reference path at once: a heap-only
	// clock (no timing wheel), the fabric's full-resolve verifier, no
	// op or flow pooling, fresh substrate even when a SimState is
	// passed in, and heartbeats that always run in full (a quiet
	// tracker never parks its chain). Outputs must be byte-identical to the default mode, as
	// the per-layer differential tests assert. SMR_REFERENCE=1 forces it.
	Reference bool
}

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
		HeartbeatPeriod:       1.0,
		SampleInterval:        2.0,
		BlacklistTimeout:      3.0,
		ProbationPeriod:       5.0,
		ReduceSlowstart:       0.05,
		Fetchers:              5,
		PerFetchMBps:          3.5,
		Jitter:                0.08,
		Seed:                  1,
		SlotChangePressure:    0.15,
		StabilizeTime:         4,
		Policy:                HadoopV1,
		SpeculationGap:        0.2,
		SpeculationMinRuntime: 10,
		OutputReplication:     1,
		CompressionRatio:      0.45,
		CompressCPUPerMB:      0.012,
		DecompressCPUPerMB:    0.005,
		MapContainerMB:        2048,
		ReduceContainerMB:     3072,
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
	case c.HeartbeatPeriod <= 0:
		return fmt.Errorf("mr: HeartbeatPeriod = %v, must be positive", c.HeartbeatPeriod)
	case c.SampleInterval <= 0:
		return fmt.Errorf("mr: SampleInterval = %v, must be positive", c.SampleInterval)
	case c.BlacklistTimeout < 0:
		return fmt.Errorf("mr: BlacklistTimeout = %v, must be >= 0", c.BlacklistTimeout)
	case c.ProbationPeriod < 0:
		return fmt.Errorf("mr: ProbationPeriod = %v, must be >= 0", c.ProbationPeriod)
	case c.ReduceSlowstart < 0 || c.ReduceSlowstart > 1:
		return fmt.Errorf("mr: ReduceSlowstart = %v, must be in [0,1]", c.ReduceSlowstart)
	case c.Fetchers <= 0:
		return fmt.Errorf("mr: Fetchers = %d, must be positive", c.Fetchers)
	case c.PerFetchMBps <= 0:
		return fmt.Errorf("mr: PerFetchMBps = %v, must be positive", c.PerFetchMBps)
	case c.Jitter < 0 || c.Jitter >= 1:
		return fmt.Errorf("mr: Jitter = %v, must be in [0,1)", c.Jitter)
	case c.SlotChangePressure < 0:
		return fmt.Errorf("mr: SlotChangePressure = %v, must be >= 0", c.SlotChangePressure)
	case c.StabilizeTime < 0:
		return fmt.Errorf("mr: StabilizeTime = %v, must be >= 0", c.StabilizeTime)
	case c.Policy == YARN && (c.MapContainerMB <= 0 || c.ReduceContainerMB <= 0):
		return fmt.Errorf("mr: YARN policy requires positive container sizes")
	case c.OutputReplication < 0 || c.OutputReplication > c.Workers:
		return fmt.Errorf("mr: OutputReplication = %d, must be in [0, Workers]", c.OutputReplication)
	case c.CompressShuffle && (c.CompressionRatio <= 0 || c.CompressionRatio > 1):
		return fmt.Errorf("mr: CompressionRatio = %v, must be in (0,1]", c.CompressionRatio)
	case c.CompressShuffle && (c.CompressCPUPerMB < 0 || c.DecompressCPUPerMB < 0):
		return fmt.Errorf("mr: compression CPU costs must be >= 0")
	case c.Speculation && (c.SpeculationGap <= 0 || c.SpeculationGap >= 1):
		return fmt.Errorf("mr: SpeculationGap = %v, must be in (0,1)", c.SpeculationGap)
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
