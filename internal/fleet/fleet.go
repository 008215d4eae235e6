// Package fleet runs many independent cluster simulations — a fleet of
// tenant clusters — across a pool of workers with near-linear core
// scaling, the ROADMAP's sharded-simulation item.
//
// Three properties make the fleet more than a parallel loop:
//
//   - Per-worker substrate reuse. Each worker owns one mr.SimState
//     (event arena + fabric with its flow pool), reset between
//     consecutive runs, so steady-state fleet execution performs no
//     large allocations per cluster — PR 4's zero-alloc property
//     extended across runs, in the style of per-core workers with
//     phased reconciliation.
//
//   - Streaming merge. Workers fold each finished cluster into local
//     mergeable accumulators (stats.Acc, stats.Histogram) that combine
//     once at the end, so memory stays O(workers), not O(fleet).
//
//   - Determinism. Cluster i's seed is a pure function of the fleet
//     seed and i; reset substrate is observationally identical to
//     fresh substrate; and the merged accumulators are exact
//     (order-independent), so which worker ran which cluster — decided
//     by work-stealing — cannot leak into any result. A fleet run with
//     workers=1 is byte-identical to one with workers=N, per-cluster
//     event logs, Stats and merged totals alike. The test suite pins
//     this invariant.
package fleet

import (
	"fmt"
	"math"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/par"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
	"smapreduce/internal/stats"
)

// The merged distributions' geometry, the only one a fleet uses.
// Histograms only merge over identical geometry, so these are
// fleet-level, not per-worker, choices.
const (
	// DefaultHistMax bounds the makespan/execution-time histograms'
	// range [0, DefaultHistMax) seconds; later samples land in the
	// overflow bucket (still counted in mean/quantiles' mass).
	DefaultHistMax = 4096
	// DefaultHistBuckets is the cell count: 32 s resolution over the
	// range.
	DefaultHistBuckets = 128
)

// Config describes a fleet run.
type Config struct {
	// Clusters is the fleet size. Must be positive.
	Clusters int
	// Workers is the worker-pool size; non-positive means par.Workers()
	// (GOMAXPROCS, overridable via SMR_WORKERS).
	Workers int
	// Seed is the fleet seed. Cluster i runs with seed
	// ClusterSeed(Seed, i), a pure function of (Seed, i).
	Seed uint64
	// Engine selects the evaluated system for every cluster.
	Engine core.Engine
	// Cluster is the per-tenant base configuration; its Seed is
	// overridden per cluster. The zero value means DefaultClusterConfig.
	Cluster mr.Config
	// Specs generates cluster i's workload. rng is derived from the
	// cluster's seed, so the workload is reproducible per cluster
	// regardless of worker count. Nil means DefaultSpecs.
	Specs func(i int, rng *sim.Rand) []mr.JobSpec
	// Arrivals, when non-nil, replaces Specs with an open arrival
	// process per cluster: the source is built fresh for cluster i from
	// the cluster's dedicated arrival stream (arrival fork of its
	// derived seed), so the stream is pure in (Seed, i) and identical
	// for every worker count.
	Arrivals func(i int, rng *sim.Rand) mr.ArrivalSource
	// Capacity attaches a multi-tenant capacity policy to every
	// cluster. One instance is shared fleet-wide, which is safe exactly
	// because mr.CapacityPolicy implementations must be stateless.
	Capacity mr.CapacityPolicy

	// CollectEvents attaches a structured event log to every cluster,
	// delivered through PerCluster. Off by default: the log is the one
	// per-cluster artefact whose size scales with the run.
	CollectEvents bool
	// PerCluster, when non-nil, receives every finished cluster's
	// artefacts. It is called on the worker goroutine that ran the
	// cluster, concurrently with other workers' callbacks and in no
	// particular index order, so it must be safe for concurrent use
	// (writing to out[o.Index] of a pre-sized slice is the canonical
	// pattern). The Result's cluster substrate is recycled for the
	// worker's next run: do not retain o.Result past the call.
	PerCluster func(o ClusterOut)
}

// ClusterOut is one finished cluster's artefacts, delivered to the
// PerCluster callback. Valid only during the call (see Config.PerCluster).
type ClusterOut struct {
	// Index is the cluster's fleet index in [0, Clusters).
	Index int
	// Seed is the cluster's derived seed.
	Seed uint64
	// Result is the engine run result: jobs, slot-manager decisions,
	// the event log (when CollectEvents) and the cluster itself for
	// Snapshot/report access.
	Result *core.Result
}

// Result is the merged outcome of a fleet run. The accumulators are
// exact: identical for every worker count and work partition.
type Result struct {
	Clusters int
	Workers  int
	Engine   core.Engine
	Seed     uint64

	// Jobs and Completed count submitted and finished jobs fleet-wide.
	Jobs      int
	Completed int
	// Decisions counts slot-manager decisions (SMapReduce only).
	Decisions int
	// SLOMisses counts completed jobs that finished past their latency
	// objective, fleet-wide.
	SLOMisses int

	// Makespan aggregates each cluster's last job finish time.
	Makespan     stats.Acc
	MakespanHist *stats.Histogram
	// JobExec aggregates per-job execution time (submission to
	// completion) over completed jobs.
	JobExec     stats.Acc
	JobExecHist *stats.Histogram
	// MapTime/ReduceTime aggregate the paper's per-job phase times over
	// completed jobs.
	MapTime    stats.Acc
	ReduceTime stats.Acc
}

// ClusterSeed derives cluster i's seed from the fleet seed: an
// independent splitmix stream per cluster, pure in (fleetSeed, i).
func ClusterSeed(fleetSeed uint64, i int) uint64 {
	return sim.NewRand(fleetSeed).Fork(uint64(i)).Uint64()
}

// DefaultClusterConfig is the per-tenant base configuration: the
// paper's cluster at half scale (8 task trackers), small enough that a
// fleet of thousands stays interactive.
func DefaultClusterConfig() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Workers = 8
	return cfg
}

// DefaultSpecs models a small tenant: one or two PUMA jobs with a
// seed-derived benchmark mix and input size. Pure in (i, rng stream).
func DefaultSpecs(i int, rng *sim.Rand) []mr.JobSpec {
	names := []string{"grep", "terasort", "histogram-ratings", "wordcount", "inverted-index"}
	mk := func(n int) mr.JobSpec {
		name := names[rng.Intn(len(names))]
		return mr.JobSpec{
			Name:    fmt.Sprintf("c%d-j%d-%s", i, n, name),
			Profile: puma.MustGet(name),
			InputMB: float64(512 + rng.Intn(4)*512), // 0.5–2 GB
			Reduces: 4,
		}
	}
	specs := []mr.JobSpec{mk(0)}
	if rng.Intn(4) == 0 { // every ~4th tenant runs a second, staggered job
		second := mk(1)
		second.SubmitAt = 10 + 10*rng.Float64()
		specs = append(specs, second)
	}
	return specs
}

// shard is one worker's private state: recycled substrate plus the
// local accumulators the final merge combines. Only the owning worker
// goroutine touches a shard until ForN returns.
type shard struct {
	sim *mr.SimState

	jobs, completed, decisions, sloMisses int

	makespan, jobExec         stats.Acc
	mapTime, reduceTime       stats.Acc
	makespanHist, jobExecHist *stats.Histogram
}

// Run executes the fleet and returns the merged result.
func Run(cfg Config) (*Result, error) {
	if cfg.Clusters <= 0 {
		return nil, fmt.Errorf("fleet: Clusters = %d, must be positive", cfg.Clusters)
	}
	workers := par.Width(cfg.Clusters, cfg.Workers)
	base := cfg.Cluster
	if base.Workers == 0 {
		base = DefaultClusterConfig()
	}
	specs := cfg.Specs
	if specs == nil {
		specs = DefaultSpecs
	}
	shards := make([]*shard, workers)
	for w := range shards {
		shards[w] = &shard{
			sim:          mr.NewSimState(),
			makespanHist: stats.NewHistogram(0, DefaultHistMax, DefaultHistBuckets),
			jobExecHist:  stats.NewHistogram(0, DefaultHistMax, DefaultHistBuckets),
		}
	}
	err := par.ForN(cfg.Clusters, workers, func(worker, i int) error {
		return shards[worker].runOne(&cfg, base, specs, i)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Clusters:     cfg.Clusters,
		Workers:      workers,
		Engine:       cfg.Engine,
		Seed:         cfg.Seed,
		MakespanHist: stats.NewHistogram(0, DefaultHistMax, DefaultHistBuckets),
		JobExecHist:  stats.NewHistogram(0, DefaultHistMax, DefaultHistBuckets),
	}
	// Merge order is fixed (worker index) for tidiness, but the
	// accumulators are exact, so any order would produce identical
	// bits — the property that makes the merged result independent of
	// the work-stealing partition.
	for _, sh := range shards {
		res.Jobs += sh.jobs
		res.Completed += sh.completed
		res.Decisions += sh.decisions
		res.SLOMisses += sh.sloMisses
		res.Makespan.Merge(&sh.makespan)
		res.JobExec.Merge(&sh.jobExec)
		res.MapTime.Merge(&sh.mapTime)
		res.ReduceTime.Merge(&sh.reduceTime)
		res.MakespanHist.Merge(sh.makespanHist)
		res.JobExecHist.Merge(sh.jobExecHist)
	}
	return res, nil
}

// runOne executes cluster i on this shard and folds its results in.
func (sh *shard) runOne(cfg *Config, base mr.Config, specs func(int, *sim.Rand) []mr.JobSpec, i int) error {
	seed := ClusterSeed(cfg.Seed, i)
	ccfg := base
	ccfg.Seed = seed
	// The spec stream forks tag 2: the cluster itself consumes forks 0
	// (runtime noise) and 1 (DFS layout) of the same seed, and open
	// arrival streams fork 3 (arrival.RNG).
	opts := core.Options{
		Cluster:  ccfg,
		Sim:      sh.sim,
		Events:   cfg.CollectEvents,
		Capacity: cfg.Capacity,
	}
	var jobSpecs []mr.JobSpec
	if cfg.Arrivals != nil {
		opts.Arrivals = cfg.Arrivals(i, arrival.RNG(seed))
	} else {
		jobSpecs = specs(i, sim.NewRand(seed).Fork(2))
	}
	res, err := core.Run(cfg.Engine, opts, jobSpecs...)
	if err != nil {
		return fmt.Errorf("fleet: cluster %d (seed %#x): %w", i, seed, err)
	}

	last := res.LastFinish()
	sh.makespan.Add(last)
	sh.makespanHist.Add(last)
	for _, j := range res.Jobs {
		sh.jobs++
		if !j.Finished() {
			continue
		}
		sh.completed++
		if j.SLOMissed() {
			sh.sloMisses++
		}
		sh.jobExec.Add(j.ExecutionTime())
		sh.jobExecHist.Add(j.ExecutionTime())
		if mt := j.MapTime(); !math.IsNaN(mt) {
			sh.mapTime.Add(mt)
		}
		if rt := j.ReduceTime(); !math.IsNaN(rt) {
			sh.reduceTime.Add(rt)
		}
	}
	sh.decisions += len(res.Decisions)
	if cfg.PerCluster != nil {
		cfg.PerCluster(ClusterOut{Index: i, Seed: seed, Result: res})
	}
	return nil
}

// Summary renders the merged result for terminal output.
func (r *Result) Summary() string {
	return fmt.Sprintf(
		"fleet: %d clusters on %d workers, engine %s, seed %#x\n"+
			"  jobs:      %d submitted, %d completed, %d slot decisions, %d SLO misses\n"+
			"  makespan:  mean %.1fs  p50 %.1fs  p99 %.1fs  max %.1fs\n"+
			"             %s\n"+
			"  job exec:  mean %.1fs  p50 %.1fs  p99 %.1fs  max %.1fs\n"+
			"             %s\n"+
			"  map time:  mean %.1fs   reduce time: mean %.1fs",
		r.Clusters, r.Workers, r.Engine, r.Seed,
		r.Jobs, r.Completed, r.Decisions, r.SLOMisses,
		r.Makespan.Mean(), r.MakespanHist.Quantile(0.5), r.MakespanHist.Quantile(0.99), r.Makespan.Max(),
		r.MakespanHist,
		r.JobExec.Mean(), r.JobExecHist.Quantile(0.5), r.JobExecHist.Quantile(0.99), r.JobExec.Max(),
		r.JobExecHist,
		r.MapTime.Mean(), r.ReduceTime.Mean(),
	)
}
