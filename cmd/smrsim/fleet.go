package main

import (
	"fmt"
	"io"
	"time"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/fleet"
	"smapreduce/internal/mr"
	"smapreduce/internal/scenario"
	"smapreduce/internal/sim"
)

// runFleet executes -fleet N: a fleet of independent tenant clusters
// sharing the plan's engine and cluster shape, with merged fleet-level
// statistics instead of a per-job timeline. Each cluster gets its own
// seed derived from -seed, so the fleet is reproducible and
// worker-count independent.
func runFleet(stdout io.Writer, n, workers int, mix bool, seed uint64, arrivals *arrival.Config, plan scenario.Plan) error {
	// One policy instance is shared across workers: policies are pure,
	// so sharing cannot perturb determinism.
	capacity, err := core.NewCapacityPolicy(plan.Engine, plan.Options.Tenants)
	if err != nil {
		return err
	}
	cfg := fleet.Config{
		Clusters: n,
		Workers:  workers,
		Seed:     seed,
		Engine:   plan.Engine,
		Cluster:  plan.Options.Cluster,
		Capacity: capacity,
	}
	switch {
	case arrivals != nil:
		// Every cluster replays its own seed-derived open arrival stream.
		cfg.Arrivals = func(_ int, rng *sim.Rand) mr.ArrivalSource {
			src, err := arrival.New(*arrivals, rng)
			if err != nil {
				panic(err) // the scenario validated the config
			}
			return src
		}
	case !mix:
		// Same workload in every cluster; only the seed varies. The
		// slice is shared read-only across workers (specs are copied by
		// value into jobs).
		cfg.Specs = func(int, *sim.Rand) []mr.JobSpec { return plan.Specs }
	}
	start := time.Now()
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	fmt.Fprintln(stdout, res.Summary())
	fmt.Fprintf(stdout, "  wall:      %.2fs  (%.1f clusters/s on %d workers)\n",
		wall, float64(n)/wall, res.Workers)
	return nil
}
