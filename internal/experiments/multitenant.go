package experiments

import (
	"fmt"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/policy"
)

// Multi-tenant capacity-policy shoot-out: an open arrival process with
// three competing tenants (an SLO-bound analytics queue, a heavier ETL
// queue and an always-on service stream) replayed identically against
// every engine at several offered-load multipliers. The question the
// sweep answers is the one a capacity policy exists for: as load
// approaches and passes saturation, which policy keeps the SLO-bound
// tenant's latency tail intact, and what does that protection cost the
// batch tenants in makespan?

// shootoutEngines lists the compared systems: the paper's three plus
// the three capacity policies on static slots.
var shootoutEngines = append(core.Engines(), core.CapacityEngines()...)

// shootoutLoads lists the offered-load multipliers applied to the batch
// tenants' arrival rates: a healthy cluster (1.0 ≈ the mix that keeps
// the paper-scale cluster moderately busy), the onset of contention,
// and well past saturation — the regime capacity policies exist for.
var shootoutLoads = []float64{1, 4, 12}

// shootoutArrivals builds the tenant mix at one load multiplier. Sizes
// scale with cfg.Scale like every other experiment workload.
func shootoutArrivals(cfg Config, load float64) arrival.Config {
	gb := 1024 * cfg.Scale
	return arrival.Config{
		Horizon:    1800,
		LoadFactor: load,
		Tenants: []arrival.Tenant{
			// Interactive analytics: small scans with a latency objective.
			{Name: "analytics", Benchmarks: []string{"grep", "histogram-ratings"},
				MeanInterarrival: 120, InputMBMin: 2 * gb, InputMBMax: 6 * gb,
				Reduces: cfg.Reduces, SLOSeconds: 600},
			// Batch ETL: heavier shuffle-bound jobs, no SLO.
			{Name: "etl", Benchmarks: []string{"terasort", "inverted-index"},
				MeanInterarrival: 300, InputMBMin: 8 * gb, InputMBMax: 12 * gb,
				Reduces: cfg.Reduces},
			// Always-on service stream: exact cadence, exempt from the
			// load multiplier — the background the batch tenants must
			// coexist with.
			{Name: "service", Benchmarks: []string{"wordcount"},
				MeanInterarrival: 240, InputMBMin: 1 * gb, InputMBMax: 1 * gb,
				Reduces: cfg.Reduces, Service: true},
		},
	}
}

// shootoutTenants is the policy configuration used by the capacity
// engines: the SLO-bound tenant weighs double and holds a 30% capacity
// guarantee under the queue policy.
var shootoutTenants = []policy.Tenant{
	{Name: "analytics", Weight: 2, Guarantee: 0.3},
	{Name: "etl", Weight: 1, Guarantee: 0.4},
	{Name: "service", Weight: 1, Guarantee: 0.2},
}

// multiTenant runs the sweep: every engine sees the exact same arrival
// stream at each load level (the stream is a pure function of the
// cluster seed, not the engine), so differences in the latency tail are
// attributable to the policy alone.
var multiTenant = &Experiment{
	Slug:   "multitenant",
	Title:  "Multi-tenant capacity shoot-out",
	Labels: []string{"engine", "load"},
	Metrics: []Metric{
		{Name: "jobs", Of: func(r *core.Result) float64 { return float64(len(r.Jobs)) }},
		{Name: "makespan s", Of: (*core.Result).LastFinish},
		{Name: "p50 s", Of: func(r *core.Result) float64 { return r.LatencyPercentile(50) }},
		{Name: "p99 s", Of: func(r *core.Result) float64 { return r.LatencyPercentile(99) }},
		{Name: "SLO miss", Of: func(r *core.Result) float64 { return float64(r.SLOMisses()) }},
	},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for _, e := range shootoutEngines {
			for _, load := range shootoutLoads {
				cluster := cfg.cluster()
				src, err := arrival.New(shootoutArrivals(cfg, load), arrival.RNG(cluster.Seed))
				if err != nil {
					// The mix is valid for every config Run accepts.
					panic(fmt.Sprintf("experiments: shoot-out arrivals: %v", err))
				}
				arms = append(arms, Arm{
					Labels: labels(e, load),
					Engine: e,
					Opts:   core.Options{Cluster: cluster, Arrivals: src, Tenants: shootoutTenants},
				})
			}
		}
		return arms
	},
}
