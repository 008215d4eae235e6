// Ablations beyond the paper's Fig. 7, covering the design choices
// DESIGN.md §7 calls out: the balance-factor bounds, the slow-start
// threshold, the suspected-thrashing confirmation count, lazy versus
// eager slot changing, and the tail-stretch reduce boost. Then the
// runtime extensions the paper leaves as future work: heterogeneous
// nodes, speculation and the fair scheduler.
package experiments

import (
	"fmt"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/resource"
)

// variant is one labelled slot-manager setting of an ablation.
type variant struct {
	label string
	sm    core.SlotManagerConfig
}

// ablation declares a one-dimensional sweep over the arms its builder
// returns, tabulating each arm's map and exec time.
func ablation(slug, name string, arms func(cfg Config) []Arm) *Experiment {
	return &Experiment{
		Slug:    slug,
		Title:   "Ablation — " + name,
		Labels:  []string{"setting"},
		Metrics: []Metric{mapTime, execTime},
		Arms:    arms,
	}
}

// smArms returns one SMapReduce arm per slot-manager variant.
func smArms(cfg Config, bench string, gb float64, variants []variant) []Arm {
	arms := make([]Arm, len(variants))
	for i, v := range variants {
		arms[i] = arm([]string{v.label}, core.EngineSMapReduce, cfg.cluster(), cfg.spec(bench, gb))
		arms[i].Opts.SlotManager = v.sm
	}
	return arms
}

// withNodes gives the cluster per-node specs: the default node spec,
// adjusted per node by edit.
func withNodes(c *mr.Config, edit func(n int, s *resource.Spec)) {
	c.NodeSpecs = make([]resource.Spec, c.Workers)
	for n := range c.NodeSpecs {
		c.NodeSpecs[n] = c.NodeSpec
		edit(n, &c.NodeSpecs[n])
	}
}

// ablationBounds sweeps the balance-factor band. Terasort's balance
// factor hovers near 1.0 at the default slots, so the band genuinely
// decides between holding and hunting.
var ablationBounds = ablation("ablation-bounds", "balance-factor bounds (terasort)", func(cfg Config) []Arm {
	var vs []variant
	for _, p := range [][2]float64{{0.95, 1.05}, {0.8, 1.3}, {0.6, 1.8}} {
		vs = append(vs, variant{fmt.Sprintf("bounds [%.2f, %.2f]", p[0], p[1]),
			core.SlotManagerConfig{LowerBound: p[0], UpperBound: p[1]}})
	}
	return smArms(cfg, "terasort", 60, vs)
})

// ablationSlowStart sweeps the slow-start threshold.
var ablationSlowStart = ablation("ablation-slowstart", "slow-start threshold (histogram-movies)", func(cfg Config) []Arm {
	var vs []variant
	for _, f := range []float64{0.02, 0.10, 0.30} {
		vs = append(vs, variant{fmt.Sprintf("slow start %.0f%%", 100*f), core.SlotManagerConfig{SlowStartFraction: f}})
	}
	return smArms(cfg, "histogram-movies", 60, vs)
})

// ablationConfirmations sweeps the suspected-thrashing confirmation
// count.
var ablationConfirmations = ablation("ablation-confirmations", "thrashing confirmations (inverted-index)", func(cfg Config) []Arm {
	var vs []variant
	for _, n := range []int{1, 2, 4} {
		vs = append(vs, variant{fmt.Sprintf("%d confirmation(s)", n), core.SlotManagerConfig{SuspectConfirmations: n}})
	}
	return smArms(cfg, "inverted-index", 60, vs)
})

// ablationLazyEager compares the paper's lazy slot changing against the
// eager kill-and-reschedule alternative it argues against (§III-D).
// ranked-inverted-index is calibrated so the shuffle lags at the
// initial slots: the manager decrements, and the two shrink policies
// genuinely diverge.
var ablationLazyEager = ablation("ablation-lazy-eager", "lazy vs eager slot changing (ranked-inverted-index)", func(cfg Config) []Arm {
	arms := smArms(cfg, "ranked-inverted-index", 60, []variant{{label: "lazy (paper)"}, {label: "eager (kill and reschedule)"}})
	arms[1].Opts.Cluster.EagerSlotChange = true
	return arms
})

// ablationTailBoost measures the tail-stretch reduce boost on the job
// class it targets: small shuffle per reducer, non-trivial reduce
// compute, and more reduce tasks than slots so the boost removes a
// whole reduce wave (kmeans with 64 reducers on 32 default slots).
var ablationTailBoost = ablation("ablation-tailboost", "tail-stretch reduce boost (kmeans, 64 reducers)", func(cfg Config) []Arm {
	cfg.Reduces = 64
	return smArms(cfg, "kmeans", 60, []variant{
		{"boost on (paper)", core.SlotManagerConfig{}},
		{"boost off", core.SlotManagerConfig{DisableTailBoost: true}},
	})
})

// heterogeneous runs a map-heavy job on a cluster whose second half has
// half the cores, comparing HadoopV1, uniform SMapReduce, and
// SMapReduce with per-node target scaling — the extension the paper
// leaves as future work.
var heterogeneous = &Experiment{
	Slug:    "heterogeneous",
	Title:   "Heterogeneous cluster (future work §VII)",
	Labels:  []string{"setting"},
	Metrics: []Metric{execTime},
	Arms: func(cfg Config) []Arm {
		arms := smArms(cfg, "histogram-ratings", 80, []variant{
			{"HadoopV1 static", core.SlotManagerConfig{}},
			{"SMapReduce uniform targets", core.SlotManagerConfig{}},
			{"SMapReduce per-node scaling", core.SlotManagerConfig{PerNodeScaling: true}},
		})
		arms[0].Engine = core.EngineHadoopV1
		for i := range arms {
			withNodes(&arms[i].Opts.Cluster, func(n int, s *resource.Spec) {
				if n >= cfg.Workers/2 {
					s.Cores /= 2
					s.RAMMB /= 2
					s.ContentionScale *= 2 // half the machine: same load feels twice as heavy
				}
			})
		}
		return arms
	},
}

// speculation runs grep on a cluster with a quarter of its nodes at
// 40% speed, with and without backup attempts (a runtime extension
// beyond the paper; HadoopV1 policy so the measurement isolates
// speculation itself). The speculative run's launch and win counts are
// kept out of the table.
var speculation = &Experiment{
	Slug:   "speculation",
	Title:  "Speculative execution on a straggler cluster",
	Labels: []string{"setting"},
	Metrics: []Metric{mapTime, execTime,
		{Name: "launched", Hidden: true, Of: func(r *core.Result) float64 { return float64(r.Jobs[0].SpeculativeLaunched) }},
		{Name: "wins", Hidden: true, Of: func(r *core.Result) float64 { return float64(r.Jobs[0].SpeculativeWins) }},
	},
	Arms: func(cfg Config) []Arm {
		arms := smArms(cfg, "grep", 60, []variant{{label: "no speculation"}, {label: "speculation on"}})
		for i := range arms {
			arms[i].Engine = core.EngineHadoopV1
			c := &arms[i].Opts.Cluster
			withNodes(c, func(n int, s *resource.Spec) {
				if n >= cfg.Workers-cfg.Workers/4 {
					s.CoreSpeed *= 0.4
				}
			})
			c.Speculation = i == 1
			c.SpeculationMinRuntime = 3
		}
		return arms
	},
}

// schedulers runs a short-jobs-behind-long-job workload under FIFO and
// the fair scheduler on SMapReduce; Fair should cut the mean by letting
// the short jobs through, at modest cost to the last finish.
var schedulers = &Experiment{
	Slug:    "schedulers",
	Title:   "FIFO vs Fair scheduling under SMapReduce",
	Labels:  []string{"scheduler"},
	Metrics: []Metric{meanExec, lastFinish},
	Arms: func(cfg Config) []Arm {
		specs := []mr.JobSpec{cfg.spec("terasort", 60), cfg.spec("grep", 10), cfg.spec("grep", 10)}
		specs[0].Name = "long-terasort"
		specs[1].Name, specs[1].SubmitAt = "short-grep-1", 10
		specs[2].Name, specs[2].SubmitAt = "short-grep-2", 20
		var arms []Arm
		for _, kind := range []mr.SchedulerKind{mr.FIFO, mr.Fair} {
			cluster := cfg.cluster()
			cluster.Scheduler = kind
			arms = append(arms, arm([]string{kind.String()}, core.EngineSMapReduce, cluster, specs...))
		}
		return arms
	},
}
