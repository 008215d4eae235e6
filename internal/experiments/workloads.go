package experiments

import (
	"fmt"
	"math"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
)

// controllers pits the paper's balance-factor slot manager against a
// model-free throughput hill climber on one map-heavy and one
// reduce-heavy job. The climber should hold its own where only the
// thrashing point matters (map-heavy) and give ground where the
// map/shuffle balance matters (reduce-heavy) — isolating the value of
// the paper's model.
var controllers = &Experiment{
	Slug:    "controllers",
	Title:   "Balance-factor manager vs model-free hill climber",
	Labels:  []string{"benchmark", "controller"},
	Metrics: []Metric{execTime},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for _, bench := range []string{"histogram-ratings", "terasort"} {
			a := engineArms([]core.Engine{core.EngineHadoopV1, core.EngineSMapReduce, core.EngineHillClimber},
				cfg.cluster(), []mr.JobSpec{cfg.spec(bench, 60)}, bench)
			a[0].Labels[1] = "static (HadoopV1)"
			a[1].Labels[1] = "slot manager (paper)"
			a[2].Labels[1] = "hill climber (model-free)"
			arms = append(arms, a...)
		}
		return arms
	},
}

// skew sweeps reducer hot-key skew on terasort. The paper assumes
// uniformly distributed data (§VII); this measures how both systems
// degrade when that assumption breaks.
var skew = &Experiment{
	Slug:    "skew",
	Title:   "Partition skew sensitivity (terasort)",
	Labels:  []string{"zipf s", "engine"},
	Metrics: []Metric{execTime},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for _, s := range []float64{0, 0.5, 1.0} {
			spec := cfg.spec("terasort", 40)
			spec.PartitionSkew = s
			arms = append(arms, engineArms([]core.Engine{core.EngineHadoopV1, core.EngineSMapReduce},
				cfg.cluster(), []mr.JobSpec{spec}, fmt.Sprint(s))...)
		}
		return arms
	},
}

// traceJobs is the length of the synthetic cluster trace.
const traceJobs = 12

// traceWorkload replays one generated trace on every engine and reports
// latency statistics and makespan — the shared-cluster view a week of
// production looks like, compressed.
var traceWorkload = &Experiment{
	Slug:   "trace",
	Title:  fmt.Sprintf("Synthetic cluster trace (%d mixed jobs, Poisson arrivals)", traceJobs),
	Labels: []string{"engine"},
	Metrics: []Metric{
		meanExec,
		{Name: "p95 exec s", Of: func(r *core.Result) float64 { return r.LatencyPercentile(95) }},
		{Name: "makespan s", Of: (*core.Result).LastFinish},
	},
	Arms: func(cfg Config) []Arm {
		specs := GenerateTrace(cfg.Seed, traceJobs, 30, 5*cfg.Scale, 40*cfg.Scale, cfg.Reduces)
		return engineArms(core.Engines(), cfg.cluster(), specs)
	},
}

// traceMix is the benchmark population of the synthetic trace, shaped
// like a production mix: mostly scans and aggregations, some heavy
// sorts.
var traceMix = []struct {
	bench  string
	weight float64
}{
	{"grep", 0.20},
	{"histogram-ratings", 0.20},
	{"wordcount", 0.20},
	{"inverted-index", 0.20},
	{"term-vector", 0.10},
	{"terasort", 0.10},
}

// GenerateTrace builds a deterministic synthetic job trace: Poisson
// arrivals with the given mean gap, benchmarks drawn from traceMix,
// and sizes log-uniform in [minGB, maxGB].
func GenerateTrace(seed uint64, jobs int, meanGapS, minGB, maxGB float64, reduces int) []mr.JobSpec {
	rng := sim.NewRand(seed)
	specs := make([]mr.JobSpec, 0, jobs)
	at := 0.0
	for i := 0; i < jobs; i++ {
		// Exponential inter-arrival.
		at += -meanGapS * math.Log(1-rng.Float64())
		// Weighted benchmark draw.
		u := rng.Float64()
		bench := traceMix[len(traceMix)-1].bench
		acc := 0.0
		for _, m := range traceMix {
			acc += m.weight
			if u < acc {
				bench = m.bench
				break
			}
		}
		gb := minGB * math.Exp(rng.Float64()*math.Log(maxGB/minGB))
		specs = append(specs, mr.JobSpec{
			Name:     fmt.Sprintf("%s-%02d", bench, i),
			Profile:  puma.MustGet(bench),
			InputMB:  gb * 1024,
			Reduces:  reduces,
			SubmitAt: at,
		})
	}
	return specs
}
