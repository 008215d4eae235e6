package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"smapreduce/internal/core"
	"smapreduce/internal/metrics"
	"smapreduce/internal/mr"
)

// chartWidth is the width of every quick-look chart printed by
// `smrbench -charts` under its table. The charts are deliberately
// compact: a figure's shape should be checkable from a terminal
// scrollback.
const chartWidth = 40

// arm returns an arm running jobs on the engine over the cluster.
func arm(labels []string, engine core.Engine, cluster mr.Config, jobs ...mr.JobSpec) Arm {
	return Arm{Labels: labels, Engine: engine, Opts: core.Options{Cluster: cluster}, Jobs: jobs}
}

// engineArms returns one arm per engine running the given jobs on the
// cluster, labelled by the prefix labels and the engine name.
func engineArms(engines []core.Engine, cluster mr.Config, jobs []mr.JobSpec, prefix ...string) []Arm {
	arms := make([]Arm, len(engines))
	for i, e := range engines {
		arms[i] = arm(append(slices.Clone(prefix), e.String()), e, cluster, jobs...)
	}
	return arms
}

// ---------------------------------------------------------------------------
// Figure 1 — thrashing curves.

var fig1Benches = []string{"terasort", "term-vector", "grep"}

const fig1MaxSlots = 10

// fig1 reproduces Fig. 1: map throughput versus the per-node map slot
// count for Terasort, TermVector and Grep on static HadoopV1 slots. The
// curves must rise, peak at the benchmark-specific thrashing point, and
// fall beyond it.
var fig1 = &Experiment{
	Slug:   "fig1",
	Figure: 1,
	Title:  "Figure 1 — map throughput vs map slots per node (HadoopV1)",
	Labels: []string{"benchmark", "map slots"},
	Metrics: []Metric{{Name: "throughput MB/s", Of: func(r *core.Result) float64 {
		j := r.Jobs[0]
		return j.Spec.InputMB / j.MapTime()
	}}},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for _, bench := range fig1Benches {
			for slots := 1; slots <= fig1MaxSlots; slots++ {
				cluster := cfg.cluster()
				cluster.MapSlots = slots
				cluster.MaxMapSlots = slots
				arms = append(arms, arm(labels(bench, slots), core.EngineHadoopV1, cluster, cfg.spec(bench, 48)))
			}
		}
		return arms
	},
	Chart: func(r *Result) string {
		var b strings.Builder
		for _, bench := range fig1Benches {
			pts := make([]metrics.Point, fig1MaxSlots)
			for i := range pts {
				pts[i] = metrics.Point{T: float64(i + 1), V: r.Value("throughput MB/s", bench, strconv.Itoa(i+1))}
			}
			fmt.Fprintf(&b, "%-12s %s  peak at %d slots\n",
				bench, metrics.Sparkline(pts, chartWidth), fig1Peak(r, bench))
		}
		return b.String()
	},
}

// fig1Peak returns the slot count with maximum throughput for a
// benchmark.
func fig1Peak(r *Result, bench string) int {
	best, bestv := 0, 0.0
	for slots := 1; slots <= fig1MaxSlots; slots++ {
		if v := r.Value("throughput MB/s", bench, strconv.Itoa(slots)); v > bestv {
			best, bestv = slots, v
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Figure 3 — execution time per benchmark on the three engines.

// Fig3Benchmarks is the benchmark set plotted in Fig. 3.
var Fig3Benchmarks = []string{
	"histogram-movies", "histogram-ratings", "grep", "classification",
	"wordcount", "term-vector", "inverted-index", "terasort",
}

// fig3 reproduces Fig. 3: per-benchmark map time and reduce time on
// HadoopV1, YARN and SMapReduce with the paper's 3 map + 2 reduce
// initial slots.
var fig3 = &Experiment{
	Slug:   "fig3",
	Figure: 3,
	Title:  "Figure 3 — execution time per benchmark",
	Labels: []string{"benchmark", "engine"},
	Metrics: []Metric{
		mapTime,
		{Name: "reduce s", Of: func(r *core.Result) float64 { return r.Jobs[0].ReduceTime() }},
		execTime,
		throughput,
	},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for _, bench := range Fig3Benchmarks {
			arms = append(arms, engineArms(core.Engines(), cfg.cluster(), []mr.JobSpec{cfg.spec(bench, 100)}, bench)...)
		}
		return arms
	},
	// Fig. 3's stacked bars flattened to totals.
	Chart: func(r *Result) string {
		var b strings.Builder
		for _, bench := range Fig3Benchmarks {
			var names []string
			var values []float64
			for _, e := range core.Engines() {
				names = append(names, e.String())
				values = append(values, r.Value("exec s", bench, e.String()))
			}
			fmt.Fprintf(&b, "%s\n%s", bench, metrics.Bars("", names, values, chartWidth))
		}
		return b.String()
	},
}

// Fig3Row is one (benchmark, engine) cell.
type Fig3Row struct {
	Benchmark     string
	Engine        core.Engine
	MapTime       float64
	ReduceTime    float64
	ExecTime      float64
	ThroughputMBs float64
}

// Fig3Result holds the benchmark × engine matrix.
type Fig3Result struct {
	Rows []Fig3Row
}

// Figure3 runs Fig. 3 and returns its matrix as typed rows.
func Figure3(cfg Config) (*Fig3Result, error) {
	r, err := fig3.Run(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{}
	for _, bench := range Fig3Benchmarks {
		for _, e := range core.Engines() {
			v := func(metric string) float64 { return r.Value(metric, bench, e.String()) }
			res.Rows = append(res.Rows, Fig3Row{
				Benchmark: bench, Engine: e,
				MapTime: v("map s"), ReduceTime: v("reduce s"), ExecTime: v("exec s"), ThroughputMBs: v("MB/s"),
			})
		}
	}
	return res, nil
}

// Get returns the row for (bench, engine); ok is false if absent.
func (r *Fig3Result) Get(bench string, engine core.Engine) (Fig3Row, bool) {
	for _, row := range r.Rows {
		if row.Benchmark == bench && row.Engine == engine {
			return row, true
		}
	}
	return Fig3Row{}, false
}

// SpeedupOver returns SMapReduce's throughput gain over the baseline
// engine for a benchmark (0.40 = +40%).
func (r *Fig3Result) SpeedupOver(bench string, baseline core.Engine) float64 {
	smr, ok1 := r.Get(bench, core.EngineSMapReduce)
	base, ok2 := r.Get(bench, baseline)
	if !ok1 || !ok2 {
		return 0
	}
	return smr.ThroughputMBs/base.ThroughputMBs - 1
}

// ---------------------------------------------------------------------------
// Figure 4 — progress over time.

// fig4 reproduces Fig. 4: total progress percentage (map + reduce,
// 0–200%) over time for the HistogramMovie benchmark on each engine.
// Curves cannot be averaged point by point, so the table and chart show
// the first trial.
var fig4 = &Experiment{
	Slug:   "fig4",
	Figure: 4,
	Title:  "Figure 4 — HistogramMovie progress over time (% of 200)",
	Labels: []string{"engine"},
	Arms: func(cfg Config) []Arm {
		return engineArms(core.Engines(), cfg.cluster(), []mr.JobSpec{cfg.spec("histogram-movies", 100)})
	},
	Curve: true,
	// The curves resampled on a common grid up to the latest finish.
	Table: func(r *Result) *metrics.Table {
		title := r.Experiment.Title
		if r.Trials > 1 {
			title += fmt.Sprintf(", trial 1 of %d", r.Trials)
		}
		cols := []string{"t s"}
		end := 0.0
		for _, row := range r.Rows {
			cols = append(cols, row.Labels[0])
			end = max(end, row.Curve.Last().T)
		}
		t := metrics.NewTable(title, cols...)
		step := end / 25
		if step <= 0 {
			step = 1
		}
		for x := 0.0; x <= end+1e-9; x += step {
			cells := []any{x}
			for _, row := range r.Rows {
				cells = append(cells, row.Curve.At(x))
			}
			t.AddRowf(cells...)
		}
		return t
	},
	Chart: func(r *Result) string {
		var b strings.Builder
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-12s %s  barrier at %.0f s\n",
				row.Labels[0], metrics.Sparkline(row.Curve.Points(), chartWidth), row.Curve.CrossingTime(100))
		}
		return b.String()
	},
}

// ---------------------------------------------------------------------------
// Figures 5 and 6 — sweeps pivoted to one column per engine.

// enginePivot renders an (x, engine) sweep of the first metric as one
// row per x and one column per engine, optionally followed by
// SMapReduce's ratio to each baseline.
func enginePivot(r *Result, unit string, ratios bool) *metrics.Table {
	e := r.Experiment
	engines := core.Engines()
	cols := []string{e.Labels[0]}
	for _, eng := range engines {
		cols = append(cols, eng.String()+" "+unit)
	}
	if ratios {
		cols = append(cols, "SMR/V1", "SMR/YARN")
	}
	t := metrics.NewTable(e.Title, cols...)
	for i := 0; i < len(r.Rows); i += len(engines) {
		x := r.Rows[i].Labels[0]
		cells := []any{x}
		for _, eng := range engines {
			cells = append(cells, r.Value(e.Metrics[0].Name, x, eng.String()))
		}
		if ratios {
			v1, yarn, smr := cells[1].(float64), cells[2].(float64), cells[3].(float64)
			cells = append(cells, smr/v1, smr/yarn)
		}
		t.AddRowf(cells...)
	}
	return t
}

// fig5 reproduces Fig. 5: HistogramRating map time with initial map
// slots 1..8 on the three engines. SMapReduce should win at bad
// configurations and match the baselines at their optimum.
var fig5 = &Experiment{
	Slug:    "fig5",
	Figure:  5,
	Title:   "Figure 5 — HistogramRating map time vs initial map slots",
	Labels:  []string{"map slots", "engine"},
	Metrics: []Metric{mapTime},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for slots := 1; slots <= 8; slots++ {
			for _, e := range core.Engines() {
				cluster := cfg.cluster()
				cluster.MapSlots = slots
				if e != core.EngineSMapReduce {
					// Baselines are pinned to the configured slots; the
					// managed engine may move off them.
					cluster.MaxMapSlots = slots
				}
				arms = append(arms, arm(labels(slots, e), e, cluster, cfg.spec("histogram-ratings", 60)))
			}
		}
		return arms
	},
	Table: func(r *Result) *metrics.Table { return enginePivot(r, "s", false) },
}

var fig6Sizes = []float64{50, 100, 150, 200, 250}

// fig6 reproduces Fig. 6: HistogramRating job throughput at input sizes
// 50–250 GB. SMapReduce's advantage must grow with input size (more
// time to adapt), reaching ≈2× HadoopV1 at the largest size.
var fig6 = &Experiment{
	Slug:    "fig6",
	Figure:  6,
	Title:   "Figure 6 — HistogramRating throughput vs input size",
	Labels:  []string{"input GB", "engine"},
	Metrics: []Metric{throughput},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for _, gb := range fig6Sizes {
			arms = append(arms, engineArms(core.Engines(), cfg.cluster(),
				[]mr.JobSpec{cfg.spec("histogram-ratings", gb)}, fmt.Sprint(gb))...)
		}
		return arms
	},
	Table: func(r *Result) *metrics.Table { return enginePivot(r, "MB/s", true) },
	Chart: func(r *Result) string {
		var b strings.Builder
		for _, e := range core.Engines() {
			pts := make([]metrics.Point, len(fig6Sizes))
			for i, gb := range fig6Sizes {
				pts[i] = metrics.Point{T: gb, V: r.Value("MB/s", fmt.Sprint(gb), e.String())}
			}
			fmt.Fprintf(&b, "%-12s %s  %.0f → %.0f MB/s\n",
				e.String(), metrics.Sparkline(pts, chartWidth), pts[0].V, pts[len(pts)-1].V)
		}
		return b.String()
	},
}

// ---------------------------------------------------------------------------
// Figure 7 — ablations: thrashing detection and slow start.

// fig7Benchmarks is the two-benchmark set of Fig. 7. Sizes are chosen
// so the workload outlives the slot ramp: the no-detection arm must
// have time to climb past the thrashing point, or the ablation is
// invisible.
var fig7Benchmarks = []struct {
	bench string
	gb    float64
}{{"histogram-movies", 250}, {"inverted-index", 100}}

// fig7Variants are the ablation arms of Fig. 7.
var fig7Variants = []struct {
	label  string
	engine core.Engine
	sm     core.SlotManagerConfig
}{
	{"HadoopV1", core.EngineHadoopV1, core.SlotManagerConfig{}},
	{"YARN", core.EngineYARN, core.SlotManagerConfig{}},
	{"SMapReduce", core.EngineSMapReduce, core.SlotManagerConfig{}},
	{"SMapReduce w/o thrash detection", core.EngineSMapReduce, core.SlotManagerConfig{DisableThrashDetection: true}},
	{"SMapReduce w/o slow start", core.EngineSMapReduce, core.SlotManagerConfig{DisableSlowStart: true}},
}

// fig7 reproduces Fig. 7: map times with and without thrashing
// detection and with and without the slow-start policy. Without
// detection the manager overshoots the thrashing point and map time
// must exceed both baselines.
var fig7 = &Experiment{
	Slug:    "fig7",
	Figure:  7,
	Title:   "Figure 7 — map time with/without thrashing detection and slow start",
	Labels:  []string{"benchmark", "variant"},
	Metrics: []Metric{mapTime},
	Arms: func(cfg Config) []Arm {
		var arms []Arm
		for _, b := range fig7Benchmarks {
			for _, v := range fig7Variants {
				a := arm([]string{b.bench, v.label}, v.engine, cfg.cluster(), cfg.spec(b.bench, b.gb))
				a.Opts.SlotManager = v.sm
				arms = append(arms, a)
			}
		}
		return arms
	},
}

// ---------------------------------------------------------------------------
// Figures 8 and 9 — multiple concurrent jobs.

// multiJob declares a figure of 4 identical jobs submitted 5 s apart
// (the paper's synthetic multi-job workload) on every engine.
func multiJob(figure int, bench string, gbEach float64) *Experiment {
	return &Experiment{
		Slug:    fmt.Sprintf("fig%d", figure),
		Figure:  figure,
		Title:   fmt.Sprintf("Figures 8/9 — 4 concurrent %s jobs (5 s stagger)", bench),
		Labels:  []string{"engine"},
		Metrics: []Metric{meanExec, lastFinish},
		Arms: func(cfg Config) []Arm {
			specs := make([]mr.JobSpec, 4)
			for i := range specs {
				specs[i] = cfg.spec(bench, gbEach)
				specs[i].Name = fmt.Sprintf("%s-%d", bench, i+1)
				specs[i].SubmitAt = float64(i) * 5
			}
			return engineArms(core.Engines(), cfg.cluster(), specs)
		},
		Chart: func(r *Result) string {
			var names []string
			var values []float64
			for _, row := range r.Rows {
				names = append(names, row.Labels[0])
				values = append(values, r.Value("mean exec s", row.Labels...))
			}
			return metrics.Bars(fmt.Sprintf("mean exec, 4×%s", bench), names, values, chartWidth)
		},
	}
}

// fig8 reproduces Fig. 8: four concurrent Grep jobs; fig9 reproduces
// Fig. 9: four concurrent InvertedIndex jobs.
var (
	fig8 = multiJob(8, "grep", 40)
	fig9 = multiJob(9, "inverted-index", 40)
)
