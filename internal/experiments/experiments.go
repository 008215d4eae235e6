// Package experiments regenerates every figure in the paper's
// evaluation (§V) and the beyond-the-paper extras. Each experiment is
// a declaration, not a runner: a title, label and metric columns, and
// an arm builder that lists the simulations one trial runs. One Run
// executes any of them, averages every metric over trials and returns
// one generic Result, so cmd/smrbench, bench_test.go and
// EXPERIMENTS.md all draw from the same code.
//
// The paper has no numbered tables; Figures 1 and 3–9 are the entire
// quantitative evaluation (Figure 2 is the architecture diagram).
package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"smapreduce/internal/core"
	"smapreduce/internal/metrics"
	"smapreduce/internal/mr"
	"smapreduce/internal/par"
	"smapreduce/internal/puma"
)

// Config scales the experiment suite. The zero value is replaced by
// Default(): paper-shaped sizes that run in seconds of wall time.
type Config struct {
	// Scale multiplies every input size. 1.0 reproduces paper-scale
	// datasets (50–250 GB); tests use smaller values.
	Scale float64
	// Workers is the task tracker count (paper: 16).
	Workers int
	// Reduces is the reduce task count (paper: 30).
	Reduces int
	// Seed drives all stochastic components.
	Seed uint64
	// Trials averages each experiment's metrics over this many runs
	// with consecutive seeds — the paper reports "the average values of
	// the data collected from two trials" (§V). 0 or 1 runs once.
	Trials int
}

// Default returns the paper's workbench configuration.
func Default() Config {
	return Config{Scale: 1, Workers: 16, Reduces: 30, Seed: 1}
}

// Normalize fills zero fields from Default and a non-positive trial
// count with 1: the configuration Run actually executes.
func (c Config) Normalize() Config {
	d := Default()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.Reduces == 0 {
		c.Reduces = d.Reduces
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	return c
}

// validate rejects a normalised config no simulation could run, before
// any arm is built.
func (c Config) validate() error {
	switch {
	case !(c.Scale > 0) || math.IsInf(c.Scale, 1):
		return fmt.Errorf("scale %v must be positive and finite", c.Scale)
	case c.Workers <= 0:
		return fmt.Errorf("workers %d must be positive", c.Workers)
	case c.Reduces <= 0:
		return fmt.Errorf("reduces %d must be positive", c.Reduces)
	}
	return nil
}

// cluster builds the base cluster config for an experiment.
func (c Config) cluster() mr.Config {
	cfg := mr.DefaultConfig()
	cfg.Workers = c.Workers
	cfg.Net.Nodes = c.Workers
	cfg.Seed = c.Seed
	return cfg
}

// spec builds a job spec at the experiment's scale.
func (c Config) spec(bench string, gb float64) mr.JobSpec {
	return mr.JobSpec{
		Name:    bench,
		Profile: puma.MustGet(bench),
		InputMB: gb * 1024 * c.Scale,
		Reduces: c.Reduces,
	}
}

// Metric is one numeric column, read off each arm's run.
type Metric struct {
	Name string
	Of   func(*core.Result) float64
	// Hidden keeps the metric out of the rendered table; Value still
	// reads it.
	Hidden bool
}

// Arm is one simulation of an experiment: its row labels and the
// arguments of core.Run.
type Arm struct {
	Labels []string
	Engine core.Engine
	Opts   core.Options
	Jobs   []mr.JobSpec
	// Controller, when set, replaces the engine's slot policy through
	// core.RunWithController on Opts.Cluster.
	Controller mr.Controller
}

func (a Arm) run() (*core.Result, error) {
	if a.Controller == nil {
		return core.Run(a.Engine, a.Opts, a.Jobs...)
	}
	jobs, err := core.RunWithController(a.Controller, a.Opts.Cluster, a.Jobs...)
	if err != nil {
		return nil, err
	}
	return &core.Result{Engine: a.Engine, Jobs: jobs}, nil
}

// Experiment declares one figure or extra.
type Experiment struct {
	// Slug names the experiment's CSV file and benchmark.
	Slug string
	// Figure is the paper's figure number, 0 for an extra.
	Figure  int
	Title   string
	Labels  []string
	Metrics []Metric
	// Arms lists the simulations of one trial; cfg carries the trial's
	// seed.
	Arms func(cfg Config) []Arm
	// Curve, when set, records each arm's total progress curve in the
	// first trial (core.RecordProgress; arms without a Controller).
	Curve bool
	// Table, when set, renders the result instead of one row per arm.
	Table func(*Result) *metrics.Table
	// Chart, when set, renders a quick-look ASCII chart of the result.
	Chart func(*Result) string
}

// Result is an experiment's outcome: one row per arm, each metric
// averaged over the trials.
type Result struct {
	Experiment *Experiment
	Trials     int
	Rows       []Row
}

// Row is one arm's labels and averaged metric values, index-aligned
// with Experiment.Metrics.
type Row struct {
	Labels []string
	Values []float64
	// Curve is the arm's first-trial progress curve when
	// Experiment.Curve is set.
	Curve *metrics.Series
}

// Run builds the arms once per trial, with seed cfg.Seed+trial, runs
// every arm of every trial in parallel and averages each metric in
// trial order.
func (e *Experiment) Run(cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", e.Slug, err)
	}
	trials := make([][]Arm, cfg.Trials)
	for t := range trials {
		tc := cfg
		tc.Seed = cfg.Seed + uint64(t)
		tc.Trials = 1
		trials[t] = e.Arms(tc)
	}
	arms := len(trials[0])
	vals := make([][]float64, cfg.Trials*arms)
	curves := make([]*metrics.Series, arms)
	if e.Curve {
		for a := range curves {
			curves[a] = core.RecordProgress(&trials[0][a].Opts)
		}
	}
	err := par.For(len(vals), func(i int) error {
		t, a := i/arms, i%arms
		arm := trials[t][a]
		res, err := arm.run()
		if err != nil {
			return fmt.Errorf("%s %s: %w", e.Slug, strings.Join(arm.Labels, "/"), err)
		}
		v := make([]float64, len(e.Metrics))
		for m, metric := range e.Metrics {
			v[m] = metric.Of(res)
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &Result{Experiment: e, Trials: cfg.Trials, Rows: make([]Row, arms)}
	for a := range r.Rows {
		sums := make([]float64, len(e.Metrics))
		for t := 0; t < cfg.Trials; t++ {
			for m, v := range vals[t*arms+a] {
				sums[m] += v
			}
		}
		for m := range sums {
			sums[m] /= float64(cfg.Trials)
		}
		r.Rows[a] = Row{Labels: trials[0][a].Labels, Values: sums, Curve: curves[a]}
	}
	return r, nil
}

// Value returns the named metric of the row with exactly these
// labels. It panics on an unknown metric or row: every arm's labels are
// fixed by its experiment, so a miss is a caller bug.
func (r *Result) Value(metric string, labels ...string) float64 {
	for m, mm := range r.Experiment.Metrics {
		if mm.Name != metric {
			continue
		}
		for _, row := range r.Rows {
			if slices.Equal(row.Labels, labels) {
				return row.Values[m]
			}
		}
		panic(fmt.Sprintf("experiments: %s has no row %q", r.Experiment.Slug, labels))
	}
	panic(fmt.Sprintf("experiments: %s has no metric %q", r.Experiment.Slug, metric))
}

// Table renders the result: the experiment's own renderer when it has
// one, otherwise one row per arm, labels then the visible metrics.
func (r *Result) Table() *metrics.Table {
	e := r.Experiment
	if e.Table != nil {
		return e.Table(r)
	}
	cols := append([]string(nil), e.Labels...)
	for _, m := range e.Metrics {
		if !m.Hidden {
			cols = append(cols, m.Name)
		}
	}
	t := metrics.NewTable(e.Title, cols...)
	for _, row := range r.Rows {
		cells := make([]any, 0, len(cols))
		for _, l := range row.Labels {
			cells = append(cells, l)
		}
		for m, v := range row.Values {
			if !e.Metrics[m].Hidden {
				cells = append(cells, v)
			}
		}
		t.AddRowf(cells...)
	}
	return t
}

// Chart renders the experiment's chart, or "" if it has none.
func (r *Result) Chart() string {
	if r.Experiment.Chart == nil {
		return ""
	}
	return r.Experiment.Chart(r)
}

// labels formats an arm's label values.
func labels(vs ...any) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprint(v)
	}
	return out
}

// Metrics shared by most experiments: the first job's timings and the
// multi-job aggregates.
var (
	mapTime    = Metric{Name: "map s", Of: func(r *core.Result) float64 { return r.Jobs[0].MapTime() }}
	execTime   = Metric{Name: "exec s", Of: func(r *core.Result) float64 { return r.Jobs[0].ExecutionTime() }}
	throughput = Metric{Name: "MB/s", Of: func(r *core.Result) float64 { return r.Jobs[0].ThroughputMBps() }}
	meanExec   = Metric{Name: "mean exec s", Of: (*core.Result).MeanExecutionTime}
	lastFinish = Metric{Name: "last finish s", Of: (*core.Result).LastFinish}
)

// Registry lists every experiment in the order smrbench runs them: the
// paper's figures, then the extras.
var Registry = []*Experiment{
	fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
	ablationBounds, ablationSlowStart, ablationConfirmations, ablationLazyEager, ablationTailBoost,
	heterogeneous, schedulers, speculation, oversubscription, oracleGap,
	controllers, skew, traceWorkload, multiTenant,
}
