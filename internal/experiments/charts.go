package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smapreduce/internal/core"
	"smapreduce/internal/metrics"
	"smapreduce/internal/telemetry"
)

// Quick-look ASCII charts for the figure results, printed by
// `smrbench -charts` under each table. They are deliberately compact:
// a figure's shape should be checkable from a terminal scrollback.

const chartWidth = 40

// Chart renders each benchmark's thrashing curve as a sparkline with
// its peak slot count — the shape of Fig. 1 at a glance.
func (r *Fig1Result) Chart() string {
	var b strings.Builder
	order := []string{}
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Benchmark] {
			seen[p.Benchmark] = true
			order = append(order, p.Benchmark)
		}
	}
	for _, bench := range order {
		var pts []metrics.Point
		for _, p := range r.Points {
			if p.Benchmark == bench {
				pts = append(pts, metrics.Point{T: float64(p.MapSlots), V: p.ThroughputMBs})
			}
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
		fmt.Fprintf(&b, "%-12s %s  peak at %d slots\n",
			bench, metrics.Sparkline(pts, chartWidth), r.Peak(bench))
	}
	return b.String()
}

// Chart renders per-benchmark execution-time bars for the three
// engines — Fig. 3's stacked bars flattened to totals.
func (r *Fig3Result) Chart() string {
	var b strings.Builder
	for _, bench := range Fig3Benchmarks {
		labels := make([]string, 0, 3)
		values := make([]float64, 0, 3)
		for _, engine := range core.Engines() {
			if row, ok := r.Get(bench, engine); ok {
				labels = append(labels, engine.String())
				values = append(values, row.ExecTime)
			}
		}
		if len(values) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s\n%s", bench, metrics.Bars("", labels, values, chartWidth))
	}
	return b.String()
}

// Chart renders the three progress curves as sparklines — Fig. 4.
func (r *Fig4Result) Chart() string {
	var b strings.Builder
	for _, engine := range []string{"HadoopV1", "YARN", "SMapReduce"} {
		pts := r.Curves[engine]
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %s  barrier at %.0f s\n",
			engine, metrics.Sparkline(pts, chartWidth), r.CrossingTime(engine, 100))
	}
	return b.String()
}

// Chart renders throughput-vs-size bars per engine — Fig. 6.
func (r *Fig6Result) Chart() string {
	var b strings.Builder
	for _, engine := range core.Engines() {
		var pts []metrics.Point
		for _, gb := range []float64{50, 100, 150, 200, 250} {
			pts = append(pts, metrics.Point{T: gb, V: r.Get(gb, engine)})
		}
		fmt.Fprintf(&b, "%-12s %s  %.0f → %.0f MB/s\n",
			engine.String(), metrics.Sparkline(pts, chartWidth), pts[0].V, pts[len(pts)-1].V)
	}
	return b.String()
}

// CaptureTimeline runs one seeded job on SMapReduce with a telemetry
// collector attached and returns the captured series: the trajectory
// view behind the paper's Figs. 5–7 time-series plots.
func CaptureTimeline(cfg Config, bench string, gb float64) (*telemetry.Collector, error) {
	cfg = cfg.normalize()
	col := telemetry.NewCollector(0)
	_, err := core.Run(core.EngineSMapReduce,
		core.Options{Cluster: cfg.cluster(), Telemetry: col},
		cfg.spec(bench, gb))
	if err != nil {
		return nil, err
	}
	return col, nil
}

// timelineSeries is the subset of captured series the timeline chart
// plots: the slot targets and occupancy of Fig. 5 and the rate/balance
// trajectories of Fig. 6, in plot order.
var timelineSeries = []string{
	"slotmgr/map-target",
	"slotmgr/reduce-target",
	"cluster/running-maps",
	"cluster/running-reduces",
	"slotmgr/in-MBps",
	"slotmgr/out-MBps",
	"slotmgr/shuffle-MBps",
	"slotmgr/balance-f",
	"net/total-MBps",
	"cluster/map-input-MB",
}

// TimelineChart regenerates the Figure-5/6-style slot and rate
// timelines from a captured collector: one sparkline per series with
// its final value. Series the collector does not carry are skipped, so
// the chart also renders baseline-engine captures.
func TimelineChart(col *telemetry.Collector) string {
	var b strings.Builder
	for _, name := range timelineSeries {
		s := col.Get(name)
		if s == nil || s.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-22s %s  last %.4g\n",
			name, metrics.Sparkline(s.Points(), chartWidth), s.Last().V)
	}
	return b.String()
}

// TimelineTable renders the captured series as one wide row-per-tick
// table (the CSV export shape).
func TimelineTable(col *telemetry.Collector) *metrics.Table {
	return col.Table()
}

// Chart renders mean-execution bars — Figs. 8/9.
func (r *MultiJobResult) Chart() string {
	labels := make([]string, 0, len(r.Rows))
	values := make([]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		labels = append(labels, row.Engine.String())
		values = append(values, row.MeanExec)
	}
	return metrics.Bars(fmt.Sprintf("mean exec, 4×%s", r.Benchmark), labels, values, chartWidth)
}
