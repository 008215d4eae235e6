package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"smapreduce/internal/core"
)

// testCfg runs the paper-scale configuration: the slot manager needs
// jobs long enough to adapt, so the qualitative shapes the assertions
// check only exist at full scale. Each figure test runs in parallel and
// the whole file finishes in well under a minute.
func testCfg() Config {
	return Default()
}

// shape marks a full-scale figure test: parallel, skipped under -short.
func shape(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale figure reproduction skipped in -short mode")
	}
	t.Parallel()
}

// run runs an experiment and fails the test on error.
func run(t *testing.T, e *Experiment, cfg Config) *Result {
	t.Helper()
	r, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// engineValue reads a metric of the row labelled by prefix and engine.
func engineValue(r *Result, metric string, engine core.Engine, prefix ...string) float64 {
	return r.Value(metric, append(prefix, engine.String())...)
}

func TestDefaultNormalize(t *testing.T) {
	c := Config{}.Normalize()
	d := Default()
	d.Trials = 1 // Normalize fills the trial count too
	if c != d {
		t.Fatalf("Normalize() = %+v, want %+v", c, d)
	}
	custom := Config{Scale: 0.5}.Normalize()
	if custom.Scale != 0.5 || custom.Workers != d.Workers {
		t.Fatalf("partial Normalize wrong: %+v", custom)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Scale: -1},
		{Scale: math.Inf(1)},
		{Scale: math.NaN()},
		{Workers: -3},
		{Reduces: -1},
	} {
		if _, err := fig8.Run(cfg); err == nil {
			t.Errorf("%+v: ran", cfg)
		}
	}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	figs := 0
	for _, e := range Registry {
		if seen[e.Slug] {
			t.Errorf("duplicate slug %s", e.Slug)
		}
		seen[e.Slug] = true
		if e.Figure != 0 {
			figs++
		}
	}
	if len(Registry) != 22 || figs != 8 {
		t.Errorf("registry has %d experiments, %d figures; want 22 and 8", len(Registry), figs)
	}
}

func TestFigure1Shapes(t *testing.T) {
	shape(t)
	r := run(t, fig1, testCfg())
	if len(r.Rows) != 3*10 {
		t.Fatalf("rows = %d, want 30", len(r.Rows))
	}
	// Every curve rises from 1 slot to its peak and falls after it.
	for _, bench := range []string{"terasort", "term-vector", "grep"} {
		peak := fig1Peak(r, bench)
		if peak <= 1 || peak >= 10 {
			t.Fatalf("%s peak = %d, want interior peak", bench, peak)
		}
		at := func(slots int) float64 { return r.Value("throughput MB/s", bench, strconv.Itoa(slots)) }
		if at(1) >= at(peak) {
			t.Errorf("%s: no rise before peak (%v vs %v)", bench, at(1), at(peak))
		}
		if at(10) >= at(peak) {
			t.Errorf("%s: no fall after peak (%v vs %v)", bench, at(10), at(peak))
		}
	}
	// §II-B: map-heavy jobs thrash later than reduce-heavy ones.
	if fig1Peak(r, "grep") <= fig1Peak(r, "terasort") {
		t.Errorf("grep peak %d not above terasort peak %d", fig1Peak(r, "grep"), fig1Peak(r, "terasort"))
	}
	if !strings.Contains(r.Table().String(), "Figure 1") {
		t.Error("table missing title")
	}
}

func TestFigure3Shapes(t *testing.T) {
	shape(t)
	r, err := Figure3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig3Benchmarks)*3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// SMapReduce beats both baselines on the map-heavy benchmarks.
	for _, bench := range []string{"histogram-movies", "histogram-ratings", "grep"} {
		if s := r.SpeedupOver(bench, core.EngineHadoopV1); s < 0.10 {
			t.Errorf("%s vs HadoopV1 speedup %.2f, want > 0.10", bench, s)
		}
		if s := r.SpeedupOver(bench, core.EngineYARN); s < 0.05 {
			t.Errorf("%s vs YARN speedup %.2f, want > 0.05", bench, s)
		}
	}
	// Terasort is the exception: within ±10% of HadoopV1 (paper: slight
	// regression, negligible overhead).
	if s := r.SpeedupOver("terasort", core.EngineHadoopV1); math.Abs(s) > 0.10 {
		t.Errorf("terasort speedup %.2f, want ≈0", s)
	}
	// Map-heavy gains exceed reduce-heavy gains (paper §V-A).
	if r.SpeedupOver("grep", core.EngineHadoopV1) <= r.SpeedupOver("terasort", core.EngineHadoopV1) {
		t.Error("map-heavy gain not above reduce-heavy gain")
	}
	// Sanity on every row.
	for _, row := range r.Rows {
		if row.MapTime <= 0 || row.ExecTime <= 0 || row.ExecTime < row.MapTime {
			t.Errorf("implausible row %+v", row)
		}
	}
}

func TestFigure4Shapes(t *testing.T) {
	shape(t)
	r := run(t, fig4, testCfg())
	barrier := map[string]float64{}
	for _, row := range r.Rows {
		eng, pts := row.Labels[0], row.Curve.Points()
		if len(pts) == 0 {
			t.Fatalf("no curve for %s", eng)
		}
		if pts[len(pts)-1].V != 200 {
			t.Errorf("%s final progress %v, want 200", eng, pts[len(pts)-1].V)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].V < pts[i-1].V-1e-6 {
				t.Errorf("%s progress regressed at %d", eng, i)
			}
		}
		barrier[eng] = row.Curve.CrossingTime(100)
	}
	// SMapReduce crosses the barrier (100%) first.
	if !(barrier["SMapReduce"] < barrier["HadoopV1"]) {
		t.Error("SMapReduce did not reach the barrier before HadoopV1")
	}
	if r.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFigure5Shapes(t *testing.T) {
	shape(t)
	r := run(t, fig5, testCfg())
	get := func(slots int, engine core.Engine) float64 {
		return engineValue(r, "map s", engine, strconv.Itoa(slots))
	}
	// SMapReduce rescues badly misconfigured clusters: at 1 map slot
	// its map time is far below both baselines.
	if get(1, core.EngineSMapReduce) >= 0.6*get(1, core.EngineHadoopV1) {
		t.Errorf("SMR at 1 slot (%v) not well below V1 (%v)",
			get(1, core.EngineSMapReduce), get(1, core.EngineHadoopV1))
	}
	// Baselines improve as the static config approaches their optimum.
	if get(1, core.EngineHadoopV1) <= get(6, core.EngineHadoopV1) {
		t.Error("HadoopV1 map time did not improve with more slots")
	}
	// SMapReduce stays within a modest factor of the baselines' best.
	bestV1 := math.Inf(1)
	for slots := 1; slots <= 8; slots++ {
		bestV1 = math.Min(bestV1, get(slots, core.EngineHadoopV1))
	}
	for slots := 5; slots <= 8; slots++ {
		if v := get(slots, core.EngineSMapReduce); v > 1.35*bestV1 {
			t.Errorf("SMR at %d slots (%v) too far from V1 optimum (%v)", slots, v, bestV1)
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	shape(t)
	r := run(t, fig6, testCfg())
	get := func(gb string, engine core.Engine) float64 { return engineValue(r, "MB/s", engine, gb) }
	// Advantage over HadoopV1 grows with input size.
	first := get("50", core.EngineSMapReduce) / get("50", core.EngineHadoopV1)
	last := get("250", core.EngineSMapReduce) / get("250", core.EngineHadoopV1)
	if last <= first {
		t.Errorf("SMR/V1 ratio did not grow: %.2f → %.2f", first, last)
	}
	if last < 1.3 {
		t.Errorf("SMR/V1 at largest input %.2f, want > 1.3", last)
	}
	// SMapReduce throughput itself grows with input size (paper: more
	// time to adapt); HadoopV1 stays roughly flat.
	if get("250", core.EngineSMapReduce) <= get("50", core.EngineSMapReduce) {
		t.Error("SMR throughput did not grow with input")
	}
	v1Spread := get("250", core.EngineHadoopV1) / get("50", core.EngineHadoopV1)
	if v1Spread > 1.25 || v1Spread < 0.75 {
		t.Errorf("HadoopV1 throughput not flat: spread %.2f", v1Spread)
	}
}

func TestFigure7Shapes(t *testing.T) {
	shape(t)
	r := run(t, fig7, testCfg())
	for _, b := range fig7Benchmarks {
		get := func(variant string) float64 { return r.Value("map s", b.bench, variant) }
		full := get("SMapReduce")
		noDet := get("SMapReduce w/o thrash detection")
		v1 := get("HadoopV1")
		yarn := get("YARN")
		if full <= 0 || noDet <= 0 || v1 <= 0 || yarn <= 0 {
			t.Fatalf("%s: missing arms", b.bench)
		}
		// The paper's headline: without detection, map time is much
		// longer than both baselines.
		if noDet <= v1 || noDet <= yarn {
			t.Errorf("%s: no-detection (%v) not worse than baselines (%v/%v)", b.bench, noDet, v1, yarn)
		}
		// Full SMapReduce beats both baselines.
		if full >= v1 || full >= yarn {
			t.Errorf("%s: full SMR (%v) not better than baselines (%v/%v)", b.bench, full, v1, yarn)
		}
		if get("SMapReduce w/o slow start") <= 0 {
			t.Errorf("%s: missing no-slow-start arm", b.bench)
		}
	}
}

func TestFigure8Shapes(t *testing.T) {
	shape(t)
	r := run(t, fig8, testCfg())
	mean := func(e core.Engine) float64 { return engineValue(r, "mean exec s", e) }
	last := func(e core.Engine) float64 { return engineValue(r, "last finish s", e) }
	smr, v1, yarn := core.EngineSMapReduce, core.EngineHadoopV1, core.EngineYARN
	// Grep multi-job: SMapReduce clearly ahead on both metrics.
	if mean(smr) >= 0.9*mean(v1) {
		t.Errorf("SMR mean %v not well below V1 %v", mean(smr), mean(v1))
	}
	if last(smr) >= 0.9*last(v1) {
		t.Errorf("SMR last %v not well below V1 %v", last(smr), last(v1))
	}
	if mean(smr) >= mean(yarn) {
		t.Errorf("SMR mean %v not below YARN %v", mean(smr), mean(yarn))
	}
	if last(v1) < mean(v1) || last(smr) < mean(smr) {
		t.Error("last finish before mean exec")
	}
}

func TestFigure9Shapes(t *testing.T) {
	shape(t)
	r := run(t, fig9, testCfg())
	mean := func(e core.Engine) float64 { return engineValue(r, "mean exec s", e) }
	last := func(e core.Engine) float64 { return engineValue(r, "last finish s", e) }
	smr, v1 := core.EngineSMapReduce, core.EngineHadoopV1
	// InvertedIndex multi-job is shuffle-bound in our substrate: we
	// assert SMapReduce stays within 10% of HadoopV1 (the paper reports
	// a win here; see EXPERIMENTS.md for the documented deviation).
	if mean(smr) > 1.10*mean(v1) {
		t.Errorf("SMR mean %v more than 10%% worse than V1 %v", mean(smr), mean(v1))
	}
	if last(smr) > 1.10*last(v1) {
		t.Errorf("SMR last %v more than 10%% worse than V1 %v", last(smr), last(v1))
	}
	if !strings.Contains(r.Table().Title, "inverted-index") {
		t.Errorf("title = %s", r.Table().Title)
	}
}

func TestTablesRender(t *testing.T) {
	cfg := Config{Scale: 0.1, Workers: 8, Reduces: 8, Seed: 2}
	out := run(t, fig8, cfg).Table().String()
	for _, want := range []string{"grep", "HadoopV1", "YARN", "SMapReduce"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTrialsAveraging(t *testing.T) {
	shape(t)
	small := Config{Scale: 0.2, Workers: 8, Reduces: 8, Seed: 3}
	one := engineValue(run(t, fig8, small), "mean exec s", core.EngineHadoopV1)
	two := small
	two.Trials = 2
	avg := engineValue(run(t, fig8, two), "mean exec s", core.EngineHadoopV1)
	if avg <= 0 {
		t.Fatal("averaged mean missing")
	}
	// Averaging over two seeds must produce a value close to, but not
	// identical with, a single trial (different seeds shift jitter).
	if one == avg {
		t.Fatal("averaging had no effect")
	}
	if avg < 0.7*one || avg > 1.3*one {
		t.Fatalf("averaged value implausible: %v vs %v", avg, one)
	}
}

// Trials average every experiment, not only the multi-row sweeps:
// Figure 1's values move with a second trial, and Figure 4, whose
// curves cannot be averaged, says it shows the first.
func TestTrialsAverageEveryExperiment(t *testing.T) {
	small := Config{Scale: 0.1, Workers: 8, Reduces: 8, Seed: 3}
	one := run(t, fig1, small)
	two := small
	two.Trials = 2
	avg := run(t, fig1, two)
	moved := 0
	for i, row := range one.Rows {
		v1, v2 := row.Values[0], avg.Rows[i].Values[0]
		if v1 != v2 {
			moved++
		}
		if v2 < 0.7*v1 || v2 > 1.3*v1 {
			t.Errorf("%v: averaged %v implausible against one trial's %v", row.Labels, v2, v1)
		}
	}
	if moved == 0 {
		t.Fatal("Figure 1 ignored -trials: every value matches a single trial")
	}
	if got := run(t, fig4, two).Table().Title; !strings.HasSuffix(got, ", trial 1 of 2") {
		t.Errorf("Figure 4 title %q does not say it shows trial 1", got)
	}
}

func TestTrialsAveragingFig6(t *testing.T) {
	shape(t)
	small := Config{Scale: 0.1, Workers: 8, Reduces: 8, Seed: 3, Trials: 2}
	r := run(t, fig6, small)
	for _, gb := range []string{"50", "250"} {
		if engineValue(r, "MB/s", core.EngineHadoopV1, gb) <= 0 {
			t.Fatalf("missing averaged value at %v GB", gb)
		}
	}
}
