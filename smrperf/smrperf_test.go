package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"smapreduce/internal/arrival"
	"smapreduce/internal/fleet"
)

// fleetStream drains cluster i's arrival stream for a fleet seed.
func fleetStream(t *testing.T, seed uint64, i int) []string {
	t.Helper()
	src, err := arrival.New(fleetArrivals(), arrival.RNG(fleet.ClusterSeed(seed, i)))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for {
		spec, at, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%s %s %g@%g", spec.Name, spec.Profile.Name, spec.InputMB, at))
	}
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	cfgA, specsA := fig3Inputs(7)
	cfgB, specsB := fig3Inputs(7)
	if !reflect.DeepEqual(cfgA, cfgB) || !reflect.DeepEqual(specsA, specsB) {
		t.Error("fig3-matrix inputs differ for one seed")
	}
	if cfgC, _ := fig3Inputs(8); cfgC.Seed == cfgA.Seed {
		t.Error("fig3-matrix inputs ignore the seed")
	}

	if !bytes.Equal(servedScenario(7), servedScenario(7)) {
		t.Error("served-traced scenario differs for one seed")
	}
	if bytes.Equal(servedScenario(7), servedScenario(8)) {
		t.Error("served-traced scenario ignores the seed")
	}

	for i := 0; i < 4; i++ {
		a, b := fleetStream(t, 7, i), fleetStream(t, 7, i)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("tenant-fleet cluster %d: arrival stream not reproducible (%d vs %d jobs)", i, len(a), len(b))
		}
	}
	if reflect.DeepEqual(fleetStream(t, 7, 0), fleetStream(t, 8, 0)) {
		t.Error("tenant-fleet arrival stream ignores the seed")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestWorkloadsSmoke runs every workload once untraced and once traced,
// then its census, checking the output digests.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			chk := &checker{golden: goldenDigest(w.name, goldenSeed)}
			inst, _ := setUp(w, goldenSeed, chk)
			if inst == nil {
				t.Fatal(chk.errs)
			}
			defer closeInstance(inst, chk)
			p := newProbe()
			runPhase(inst, phaseOpts{minIters: 1}, p, chk)
			if err := inst.census(newProbe()); err != nil {
				t.Error(err)
			}
			if chk.failed > 0 || chk.attempted != 2 {
				t.Fatalf("%d of %d operations failed: %v", chk.failed, chk.attempted, chk.errs)
			}
			if p.counts["runs"] == 0 {
				t.Error("traced iteration counted no runs")
			}
		})
	}
}

// TestRunPrintsEveryMetric checks the command's output contract on the
// quickest workload: one line per metric, then the JSON result.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "served-traced", "--seconds", "0", "--trace", tc.trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 || len(res.Metrics) != len(tc.defs) {
			t.Errorf("--trace %s: result %+v", tc.trace, res)
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s missing or unit %q", tc.trace, d.name, m.Unit)
			}
			if !strings.Contains(out.String(), "\n"+d.name+" ") {
				t.Errorf("--trace %s: no text line for %s", tc.trace, d.name)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig3-matrix", "--trace", "2"},
		{"--workload", "fig3-matrix", "--seconds", "-1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"smapreduce/internal/mr.(*Cluster).commitMap": "mr",
		"smapreduce/internal/serve/ledger.MerkleRoot": "serve",
		"smapreduce/internal/sim.(*Clock).Step.func1": "sim",
		"runtime.mallocgc":                            "",
		"main.(*fig3Matrix).iterate":                  "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	ss, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range ss {
		if s.weight <= 0 || len(s.funcs) == 0 {
			t.Fatalf("empty sample %+v", s)
		}
		found = found || stackHas(s.funcs, []string{".spin"})
	}
	if !found {
		t.Errorf("no sample of the spinning function among %d", len(ss))
	}
}
