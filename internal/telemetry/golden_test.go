package telemetry_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
	"smapreduce/internal/puma"
	"smapreduce/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenRuns are the collector captures pinned byte for byte: a small
// SMapReduce run, and an open-arrival FairShare run whose tenants first
// submit after ticks have run, so their series register mid-run and
// their early rows render as null (JSONL) and NaN (CSV).
var goldenRuns = []struct {
	name string
	run  func(t *testing.T, col *telemetry.Collector)
}{
	{"smapreduce", func(t *testing.T, col *telemetry.Collector) {
		cfg := mr.DefaultConfig()
		cfg.Workers, cfg.Net.Nodes = 2, 2
		spec := mr.JobSpec{Name: "sort", Profile: puma.MustGet("terasort"), InputMB: 512, Reduces: 2}
		if _, err := core.Run(core.EngineSMapReduce, core.Options{Cluster: cfg, Telemetry: col}, spec); err != nil {
			t.Fatal(err)
		}
	}},
	{"fairshare-arrivals", func(t *testing.T, col *telemetry.Collector) {
		cfg := mr.DefaultConfig()
		cfg.Workers, cfg.Net.Nodes = 2, 2
		src, err := arrival.New(arrival.Config{
			Horizon: 60,
			Tenants: []arrival.Tenant{
				{Name: "analytics", Benchmarks: []string{"grep"}, MeanInterarrival: 10,
					InputMBMin: 256, InputMBMax: 256, Reduces: 2, Service: true, MaxJobs: 2},
				{Name: "etl", Benchmarks: []string{"wordcount"}, MeanInterarrival: 25,
					InputMBMin: 256, InputMBMax: 256, Reduces: 2, Service: true, MaxJobs: 1},
			},
		}, arrival.RNG(cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(core.EngineFairShare, core.Options{
			Cluster:   cfg,
			Telemetry: col,
			Arrivals:  src,
			Tenants:   []policy.Tenant{{Name: "analytics", Weight: 2}, {Name: "etl"}},
		}); err != nil {
			t.Fatal(err)
		}
	}},
}

// exports renders every collector export TestCollectorGolden pins,
// keyed by golden file extension.
func exports(t *testing.T, col *telemetry.Collector) map[string][]byte {
	t.Helper()
	var jsonl, csv, prom bytes.Buffer
	if err := col.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := col.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	page := prom.String()
	const buildInfo = 3 // # HELP, # TYPE and the gauge line
	lines := strings.SplitAfterN(page, "\n", buildInfo+1)
	if len(lines) <= buildInfo || !strings.HasPrefix(lines[2], "smr_build_info{") {
		t.Fatalf("Prometheus page does not open with the build-info gauge:\n%s", page)
	}
	return map[string][]byte{
		"jsonl":    jsonl.Bytes(),
		"csv":      csv.Bytes(),
		"prom":     []byte(lines[buildInfo]),
		"timeline": []byte(col.TimelineChart()),
	}
}

// TestCollectorGolden pins every collector export of goldenRuns: the
// JSONL and CSV dumps, the Prometheus page (minus its build-info
// gauge, which names the toolchain) and the timeline chart. Each run
// is also replayed on one collector Reset between runs, which must
// export the same bytes. Rewrite the goldens with
// go test ./internal/telemetry -run TestCollectorGolden -update only
// when a change is meant to move them.
func TestCollectorGolden(t *testing.T) {
	reused := telemetry.NewCollector()
	for _, gr := range goldenRuns {
		t.Run(gr.name, func(t *testing.T) {
			col := telemetry.NewCollector()
			gr.run(t, col)
			got := exports(t, col)
			if gr.name == "fairshare-arrivals" && !bytes.Contains(got["jsonl"], []byte(`"series":"tenant/etl/task-cap","t":2,"v":null}`)) {
				t.Error("late tenant series not backfilled with null from the first tick")
			}
			reused.Reset()
			gr.run(t, reused)
			for ext, b := range exports(t, reused) {
				if !bytes.Equal(b, got[ext]) {
					t.Errorf("%s export of a reset collector differs from a fresh one", ext)
				}
			}
			for ext, b := range got {
				path := filepath.Join("testdata", gr.name+"."+ext)
				if *update {
					if err := os.WriteFile(path, b, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, want) {
					t.Errorf("%s differs from the golden (%d bytes, want %d)", path, len(b), len(want))
				}
			}
		})
	}
}
