package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFilePicksFormatByExtension pins the shared CLI export
// helper: .csv (any case) means CSV, everything else means JSONL.
func TestWriteFilePicksFormatByExtension(t *testing.T) {
	col := NewCollector()
	col.Register("v", func() float64 { return 7 })
	col.Tick(1)

	dir := t.TempDir()
	cases := []struct {
		file string
		csv  bool
	}{
		{"out.csv", true},
		{"out.CSV", true},
		{"out.Csv", true},
		{"out.jsonl", false},
		{"out.json", false},
		{"out", false},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.file)
		if err := WriteFile(col, path); err != nil {
			t.Fatalf("WriteFile(%s): %v", tc.file, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := string(data)
		if tc.csv {
			if got != "t,v\n1,7\n" {
				t.Errorf("%s: CSV = %q", tc.file, got)
			}
		} else if !strings.Contains(got, `{"series":"v"`) {
			t.Errorf("%s: not JSONL: %q", tc.file, got)
		}
	}
}

func TestWriteFileBadPath(t *testing.T) {
	col := NewCollector()
	if err := WriteFile(col, filepath.Join(t.TempDir(), "no", "such", "dir.csv")); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}

// TestWritePrometheus pins the /metrics rendering: one gauge per
// series, smr_ prefix, sanitised names, newest sample as the value.
func TestWritePrometheus(t *testing.T) {
	col := NewCollector()
	vals := map[string]float64{"slotmgr/map-target": 3, "cluster.running maps": 12}
	col.Register("slotmgr/map-target", func() float64 { return vals["slotmgr/map-target"] })
	col.Register("cluster.running maps", func() float64 { return vals["cluster.running maps"] })
	col.Tick(1)
	vals["slotmgr/map-target"] = 5
	col.Tick(2)

	var b strings.Builder
	if err := col.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE smr_slotmgr_map_target gauge\nsmr_slotmgr_map_target 5\n",
		"# TYPE smr_cluster_running_maps gauge\nsmr_cluster_running_maps 12\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusNonFinite(t *testing.T) {
	col := NewCollector()
	col.Register("f", func() float64 { return math.NaN() })
	col.Register("g", func() float64 { return math.Inf(1) })
	col.Tick(1)
	var b strings.Builder
	if err := col.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "smr_f NaN\n") || !strings.Contains(b.String(), "smr_g +Inf\n") {
		t.Errorf("non-finite rendering wrong:\n%s", b.String())
	}
}

// TestCollectorConcurrentTickAndExport exercises the serve-mode access
// pattern under the race detector: one goroutine ticking, another
// reading every export.
func TestCollectorConcurrentTickAndExport(t *testing.T) {
	col := NewCollector()
	col.rows = 64 // the 200 ticks wrap the ring under concurrent reads
	col.Register("v", func() float64 { return 1 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			col.Tick(float64(i))
			if i == 100 {
				col.Register("late", func() float64 { return 2 })
			}
		}
	}()
	var sink strings.Builder
	for i := 0; i < 50; i++ {
		col.Table()
		_ = col.WritePrometheus(&sink)
		_ = col.WriteJSONL(&sink)
		col.Names()
		col.Ticks()
	}
	<-done
}

// TestWritePrometheusBuildInfo pins the smr_build_info metric and the
// HELP/TYPE metadata lines the satellite adds.
func TestWritePrometheusBuildInfo(t *testing.T) {
	col := NewCollector()
	col.Register("v", func() float64 { return 7 })
	col.Tick(1)
	var b strings.Builder
	if err := col.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP smr_build_info ",
		"# TYPE smr_build_info gauge\n",
		"smr_build_info{version=",
		"goos=",
		"# HELP smr_v ",
		"# TYPE smr_v gauge\nsmr_v 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if BuildVersion() == "" {
		t.Error("BuildVersion is empty")
	}
}
