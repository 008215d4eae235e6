package telemetry_test

import (
	"strings"
	"testing"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/telemetry"
)

func TestTimelineCaptureAndChart(t *testing.T) {
	cluster := mr.DefaultConfig()
	cluster.Workers, cluster.Net.Nodes = 8, 8
	col := telemetry.NewCollector(0)
	spec := mr.JobSpec{Name: "histogram-ratings", Profile: puma.MustGet("histogram-ratings"), InputMB: 20 * 1024 * 0.05, Reduces: 8}
	if _, err := core.Run(core.EngineSMapReduce, core.Options{Cluster: cluster, Telemetry: col}, spec); err != nil {
		t.Fatal(err)
	}
	mt := col.Get("slotmgr/map-target")
	if mt == nil || mt.Len() == 0 {
		t.Fatal("slotmgr/map-target series missing or empty")
	}
	for _, p := range mt.Points() {
		// 0 before the manager's first tick, then within [1, max].
		if p.V < 0 || p.V > float64(cluster.MaxMapSlots) {
			t.Fatalf("map target %v outside [0,%d]", p.V, cluster.MaxMapSlots)
		}
	}
	running := col.Get("cluster/running-maps")
	if running == nil || running.Len() != mt.Len() {
		t.Fatalf("cluster/running-maps misaligned: %v vs %v", running.Len(), mt.Len())
	}
	peak := 0.0
	for _, p := range running.Points() {
		if p.V > peak {
			peak = p.V
		}
	}
	if peak <= 0 {
		t.Fatal("running maps never rose above zero")
	}
	out := col.TimelineChart()
	for _, want := range []string{"slotmgr/map-target", "cluster/running-maps", "slotmgr/balance-f"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline chart missing %s:\n%s", want, out)
		}
	}
	if tbl := col.Table(); len(tbl.Rows) != mt.Len() {
		t.Fatalf("timeline table rows = %d, want %d", len(tbl.Rows), mt.Len())
	}
}
