package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
)

// renderCapacityLog prints a capacity decision log in full: every
// decision's time and total, then each snapshot row and each
// allocation row, floats in their exact shortest form.
func renderCapacityLog(log []mr.CapacityDecision) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, d := range log {
		fmt.Fprintf(&b, "t=%s total=%d\n", g(d.At), d.Total)
		for _, s := range d.Tenants {
			fmt.Fprintf(&b, "  snap %s active=%d running=%d pending=%d demand=%d cap=%d\n",
				s.Tenant, s.ActiveJobs, s.RunningTasks, s.PendingTasks, s.Demand, s.Cap)
		}
		for _, a := range d.Allocs {
			fmt.Fprintf(&b, "  alloc %s cap=%d share=%s reason=%s\n", a.Tenant, a.TaskCap, g(a.Share), a.Reason)
		}
	}
	return b.String()
}

// TestCapacityLogGolden pins the whole capacity decision log of one
// seeded, oversubscribed fair-share tenant cluster — slack ticks,
// water-fill ticks and runs of unchanged decisions — against a golden
// recorded before the log's rows moved into shared per-run arenas.
func TestCapacityLogGolden(t *testing.T) {
	cfg := mr.DefaultConfig()
	cfg.Workers = 4
	cfg.Net.Nodes = 4
	res, err := Run(EngineFairShare, Options{
		Cluster:  cfg,
		Arrivals: tenantArrivals(cfg.Seed, 3),
		Tenants:  []policy.Tenant{{Name: "analytics", Weight: 2}, {Name: "etl"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "capacity-log.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCapacityLog(res.Capacity); got != string(want) {
		t.Errorf("capacity decision log differs from testdata/capacity-log.golden (%d decisions)", len(res.Capacity))
	}
}
