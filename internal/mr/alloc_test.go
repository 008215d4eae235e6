package mr

import (
	"os"
	"runtime"
	"testing"

	"smapreduce/internal/netsim"
	"smapreduce/internal/puma"
)

// shuffleHeavyRun runs one terasort job on st's substrate and returns
// the heap allocations the run made and the shuffle flows it started.
// The job is shaped for fetch churn: one map slot per tracker makes
// each node commit its outputs one at a time, and every reducer holds
// a slot from slow-start on, so almost every commit opens a fresh
// fetch on every reducer (flows ≈ maps × reducers × 7/8).
func shuffleHeavyRun(t *testing.T, st *SimState) (allocs uint64, flows int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Net.Nodes = 8
	cfg.MapSlots = 1
	cfg.ReduceSlots = 16
	cfg.MaxReduceSlots = 16
	c, err := NewClusterReusing(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	c.fabric.SetFlowObserver(func(f *netsim.Flow) {
		if f.Userdata.(*fluidOp).id.kind == opShuffle {
			flows++
		}
	}, nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	if _, err := c.Run(JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 16 * 1024, Reduces: 128}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before, flows
}

// TestShuffleFetchAllocFree guards the steady-state shuffle path:
// starting, topping up and retiring a fetch allocates nothing, and on
// recycled substrate neither do the task phases' ops. What a run still
// allocates is set-up — the cluster, the job's task arrays, the input's
// block placement (a few allocations per map) — well under 0.1 per
// shuffle flow for this job. One label, closure or list per fetch
// would put the figure at 1 or more.
func TestShuffleFetchAllocFree(t *testing.T) {
	if os.Getenv("SMR_REFERENCE") == "1" {
		t.Skip("pooling and reuse disabled via SMR_REFERENCE: every op and flow is a fresh allocation")
	}
	st := NewSimState()
	shuffleHeavyRun(t, st) // warm the substrate: clock arena, flow and op pools
	allocs, flows := shuffleHeavyRun(t, st)
	if flows < 10000 {
		t.Fatalf("only %d shuffle flows; the job no longer exercises the fetch path", flows)
	}
	perFlow := float64(allocs) / float64(flows)
	t.Logf("%d allocations over %d shuffle flows: %.3f per flow", allocs, flows, perFlow)
	if perFlow > 0.1 {
		t.Fatalf("%.3f allocations per shuffle flow, want <= 0.1", perFlow)
	}
}
