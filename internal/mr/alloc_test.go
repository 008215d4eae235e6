package mr

import (
	"math"
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

// stageAllocs stages and admits one job of inputMB on each of 20
// fresh 16-tracker clusters and returns the fewest heap allocations one
// staging made. A fresh cluster starts every staging from the same
// empty job and file registries, so their amortised growth is the same
// for both sizes instead of depending on how many jobs came before;
// the minimum drops allocations other goroutines (the GC, the race
// runtime) make between the two reads.
func stageAllocs(t *testing.T, inputMB float64) uint64 {
	t.Helper()
	fewest := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 20 {
		c := MustNewCluster(DefaultConfig())
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		j, err := c.stageJob(JobSpec{Name: "grep", Profile: puma.MustGet("grep"), InputMB: inputMB, Reduces: 30})
		if err != nil {
			t.Fatal(err)
		}
		c.jt.admit(j)
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return fewest
}

// TestStageJobAllocs pins that job staging allocates per file and per
// job, not per block or per host: the input's replica lists, the
// splits' host copies, the tasks and the by-host index each come from
// one array, so a 100 GB job (800 blocks) costs as many allocations as
// a 10 GB one (80 blocks).
func TestStageJobAllocs(t *testing.T) {
	small, large := stageAllocs(t, 10*1024), stageAllocs(t, 100*1024)
	t.Logf("allocations per staged job: %v at 10 GB, %v at 100 GB", small, large)
	if small != large {
		t.Fatalf("staging allocates %v objects at 10 GB but %v at 100 GB; want equal", small, large)
	}
}

// fixedCaps grants every tenant the same cap, appending into dst, so a
// tick over unchanged tenants allocates only what the cluster does.
type fixedCaps struct{}

func (fixedCaps) Name() string { return "fixed" }
func (fixedCaps) Allocate(now float64, total int, tenants []TenantSnapshot, dst []TenantAllocation) []TenantAllocation {
	for _, t := range tenants {
		dst = append(dst, TenantAllocation{Tenant: t.Tenant, TaskCap: 2, Share: 2 / float64(total), Reason: "fixed"})
	}
	return dst
}

// TestCapacityTickAllocs pins the capacity tick's allocation contract:
// snapshot and allocation rows are built in reused scratch, and a
// decision equal to the previous one shares its logged rows, so ticks
// over unchanged tenant state add only the log's amortised growth.
func TestCapacityTickAllocs(t *testing.T) {
	c := MustNewCluster(smallConfig())
	c.SetCapacityPolicy(fixedCaps{})
	for _, tenant := range []string{"analytics", "etl", "service"} {
		if _, err := c.Submit(tenantJob(tenant+"-job", tenant, 2048)); err != nil {
			t.Fatal(err)
		}
	}
	// The first tick applies the caps and launches work; the second
	// sees the settled state every later tick repeats.
	c.applyCapacity()
	c.applyCapacity()
	const ticks = 1000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for range ticks {
		c.applyCapacity()
	}
	runtime.ReadMemStats(&ms)
	perTick := float64(ms.Mallocs-before) / ticks
	t.Logf("%.3f allocations per unchanged capacity tick", perTick)
	if len(c.capLog) != ticks+2 {
		t.Fatalf("logged %d decisions, want %d", len(c.capLog), ticks+2)
	}
	first, last := c.capLog[1], c.capLog[ticks+1]
	if len(first.Tenants) != 3 || &first.Tenants[0] != &last.Tenants[0] || &first.Allocs[0] != &last.Allocs[0] {
		t.Fatal("unchanged decisions do not share their logged rows")
	}
	if perTick >= 0.05 {
		t.Fatalf("%.3f allocations per unchanged capacity tick, want < 0.05", perTick)
	}
}

// TestSlotChangeAllocs pins that a slot change with no sink attached
// formats nothing: note builds the event's detail and the instant's
// fields only inside the sink that reads them, so flipping a tracker's
// targets back and forth allocates nothing once its disturbance
// callback is bound.
func TestSlotChangeAllocs(t *testing.T) {
	c := MustNewCluster(smallConfig())
	tt := c.trackers[0]
	flip := func() {
		tt.setTargets(2, 3)
		tt.setTargets(3, 2)
	}
	if n := testing.AllocsPerRun(100, func() { c.Mutate(flip) }); n != 0 {
		t.Fatalf("a slot change without sinks allocates %v objects, want 0", n)
	}
}

// snapshotAllocs is a controller that measures, inside every tick,
// how many objects one Snapshot allocates.
type snapshotAllocs struct {
	ticks, busy int
	worst       float64
}

func (p *snapshotAllocs) Tick(c *Cluster) {
	p.ticks++
	var s Stats
	p.worst = max(p.worst, testing.AllocsPerRun(20, func() { s = c.Snapshot() }))
	if s.RunningMaps > 0 && s.FrontRunningReduces > 0 {
		p.busy++
	}
}

// TestSnapshotAllocFree pins that a controller's inputs cost no
// allocation: Stats is a flat value and the in-flight sums reuse the
// trackers' scratch, so Snapshot allocates nothing on a running
// cluster.
func TestSnapshotAllocFree(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = Dynamic
	c := MustNewCluster(cfg)
	probe := &snapshotAllocs{}
	if err := c.SetController(probe); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(terasortJob(2048)); err != nil {
		t.Fatal(err)
	}
	if probe.busy == 0 {
		t.Fatalf("none of %d ticks saw running maps and reduces", probe.ticks)
	}
	if probe.worst != 0 {
		t.Fatalf("Snapshot allocates %v objects inside a controller tick, want 0", probe.worst)
	}
}
