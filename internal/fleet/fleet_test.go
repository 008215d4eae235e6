package fleet

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
	"smapreduce/internal/stats"
)

// testSpecs is a small deterministic workload so the suite stays fast
// under -race: one modest job per cluster, profile rotated by index.
func testSpecs(i int, rng *sim.Rand) []mr.JobSpec {
	names := []string{"grep", "terasort"}
	return []mr.JobSpec{{
		Name:    fmt.Sprintf("c%d", i),
		Profile: puma.MustGet(names[i%len(names)]),
		InputMB: 256 + float64(rng.Intn(3))*128,
		Reduces: 4,
	}}
}

func testConfig(clusters, workers int) Config {
	base := DefaultClusterConfig()
	base.Workers = 4
	return Config{
		Clusters: clusters,
		Workers:  workers,
		Seed:     0xfee7,
		Engine:   core.EngineSMapReduce,
		Cluster:  base,
		Specs:    testSpecs,
	}
}

// artifacts runs a fleet and returns the per-cluster byte artefacts
// (event-log JSONL + Stats + job milestones, indexed by cluster) plus
// the merged Result.
func artifacts(t *testing.T, cfg Config) ([]string, *Result) {
	t.Helper()
	out := make([]string, cfg.Clusters)
	cfg.CollectEvents = true
	cfg.PerCluster = func(o ClusterOut) { out[o.Index] = clusterArtifact(o) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

// clusterArtifact renders one cluster's byte artefact: event-log JSONL,
// Stats, job milestones and seed.
func clusterArtifact(o ClusterOut) string {
	var b strings.Builder
	if err := o.Result.Events.WriteJSONL(&b); err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "%+v\n", o.Result.Cluster.Snapshot())
	for _, j := range o.Result.Jobs {
		fmt.Fprintf(&b, "%s %v %v %v %v\n", j.Spec.Name, j.Submitted, j.Started, j.BarrierAt, j.FinishedAt)
	}
	fmt.Fprintf(&b, "seed %#x\n", o.Seed)
	return b.String()
}

// mergedBits captures every merged scalar bit-exactly for comparison
// across worker counts.
func mergedBits(r *Result) string {
	f := func(v float64) uint64 { return math.Float64bits(v) }
	return fmt.Sprintf("%d %d %d %x %x %x %x %x %x %x %x %x %x %s %s",
		r.Jobs, r.Completed, r.Decisions,
		f(r.Makespan.Sum()), f(r.Makespan.Min()), f(r.Makespan.Max()),
		f(r.JobExec.Sum()), f(r.JobExec.Min()), f(r.JobExec.Max()),
		f(r.MapTime.Sum()), f(r.ReduceTime.Sum()),
		f(r.MakespanHist.Mean()), f(r.JobExecHist.Mean()),
		r.MakespanHist, r.JobExecHist)
}

// TestFleetDeterminismAcrossWorkerCounts is the tentpole invariant: a
// given fleet seed produces byte-identical per-cluster event logs,
// Stats and merged totals regardless of worker count or scheduling
// order — workers=1 ≡ workers=N ≡ workers=GOMAXPROCS.
func TestFleetDeterminismAcrossWorkerCounts(t *testing.T) {
	const clusters = 12
	refOut, refRes := artifacts(t, testConfig(clusters, 1))
	counts := []int{4, runtime.GOMAXPROCS(0)}
	for _, w := range counts {
		out, res := artifacts(t, testConfig(clusters, w))
		for i := range refOut {
			if out[i] != refOut[i] {
				t.Fatalf("workers=%d: cluster %d artefacts diverge from workers=1 (%d vs %d bytes)",
					w, i, len(out[i]), len(refOut[i]))
			}
		}
		if got, want := mergedBits(res), mergedBits(refRes); got != want {
			t.Fatalf("workers=%d: merged result diverges from workers=1:\n%s\n%s", w, got, want)
		}
		if res.Workers != min(w, clusters) {
			t.Fatalf("Workers = %d, want %d", res.Workers, min(w, clusters))
		}
	}
}

// testArrivals builds cluster i's open arrival stream: two tenants
// with Poisson arrivals (one diurnal), pure in the provided rng stream.
func testArrivals(i int, rng *sim.Rand) mr.ArrivalSource {
	src, err := arrival.New(arrival.Config{
		Horizon:       400,
		Diurnal:       0.4,
		DiurnalPeriod: 300,
		Tenants: []arrival.Tenant{
			{Name: "analytics", Benchmarks: []string{"grep", "wordcount"},
				MeanInterarrival: 120, InputMBMin: 256, InputMBMax: 512, Reduces: 4, SLOSeconds: 200},
			{Name: "etl", Benchmarks: []string{"terasort"},
				MeanInterarrival: 200, InputMBMin: 384, InputMBMax: 384, Reduces: 4},
		},
	}, rng)
	if err != nil {
		panic(err)
	}
	return src
}

// TestFleetDeterminismOpenArrivals extends the tentpole invariant to
// open-arrival multi-tenant fleets: jobs submitted mid-simulation from
// seeded arrival streams, with a shared capacity policy rebalancing
// tenant caps, must still produce byte-identical per-cluster artefacts
// at workers=1 and workers=GOMAXPROCS.
func TestFleetDeterminismOpenArrivals(t *testing.T) {
	const clusters = 8
	mk := func(workers int) Config {
		cfg := testConfig(clusters, workers)
		cfg.Engine = core.EngineFairShare
		cfg.Specs = nil
		cfg.Arrivals = testArrivals
		return cfg
	}
	refOut, refRes := artifacts(t, mk(1))
	jobs := 0
	for _, a := range refOut {
		jobs += strings.Count(a, "job-submitted")
	}
	if jobs == 0 {
		t.Fatal("open-arrival fleet submitted no jobs")
	}
	for _, w := range []int{3, runtime.GOMAXPROCS(0)} {
		out, res := artifacts(t, mk(w))
		for i := range refOut {
			if out[i] != refOut[i] {
				t.Fatalf("workers=%d: cluster %d open-arrival artefacts diverge from workers=1 (%d vs %d bytes)",
					w, i, len(out[i]), len(refOut[i]))
			}
		}
		if got, want := mergedBits(res), mergedBits(refRes); got != want {
			t.Fatalf("workers=%d: merged open-arrival result diverges:\n%s\n%s", w, got, want)
		}
	}
}

// TestFleetSharedCapacityPolicy pins the stateless-policy contract: one
// explicitly shared policy instance across all workers must match a
// fleet where the policy is attached per engine default.
func TestFleetSharedCapacityPolicy(t *testing.T) {
	p, err := policy.NewFairShare(policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(6, 3)
	cfg.Engine = core.EngineHadoopV1
	cfg.Specs = nil
	cfg.Arrivals = testArrivals
	cfg.Capacity = p
	shared, _ := artifacts(t, cfg)

	cfg2 := testConfig(6, 1)
	cfg2.Engine = core.EngineFairShare
	cfg2.Specs = nil
	cfg2.Arrivals = testArrivals
	perRun, _ := artifacts(t, cfg2)
	for i := range shared {
		if shared[i] != perRun[i] {
			t.Fatalf("cluster %d: shared policy instance diverges from per-run instances", i)
		}
	}
}

// TestFleetReuseDifferential pins substrate reuse against fresh
// substrate: recycling a worker's arenas/fabrics across clusters must
// not change a single byte of any cluster's output. The fresh side runs
// each cluster on a shard without a SimState, so core.Run builds new
// substrate for it while every other path stays in the default mode
// (the reference differential covers reuse only together with the
// heap-only clock, full resolve and no pooling).
func TestFleetReuseDifferential(t *testing.T) {
	cfg := testConfig(8, 3)
	reused, _ := artifacts(t, cfg)

	fresh := make([]string, cfg.Clusters)
	cfg.CollectEvents = true
	cfg.PerCluster = func(o ClusterOut) { fresh[o.Index] = clusterArtifact(o) }
	for i := range fresh {
		sh := &shard{
			makespanHist: stats.NewHistogram(0, DefaultHistMax, DefaultHistBuckets),
			jobExecHist:  stats.NewHistogram(0, DefaultHistMax, DefaultHistBuckets),
		}
		if err := sh.runOne(&cfg, cfg.Cluster, cfg.Specs, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := range fresh {
		if reused[i] != fresh[i] {
			t.Fatalf("cluster %d: reused-substrate artefacts diverge from fresh-substrate run", i)
		}
	}
}

// TestFleetSeedSensitivity guards against a degenerate seed plan: a
// different fleet seed must actually change per-cluster outputs.
func TestFleetSeedSensitivity(t *testing.T) {
	cfg := testConfig(3, 2)
	a, _ := artifacts(t, cfg)
	cfg.Seed++
	b, _ := artifacts(t, cfg)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("changing the fleet seed changed no cluster's artefacts")
	}
	if ClusterSeed(1, 0) == ClusterSeed(1, 1) || ClusterSeed(1, 0) == ClusterSeed(2, 0) {
		t.Fatal("ClusterSeed collisions across index/seed")
	}
}

// TestFleetMergedStats sanity-checks the merged accumulators against
// the per-cluster artefact stream.
func TestFleetMergedStats(t *testing.T) {
	cfg := testConfig(6, 2)
	var makespans []float64
	var mu chan struct{} // buffered-1 channel as a mutex without sync import
	mu = make(chan struct{}, 1)
	cfg.PerCluster = func(o ClusterOut) {
		mu <- struct{}{}
		makespans = append(makespans, o.Result.LastFinish())
		<-mu
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 6 || res.Makespan.N() != 6 || res.MakespanHist.N() != 6 {
		t.Fatalf("merged counts: clusters=%d acc=%d hist=%d", res.Clusters, res.Makespan.N(), res.MakespanHist.N())
	}
	if res.Jobs != 6 || res.Completed != 6 {
		t.Fatalf("jobs=%d completed=%d, want 6/6", res.Jobs, res.Completed)
	}
	if res.Decisions == 0 {
		t.Fatal("SMapReduce fleet recorded no slot decisions")
	}
	var want stats.Acc
	for _, m := range makespans {
		want.Add(m)
	}
	if math.Float64bits(want.Sum()) != math.Float64bits(res.Makespan.Sum()) {
		t.Fatalf("merged makespan sum %v != per-cluster sum %v", res.Makespan.Sum(), want.Sum())
	}
	if res.MapTime.N() == 0 || res.ReduceTime.N() == 0 || res.JobExec.Mean() <= 0 {
		t.Fatalf("phase accumulators empty: map=%d reduce=%d exec=%v",
			res.MapTime.N(), res.ReduceTime.N(), res.JobExec.Mean())
	}
	if s := res.Summary(); !strings.Contains(s, "6 clusters") || !strings.Contains(s, "makespan") {
		t.Fatalf("Summary missing fields:\n%s", s)
	}
}

// TestFleetDefaults exercises the default cluster config, spec
// generator and worker count.
func TestFleetDefaults(t *testing.T) {
	if testing.Short() {
		// Default specs run up to 2 GB jobs; keep them out of -short.
		t.Skip("default-workload fleet is slow for -short")
	}
	res, err := Run(Config{Clusters: 3, Seed: 9, Engine: core.EngineHadoopV1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs < 3 {
		t.Fatalf("default specs produced %d jobs for 3 clusters", res.Jobs)
	}
	if res.Decisions != 0 {
		t.Fatal("HadoopV1 fleet recorded slot decisions")
	}
}

func TestFleetErrors(t *testing.T) {
	if _, err := Run(Config{Clusters: 0}); err == nil {
		t.Fatal("Clusters=0 did not error")
	}
	// An invalid engine fails inside core.Run; the lowest-index cluster
	// error must surface with fleet context.
	cfg := testConfig(3, 2)
	cfg.Engine = core.Engine(99)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "fleet: cluster 0") {
		t.Fatalf("engine error not wrapped with fleet context: %v", err)
	}
	// A broken per-cluster config likewise.
	cfg = testConfig(2, 1)
	cfg.Cluster.Workers = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid cluster config did not error")
	}
}

func TestDefaultSpecsDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		seed := ClusterSeed(77, i)
		a := DefaultSpecs(i, sim.NewRand(seed).Fork(2))
		b := DefaultSpecs(i, sim.NewRand(seed).Fork(2))
		if len(a) != len(b) {
			t.Fatalf("cluster %d: spec counts differ", i)
		}
		for k := range a {
			if a[k].Name != b[k].Name || a[k].InputMB != b[k].InputMB || a[k].SubmitAt != b[k].SubmitAt {
				t.Fatalf("cluster %d spec %d differs between identical streams", i, k)
			}
			if err := a[k].Validate(); err != nil {
				t.Fatalf("cluster %d spec %d invalid: %v", i, k, err)
			}
		}
	}
}
