package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"time"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/experiments"
	"smapreduce/internal/fleet"
	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
	"smapreduce/internal/stats"
	"smapreduce/internal/trace"
)

// workload is one benchmark workload: how to open a fresh instance
// from the seed, and which iteration the live-heap reading follows.
// BENCHMARK.json and README.md record why each one exists.
type workload struct {
	name string
	open func(seed uint64) (instance, error)
	// heapAt is the measured iteration after which heap_live_mb is
	// read, fixed so the reading does not depend on run length.
	heapAt int
}

// retainedFrom is the earlier heap reading serve.retained_mb_per_run
// differences against.
const retainedFrom = 1

var workloads = []*workload{
	{
		name:   "fig3-matrix",
		open:   openFig3,
		heapAt: 8,
	},
	{
		name:   "tenant-fleet",
		open:   openTenantFleet,
		heapAt: 8,
	},
	{
		name:   "served-traced",
		open:   openServed,
		heapAt: servedEpoch,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// digest accumulates simulated outputs bit-exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// countRun adds one finished simulation's public counts to p.
func countRun(p *probe, res *core.Result) {
	if p == nil {
		return
	}
	s := res.Cluster.Snapshot()
	p.add("runs", 1)
	p.add("mr.tasks", float64(s.TotalMaps+s.TotalReduces))
	p.add("sim.virtual_s", s.Now)
	p.add("core.decisions", float64(len(res.Decisions)))
	p.add("policy.decisions", float64(len(res.Capacity)))
}

// traceSpans counts the closed spans in a Chrome trace, and among them
// the shuffle flow spans.
func traceSpans(chrome []byte) (spans, shuffleFlows int, err error) {
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		return 0, 0, fmt.Errorf("trace JSON: %w", err)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
			if e.Cat == "shuffle" {
				shuffleFlows++
			}
		}
	}
	return spans, shuffleFlows, nil
}

// censusTracer records shuffle flow spans for the flow census.
func censusTracer() *trace.Tracer {
	return trace.New(trace.Options{Verbosity: trace.VerbosityFlows})
}

// addFlows adds the shuffle flow spans tr recorded, as one census run.
func addFlows(p *probe, tr *trace.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		return err
	}
	_, n, err := traceSpans(buf.Bytes())
	if err != nil {
		return err
	}
	p.add("runs", 1)
	p.add("netsim.flows", float64(n))
	return nil
}

// ---- fig3-matrix ----

// fig3Inputs is the Figure-3 matrix for a seed: the paper's 16-tracker
// cluster and one 100 GB, 30-reduce job per plotted PUMA benchmark.
func fig3Inputs(seed uint64) (mr.Config, []mr.JobSpec) {
	cfg := mr.DefaultConfig()
	cfg.Workers = 16
	cfg.Net.Nodes = 16
	cfg.Seed = seed
	specs := make([]mr.JobSpec, len(experiments.Fig3Benchmarks))
	for i, b := range experiments.Fig3Benchmarks {
		specs[i] = mr.JobSpec{Name: b, Profile: puma.MustGet(b), InputMB: 100 * 1024, Reduces: 30}
	}
	return cfg, specs
}

type fig3Matrix struct {
	cluster mr.Config
	specs   []mr.JobSpec
	st      *mr.SimState
}

func openFig3(seed uint64) (instance, error) {
	cfg, specs := fig3Inputs(seed)
	return &fig3Matrix{cluster: cfg, specs: specs, st: mr.NewSimState()}, nil
}

func (f *fig3Matrix) iterate(p *probe) (string, error) {
	d := newDigest()
	res := &experiments.Fig3Result{}
	for _, spec := range f.specs {
		for _, eng := range core.Engines() {
			r, err := f.run(eng, spec, p, nil)
			if err != nil {
				return "", fmt.Errorf("%s on %v: %w", spec.Name, eng, err)
			}
			j := r.Jobs[0]
			d.floats(j.Submitted, j.Started, j.BarrierAt, j.FinishedAt, j.ShuffledMB)
			res.Rows = append(res.Rows, experiments.Fig3Row{
				Benchmark: spec.Name, Engine: eng,
				MapTime: j.MapTime(), ReduceTime: j.ReduceTime(),
				ExecTime: j.ExecutionTime(), ThroughputMBs: j.ThroughputMBps(),
			})
			countRun(p, r)
		}
	}
	if err := checkFigure3(res); err != nil {
		return "", err
	}
	return d.sum(), nil
}

// run executes one matrix cell. With a probe and no tracer it records
// the client-side spans of core.Run: entry to Prepare (cluster build),
// Prepare to the barrier milestone (map phase), barrier to return.
func (f *fig3Matrix) run(eng core.Engine, spec mr.JobSpec, p *probe, tr *trace.Tracer) (*core.Result, error) {
	opts := core.Options{Cluster: f.cluster, Sim: f.st, Tracer: tr}
	if p == nil || tr != nil {
		return core.Run(eng, opts, spec)
	}
	var built, barrier time.Time
	opts.Prepare = func(c *mr.Cluster) error {
		built = time.Now()
		c.SetOnProgress(func(pr mr.Progress) {
			if pr.Milestone == mr.MilestoneJobBarrier && barrier.IsZero() {
				barrier = time.Now()
			}
		})
		return nil
	}
	t0 := time.Now()
	res, err := core.Run(eng, opts, spec)
	end := time.Now()
	if err == nil && !barrier.IsZero() {
		p.span("run.build", built.Sub(t0))
		p.span("run.map", barrier.Sub(built))
		p.span("run.reduce", end.Sub(barrier))
	}
	return res, err
}

func (f *fig3Matrix) census(p *probe) error {
	tr := censusTracer()
	for _, spec := range f.specs {
		for _, eng := range core.Engines() {
			tr.Reset()
			if _, err := f.run(eng, spec, nil, tr); err != nil {
				return err
			}
			if err := addFlows(p, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *fig3Matrix) close() error { return nil }

// checkFigure3 asserts the engine ordering the paper reports and the
// experiments suite pins: SMapReduce gains on the map-heavy benchmarks,
// Terasort stays level with HadoopV1, and every row is plausible.
func checkFigure3(r *experiments.Fig3Result) error {
	for _, bench := range []string{"histogram-movies", "histogram-ratings", "grep"} {
		if s := r.SpeedupOver(bench, core.EngineHadoopV1); s < 0.10 {
			return fmt.Errorf("figure 3: %s speedup over HadoopV1 %.3f, want > 0.10", bench, s)
		}
		if s := r.SpeedupOver(bench, core.EngineYARN); s < 0.05 {
			return fmt.Errorf("figure 3: %s speedup over YARN %.3f, want > 0.05", bench, s)
		}
	}
	if s := r.SpeedupOver("terasort", core.EngineHadoopV1); math.Abs(s) > 0.10 {
		return fmt.Errorf("figure 3: terasort speedup over HadoopV1 %.3f, want within 0.10", s)
	}
	if r.SpeedupOver("grep", core.EngineHadoopV1) <= r.SpeedupOver("terasort", core.EngineHadoopV1) {
		return fmt.Errorf("figure 3: map-heavy gain not above reduce-heavy gain")
	}
	for _, row := range r.Rows {
		if !(row.MapTime > 0 && row.ExecTime >= row.MapTime) {
			return fmt.Errorf("figure 3: implausible row %+v", row)
		}
	}
	return nil
}

// ---- tenant-fleet ----

// fleetClusters is the fleet size of one tenant-fleet iteration.
const fleetClusters = 64

// fleetArrivals is every cluster's tenant mix, after the multi-tenant
// capacity setting of Gianniti et al. (arXiv:1701.04763): SLO-bound
// analytics scans and heavier ETL jobs arrive as Poisson streams up to
// a per-tenant quota, and an always-on service stream submits small
// jobs at a fixed cadence up to the horizon. Each cluster draws its own
// stream from its seed. The service stream fixes how long every cluster
// runs and the quotas fix how many jobs it admits, so the work per
// iteration hardly depends on the seed.
func fleetArrivals() arrival.Config {
	return arrival.Config{
		Horizon: 2400,
		Tenants: []arrival.Tenant{
			{Name: "analytics", Benchmarks: []string{"grep", "histogram-ratings"},
				MeanInterarrival: 300, InputMBMin: 640, InputMBMax: 640, Reduces: 2, SLOSeconds: 300, MaxJobs: 4},
			{Name: "etl", Benchmarks: []string{"terasort", "inverted-index"},
				MeanInterarrival: 600, InputMBMin: 1280, InputMBMax: 1280, Reduces: 4, MaxJobs: 2},
			{Name: "service", Benchmarks: []string{"wordcount"},
				MeanInterarrival: 240, InputMBMin: 128, InputMBMax: 128, Reduces: 1, Service: true},
		},
	}
}

// fleetTenants weighs the SLO-bound tenant double under fair share.
func fleetTenants() []policy.Tenant {
	return []policy.Tenant{
		{Name: "analytics", Weight: 2},
		{Name: "etl", Weight: 1},
		{Name: "service", Weight: 1},
	}
}

type tenantFleet struct {
	seed     uint64
	arrivals arrival.Config
	policy   mr.CapacityPolicy
}

func openTenantFleet(seed uint64) (instance, error) {
	cfg := fleetArrivals()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, err := policy.NewFairShare(policy.Options{Tenants: fleetTenants()})
	if err != nil {
		return nil, err
	}
	return &tenantFleet{seed: seed, arrivals: cfg, policy: pol}, nil
}

func (f *tenantFleet) iterate(p *probe) (string, error) {
	var srcErr error
	cfg := fleet.Config{
		Clusters: fleetClusters,
		Workers:  1,
		Seed:     f.seed,
		Engine:   core.EngineFairShare,
		Capacity: f.policy,
		Arrivals: func(i int, rng *sim.Rand) mr.ArrivalSource {
			src, err := arrival.New(f.arrivals, rng)
			if err != nil {
				srcErr = err
				return arrival.FromSpecs(nil)
			}
			return src
		},
	}
	if p != nil {
		last := time.Now()
		cfg.PerCluster = func(o fleet.ClusterOut) {
			now := time.Now()
			p.span("fleet.cluster", now.Sub(last))
			last = now
			countRun(p, o.Result)
			p.add("arrival.jobs", float64(len(o.Result.Jobs)))
		}
	}
	res, err := fleet.Run(cfg)
	if err == nil {
		err = srcErr
	}
	if err != nil {
		return "", err
	}
	if res.Completed != res.Jobs || res.Jobs == 0 {
		return "", fmt.Errorf("fleet: %d of %d jobs completed", res.Completed, res.Jobs)
	}
	d := newDigest()
	d.ints(res.Jobs, res.Completed, res.Decisions, res.SLOMisses)
	for _, a := range []*stats.Acc{&res.Makespan, &res.JobExec, &res.MapTime, &res.ReduceTime} {
		d.ints(a.N())
		d.floats(a.Sum(), a.Min(), a.Max())
	}
	return d.sum(), nil
}

// census replays every cluster of the fleet through core.Run exactly
// as fleet.Run does (same derived seed, arrival stream and policy),
// with a flow tracer attached.
func (f *tenantFleet) census(p *probe) error {
	tr := censusTracer()
	st := mr.NewSimState()
	for i := 0; i < fleetClusters; i++ {
		seed := fleet.ClusterSeed(f.seed, i)
		ccfg := fleet.DefaultClusterConfig()
		ccfg.Seed = seed
		src, err := arrival.New(f.arrivals, arrival.RNG(seed))
		if err != nil {
			return err
		}
		tr.Reset()
		_, err = core.Run(core.EngineFairShare, core.Options{
			Cluster: ccfg, Sim: st, Capacity: f.policy, Arrivals: src, Tracer: tr,
		})
		if err != nil {
			return err
		}
		if err := addFlows(p, tr); err != nil {
			return err
		}
	}
	return nil
}

func (f *tenantFleet) close() error { return nil }
