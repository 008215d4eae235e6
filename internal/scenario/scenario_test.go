package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
)

func mustParse(t *testing.T, doc string) Scenario {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse(%s): %v", doc, err)
	}
	return s
}

func mustPlan(t *testing.T, s Scenario) Plan {
	t.Helper()
	p, err := s.Plan()
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return p
}

// TestCanonicalGoldens pins Canonical on documents the service
// accepted before the scenario type moved here (the serve-smoke and
// served-traced bodies among them): their canonical bytes were
// recorded then and must not move, since the run ledger hashes them.
func TestCanonicalGoldens(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join("testdata", "canonical", "*.json"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no canonical documents: %v", err)
	}
	for _, doc := range docs {
		in, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(doc, ".json") + ".canonical")
		if err != nil {
			t.Fatal(err)
		}
		s := mustParse(t, string(in))
		got, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical bytes moved:\n%s\nwant:\n%s", doc, got, want)
		}
		again := mustParse(t, string(got))
		if c, _ := again.Canonical(); !bytes.Equal(c, got) {
			t.Errorf("%s: canonicalisation is not a fixed point", doc)
		}
	}
}

// TestValidateBounds is the strict-validation table: negatives,
// non-finite and over-cap sizes, and out-of-range verbosity are all
// rejected, the oversized ones before any spec is materialised.
func TestValidateBounds(t *testing.T) {
	cases := map[string]struct{ doc, wantErr string }{
		"huge count":                {`{"jobs":[{"bench":"grep","input_gb":1,"count":100000000}]}`, "count"},
		"many sets over the cap":    {`{"jobs":[` + strings.Repeat(`{"bench":"grep","input_gb":1,"count":5000},`, 2) + `{"bench":"grep","input_gb":1}]}`, "more than"},
		"huge input":                {`{"jobs":[{"bench":"grep","input_gb":1e308}]}`, "input_gb"},
		"zero input":                {`{"jobs":[{"bench":"grep","input_gb":0}]}`, "input_gb"},
		"negative workers":          {`{"workers":-1,"jobs":[{"bench":"grep","input_gb":1}]}`, "workers"},
		"huge workers":              {`{"workers":100000000,"slow_nodes":1,"jobs":[{"bench":"grep","input_gb":1}]}`, "workers"},
		"negative map slots":        {`{"map_slots":-2,"jobs":[{"bench":"grep","input_gb":1}]}`, "map_slots"},
		"huge map slots":            {`{"map_slots":1000000,"jobs":[{"bench":"grep","input_gb":1}]}`, "map_slots"},
		"negative reduce slots":     {`{"reduce_slots":-2,"jobs":[{"bench":"grep","input_gb":1}]}`, "reduce_slots"},
		"negative slow nodes":       {`{"slow_nodes":-1,"jobs":[{"bench":"grep","input_gb":1}]}`, "slow_nodes"},
		"all slow nodes":            {`{"workers":4,"slow_nodes":4,"jobs":[{"bench":"grep","input_gb":1}]}`, "slow_nodes"},
		"negative count":            {`{"jobs":[{"bench":"grep","input_gb":1,"count":-3}]}`, "count"},
		"negative reduces":          {`{"jobs":[{"bench":"grep","input_gb":1,"reduces":-1}]}`, "reduces"},
		"huge reduces":              {`{"jobs":[{"bench":"grep","input_gb":1,"reduces":100000000}]}`, "reduces"},
		"negative stagger":          {`{"jobs":[{"bench":"grep","input_gb":1,"count":2,"stagger":-5}]}`, "stagger"},
		"negative submit_at":        {`{"jobs":[{"bench":"grep","input_gb":1,"submit_at":-5}]}`, "submit_at"},
		"negative slo":              {`{"jobs":[{"bench":"grep","input_gb":1,"slo_seconds":-1}]}`, "slo_seconds"},
		"verbosity too high":        {`{"trace_verbosity":99,"jobs":[{"bench":"grep","input_gb":1}]}`, "trace_verbosity"},
		"verbosity negative":        {`{"trace_verbosity":-4,"jobs":[{"bench":"grep","input_gb":1}]}`, "trace_verbosity"},
		"bad scheduler":             {`{"scheduler":"lottery","jobs":[{"bench":"grep","input_gb":1}]}`, "scheduler"},
		"arrival input over cap":    {`{"arrivals":{"horizon":10,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":5,"input_mb_min":1,"input_mb_max":1e12,"reduces":1}]}}`, "input_mb_max"},
		"arrival stream over cap":   {`{"arrivals":{"horizon":1e9,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":0.001,"input_mb_min":1,"input_mb_max":1,"reduces":1}]}}`, "arrivals"},
		"arrival max_jobs over cap": {`{"arrivals":{"max_jobs":1000000,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":5,"input_mb_min":1,"input_mb_max":2,"reduces":1}]}}`, "arrivals"},
		"arrival load over cap":     {`{"arrivals":{"horizon":600,"load_factor":1e6,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":5,"input_mb_min":1,"input_mb_max":2,"reduces":1}]}}`, "arrivals"},
		"arrival reduces over cap":  {`{"arrivals":{"horizon":10,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":5,"input_mb_min":1,"input_mb_max":2,"reduces":100000}]}}`, "reduces"},
		"duplicate tenants":         {`{"tenants":[{"name":"a"},{"name":"a"}],"jobs":[{"bench":"grep","input_gb":1}]}`, "tenants"},
		"empty tenant name":         {`{"tenants":[{"weight":2}],"jobs":[{"bench":"grep","input_gb":1}]}`, "tenants"},
		"negative weight":           {`{"tenants":[{"name":"a","weight":-1}],"jobs":[{"bench":"grep","input_gb":1}]}`, "tenants"},
		"guarantees over 1":         {`{"tenants":[{"name":"a","guarantee":0.7},{"name":"b","guarantee":0.6}],"jobs":[{"bench":"grep","input_gb":1}]}`, "tenants"},
		"unknown tenant field":      {`{"tenants":[{"name":"a","share":1}],"jobs":[{"bench":"grep","input_gb":1}]}`, "unknown field"},
		"unknown job field":         {`{"jobs":[{"bench":"grep","input_gb":1,"slo":3}]}`, "unknown field"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestArrivalJobBound pins the arrival stream bound: the expected
// count at the peak rate per tenant, capped by the tenant's and the
// config's max_jobs; and that a stream under the cap submits about
// that many jobs.
func TestArrivalJobBound(t *testing.T) {
	tenant := func(name string, mean float64, maxJobs int, service bool) arrival.Tenant {
		return arrival.Tenant{Name: name, Benchmarks: []string{"grep"}, MeanInterarrival: mean,
			InputMBMin: 64, InputMBMax: 64, Reduces: 1, MaxJobs: maxJobs, Service: service}
	}
	cases := []struct {
		name string
		cfg  arrival.Config
		want float64
	}{
		{"horizon over mean", arrival.Config{Horizon: 640, Tenants: []arrival.Tenant{tenant("a", 64, 0, false)}}, 10},
		{"load and diurnal peak", arrival.Config{Horizon: 640, LoadFactor: 2, Diurnal: 0.5, Tenants: []arrival.Tenant{tenant("a", 64, 0, false)}}, 30},
		{"service ignores load", arrival.Config{Horizon: 640, LoadFactor: 2, Tenants: []arrival.Tenant{tenant("a", 64, 0, true)}}, 10},
		{"tenant max_jobs", arrival.Config{Horizon: 1e9, Tenants: []arrival.Tenant{tenant("a", 0.001, 5, false), tenant("b", 64, 0, false)}}, 5 + 1e9/64},
		{"config max_jobs", arrival.Config{Horizon: 1e9, MaxJobs: 7, Tenants: []arrival.Tenant{tenant("a", 0.001, 0, false)}}, 7},
		{"no horizon", arrival.Config{MaxJobs: 20_000, Tenants: []arrival.Tenant{tenant("a", 5, 3, false), tenant("b", 5, 0, false)}}, 20_000},
	}
	for _, tc := range cases {
		if got := arrivalJobBound(tc.cfg); got != tc.want {
			t.Errorf("%s: bound = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A huge horizon is fine when max_jobs bounds every tenant.
	s := Scenario{Arrivals: &arrival.Config{Horizon: 1e9, Tenants: []arrival.Tenant{tenant("a", 0.001, 50, false)}}}
	p, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, _, ok := p.Options.Arrivals.Next(); ok; _, _, ok = p.Options.Arrivals.Next() {
		n++
	}
	if n != 50 {
		t.Errorf("stream submitted %d jobs, want 50", n)
	}
}

// TestValidateNonFinite covers the Go-constructed path (smrsim's flags
// parse "Inf" and "NaN"), which JSON cannot reach.
func TestValidateNonFinite(t *testing.T) {
	for name, set := range map[string]JobSet{
		"inf input":     {Bench: "grep", InputGB: math.Inf(1)},
		"nan input":     {Bench: "grep", InputGB: math.NaN()},
		"inf stagger":   {Bench: "grep", InputGB: 1, Count: 2, Stagger: math.Inf(1)},
		"nan submit_at": {Bench: "grep", InputGB: 1, SubmitAt: math.NaN()},
		"inf slo":       {Bench: "grep", InputGB: 1, SLOSeconds: math.Inf(1)},
	} {
		s := Scenario{Jobs: []JobSet{set}}
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	s := Scenario{Tenants: []policy.Tenant{{Name: "a", Weight: math.NaN()}}, Jobs: []JobSet{{Bench: "grep", InputGB: 1}}}
	if err := s.Validate(); err == nil {
		t.Error("NaN tenant weight accepted")
	}
}

func TestPolicyTenantsFromArrivals(t *testing.T) {
	arrivals := `"arrivals": {"horizon": 600, "tenants": [
		{"name": "a", "benchmarks": ["grep"], "mean_interarrival": 60,
		 "input_mb_min": 100, "input_mb_max": 200, "reduces": 4, "priority": 3},
		{"name": "b", "benchmarks": ["terasort"], "mean_interarrival": 60,
		 "input_mb_min": 100, "input_mb_max": 200, "reduces": 4}]}`
	ts := mustPlan(t, mustParse(t, `{`+arrivals+`}`)).Options.Tenants
	if len(ts) != 2 {
		t.Fatalf("tenants = %d", len(ts))
	}
	if ts[0].Weight != 3 || ts[1].Weight != 1 {
		t.Fatalf("priority->weight mapping wrong: %+v", ts)
	}
	if ts[0].Guarantee != 0.5 || ts[1].Guarantee != 0.5 {
		t.Fatalf("guarantees not split evenly: %+v", ts)
	}
	// The derived list must construct every capacity policy.
	for _, engine := range core.CapacityEngines() {
		if p, err := core.NewCapacityPolicy(engine, ts); err != nil || p == nil {
			t.Fatalf("NewCapacityPolicy(%v) = %v, %v", engine, p, err)
		}
	}
	// Explicit tenants win over the derived ones.
	explicit := mustPlan(t, mustParse(t, `{"tenants": [{"name": "a", "weight": 5, "guarantee": 0.9}], `+arrivals+`}`)).Options.Tenants
	if len(explicit) != 1 || explicit[0] != (policy.Tenant{Name: "a", Weight: 5, Guarantee: 0.9}) {
		t.Errorf("explicit tenants not kept: %+v", explicit)
	}
	// Fixed workloads without tenants configure none.
	if ts := mustPlan(t, mustParse(t, `{"jobs":[{"bench":"grep","input_gb":1}]}`)).Options.Tenants; ts != nil {
		t.Errorf("fixed workload derived tenants %+v", ts)
	}
}

func TestParseScheduler(t *testing.T) {
	if k, err := parseScheduler("FIFO"); err != nil || k != mr.FIFO {
		t.Fatalf("fifo: %v %v", k, err)
	}
	if k, err := parseScheduler("fair"); err != nil || k != mr.Fair {
		t.Fatalf("fair: %v %v", k, err)
	}
	if k, err := parseScheduler("priority"); err != nil || k != mr.Priority {
		t.Fatalf("priority: %v %v", k, err)
	}
	if _, err := parseScheduler("lottery"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestBuildClusterDefaultsAndOverrides(t *testing.T) {
	cfg, err := (&Scenario{}).clusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	def := mr.DefaultConfig()
	if cfg.Workers != def.Workers || cfg.MapSlots != def.MapSlots || cfg.Seed != def.Seed {
		t.Fatalf("zero scenario changed defaults: %+v", cfg)
	}
	s := Scenario{Workers: 8, MapSlots: 20, ReduceSlots: 8, Seed: 9, Scheduler: "fair", Speculate: true}
	if cfg, err = s.clusterConfig(); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 8 || cfg.Net.Nodes != 8 || cfg.MapSlots != 20 || cfg.MaxMapSlots != 20 ||
		cfg.ReduceSlots != 8 || cfg.MaxReduceSlots != 8 ||
		cfg.Seed != 9 || cfg.Scheduler != mr.Fair || !cfg.Speculation {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildClusterSlowNodes(t *testing.T) {
	cfg, err := (&Scenario{Workers: 4, SlowNodes: 2}).clusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.NodeSpecs) != 4 {
		t.Fatalf("node specs = %d", len(cfg.NodeSpecs))
	}
	if cfg.NodeSpecs[0].CoreSpeed != cfg.NodeSpec.CoreSpeed {
		t.Fatal("fast node altered")
	}
	if cfg.NodeSpecs[3].CoreSpeed >= cfg.NodeSpec.CoreSpeed {
		t.Fatal("slow node not slowed")
	}
	if _, err := (&Scenario{Workers: 4, SlowNodes: 4}).clusterConfig(); err == nil {
		t.Fatal("all-slow cluster accepted")
	}
}

func TestBuildClusterRejectsBadScheduler(t *testing.T) {
	if _, err := (&Scenario{Scheduler: "bogus"}).clusterConfig(); err == nil {
		t.Fatal("bad scheduler accepted")
	}
}

// TestBuildJobs pins the job-set translation: counts, stagger, the
// submit offset, the reduce default, tenant and SLO, input arithmetic
// and the naming rules.
func TestBuildJobs(t *testing.T) {
	s := mustParse(t, `{"jobs":[
		{"bench":"grep","input_gb":10,"reduces":8,"count":3,"stagger":5,"submit_at":2,"tenant":"adhoc","slo_seconds":60},
		{"bench":"terasort","input_gb":0.3}]}`)
	specs := mustPlan(t, s).Specs
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	for i, sp := range specs[:3] {
		if sp.InputMB != 10*1024 || sp.Reduces != 8 || sp.Tenant != "adhoc" || sp.SLOSeconds != 60 {
			t.Fatalf("spec %d: %+v", i, sp)
		}
		if sp.SubmitAt != float64(i)*5+2 {
			t.Fatalf("stagger wrong at %d: %v", i, sp.SubmitAt)
		}
	}
	last := specs[3]
	if last.Name != "s1-terasort-1" || last.Reduces != 4 || last.InputMB != 0.3*1024 || last.Tenant != "" {
		t.Errorf("defaulted set: %+v", last)
	}
	if specs[0].Name != "s0-grep-1" || specs[2].Name != "s0-grep-3" {
		t.Errorf("names %q, %q", specs[0].Name, specs[2].Name)
	}
	if one := mustPlan(t, mustParse(t, `{"jobs":[{"bench":"grep","input_gb":1}]}`)).Specs; one[0].Name != "grep-1" {
		t.Errorf("single job named %q, want grep-1", one[0].Name)
	}
	for name, doc := range map[string]string{
		"unknown benchmark": `{"jobs":[{"bench":"sort-of-grep","input_gb":1}]}`,
		"zero input":        `{"jobs":[{"bench":"grep","input_gb":0}]}`,
		"negative count":    `{"jobs":[{"bench":"grep","input_gb":1,"count":-1}]}`,
		"negative reduces":  `{"jobs":[{"bench":"grep","input_gb":1,"reduces":-1}]}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		} else if name == "unknown benchmark" && !strings.Contains(err.Error(), "sort-of-grep") {
			t.Errorf("unknown benchmark error %q does not name it", err)
		}
	}
}

// TestPlanTranslation checks what Plan hands core.Run: engine, the
// arrival source with no fixed specs, and a Prepare only when there is
// a chaos schedule.
func TestPlanTranslation(t *testing.T) {
	p := mustPlan(t, mustParse(t, `{"engine":"yarn","seed":4,"workers":6,"jobs":[{"bench":"grep","input_gb":1}],"chaos":"crash tt2 @5"}`))
	if p.Engine != core.EngineYARN || p.Options.Cluster.Seed != 4 || p.Options.Cluster.Workers != 6 {
		t.Errorf("engine/seed/workers = %v/%d/%d", p.Engine, p.Options.Cluster.Seed, p.Options.Cluster.Workers)
	}
	if p.Options.Prepare == nil || len(p.Chaos.Faults) != 1 || p.Options.Arrivals != nil {
		t.Errorf("chaos plan: prepare %v, faults %d, arrivals %v", p.Options.Prepare != nil, len(p.Chaos.Faults), p.Options.Arrivals)
	}
	p = mustPlan(t, mustParse(t, `{"arrivals":{"horizon":100,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":30,"input_mb_min":64,"input_mb_max":128,"reduces":2}]}}`))
	if p.Engine != core.EngineSMapReduce || p.Options.Arrivals == nil || len(p.Specs) != 0 || p.Options.Prepare != nil {
		t.Errorf("arrival plan: engine %v, arrivals %v, specs %d", p.Engine, p.Options.Arrivals, len(p.Specs))
	}
	if (&Scenario{}).EngineName() != "smapreduce" {
		t.Error("empty engine does not name smapreduce")
	}
}

// TestPlanRunCarriesTenantsAndSLOs runs a plan end to end: per-job
// tenants reach the jobs, SLOs are judged, chaos is armed.
func TestPlanRunCarriesTenantsAndSLOs(t *testing.T) {
	s := mustParse(t, `{"engine":"fairshare","workers":6,
		"tenants":[{"name":"adhoc","weight":3,"guarantee":0.6},{"name":"batch","guarantee":0.4}],
		"jobs":[{"bench":"grep","input_gb":1,"tenant":"adhoc","slo_seconds":0.5},
		        {"bench":"terasort","input_gb":1,"tenant":"batch","submit_at":3}],
		"chaos":"crash tt1 @4"}`)
	p := mustPlan(t, s)
	p.Options.Events = true
	res, err := core.Run(p.Engine, p.Options, p.Specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 || res.Jobs[0].Tenant() != "adhoc" || res.Jobs[1].Tenant() != "batch" {
		t.Fatalf("jobs/tenants wrong: %d jobs", len(res.Jobs))
	}
	if res.SLOMisses() != 1 {
		t.Errorf("SLO misses = %d, want 1 (a 0.5 s objective)", res.SLOMisses())
	}
	crashed := false
	for _, ev := range res.Events.Events() {
		if ev.Kind == mr.EvTrackerDown {
			crashed = true
		}
	}
	if !crashed {
		t.Error("chaos crash not armed")
	}
}

// TestArrivalSourceSeededFromCluster pins the arrival stream to the
// cluster seed, so two plans of one scenario draw the same jobs.
func TestArrivalSourceSeededFromCluster(t *testing.T) {
	doc := `{"seed":9,"arrivals":{"horizon":600,"tenants":[{"name":"a","benchmarks":["grep","terasort"],"mean_interarrival":30,"input_mb_min":64,"input_mb_max":512,"reduces":2}]}}`
	next := func() mr.JobSpec {
		src := mustPlan(t, mustParse(t, doc)).Options.Arrivals
		spec, _, ok := src.Next()
		if !ok {
			t.Fatal("empty arrival stream")
		}
		return spec
	}
	a, b := next(), next()
	if a.Name != b.Name || a.InputMB != b.InputMB || a.SubmitAt != b.SubmitAt {
		t.Errorf("streams differ: %+v vs %+v", a, b)
	}
	cfg, _ := arrival.ParseConfig([]byte(`{"horizon":600,"tenants":[{"name":"a","benchmarks":["grep","terasort"],"mean_interarrival":30,"input_mb_min":64,"input_mb_max":512,"reduces":2}]}`))
	src, err := arrival.New(cfg, arrival.RNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if c, _, _ := src.Next(); c.Name != a.Name || c.InputMB != a.InputMB {
		t.Errorf("plan stream not arrival.RNG(seed): %+v vs %+v", a, c)
	}
}
