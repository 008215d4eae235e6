package arrival

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"smapreduce/internal/mr"
)

func twoTenantConfig() Config {
	return Config{
		Horizon: 2000,
		Tenants: []Tenant{
			{Name: "analytics", Benchmarks: []string{"wordcount", "grep"},
				MeanInterarrival: 60, InputMBMin: 256, InputMBMax: 1024, Reduces: 4, SLOSeconds: 300},
			{Name: "etl", Benchmarks: []string{"terasort"},
				MeanInterarrival: 120, InputMBMin: 512, InputMBMax: 512, Reduces: 8},
		},
	}
}

func drain(t *testing.T, s *Source) []mr.JobSpec {
	t.Helper()
	var out []mr.JobSpec
	for {
		spec, at, ok := s.Next()
		if !ok {
			return out
		}
		if at != spec.SubmitAt {
			t.Fatalf("arrival time %v != spec.SubmitAt %v", at, spec.SubmitAt)
		}
		out = append(out, spec)
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{},             // unbounded, no tenants
		{Horizon: -1},  // negative horizon
		{Horizon: 100}, // no tenants
		{Horizon: 100, Diurnal: 1.2, Tenants: twoTenantConfig().Tenants},
		{Horizon: 100, Tenants: []Tenant{{Name: "", Benchmarks: []string{"grep"}, MeanInterarrival: 1, InputMBMin: 1, InputMBMax: 1, Reduces: 1}}},
		{Horizon: 100, Tenants: []Tenant{{Name: "a", Benchmarks: []string{"no-such-benchmark"}, MeanInterarrival: 1, InputMBMin: 1, InputMBMax: 1, Reduces: 1}}},
		{Horizon: 100, Tenants: []Tenant{{Name: "a", Benchmarks: []string{"grep"}, MeanInterarrival: 0, InputMBMin: 1, InputMBMax: 1, Reduces: 1}}},
		{Horizon: 100, Tenants: []Tenant{{Name: "a", Benchmarks: []string{"grep"}, MeanInterarrival: 1, InputMBMin: 4, InputMBMax: 2, Reduces: 1}}},
		{Horizon: 100, Tenants: []Tenant{{Name: "a", Benchmarks: []string{"grep"}, MeanInterarrival: 1, InputMBMin: 1, InputMBMax: 1, Reduces: 0}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
	if err := twoTenantConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestValidationRejectsNonFinite pins that NaN and infinities never
// pass as times, rates or sizes: each would slip through a plain
// ordered comparison.
func TestValidationRejectsNonFinite(t *testing.T) {
	fields := map[string]func(c *Config, v float64){
		"Horizon":          func(c *Config, v float64) { c.Horizon = v },
		"LoadFactor":       func(c *Config, v float64) { c.LoadFactor = v },
		"Diurnal":          func(c *Config, v float64) { c.Diurnal = v },
		"DiurnalPeriod":    func(c *Config, v float64) { c.DiurnalPeriod = v },
		"MeanInterarrival": func(c *Config, v float64) { c.Tenants[0].MeanInterarrival = v },
		"InputMBMin":       func(c *Config, v float64) { c.Tenants[0].InputMBMin = v },
		"InputMBMax":       func(c *Config, v float64) { c.Tenants[0].InputMBMax = v },
		"SLOSeconds":       func(c *Config, v float64) { c.Tenants[0].SLOSeconds = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := twoTenantConfig()
			set(&cfg, v)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v: Validate accepted it", name, v)
			}
		}
	}
}

func TestSourceDeterminism(t *testing.T) {
	// Two sources from the same seed must produce identical streams —
	// the property open-arrival fleet determinism rests on.
	cfg := twoTenantConfig()
	cfg.Diurnal = 0.5
	cfg.DiurnalPeriod = 600
	s1, err := New(cfg, RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg, RNG(42))
	if err != nil {
		t.Fatal(err)
	}
	a, b := drain(t, s1), drain(t, s2)
	if len(a) == 0 {
		t.Fatal("source produced no jobs")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	s3, err := New(cfg, RNG(43))
	if err != nil {
		t.Fatal(err)
	}
	if c := drain(t, s3); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamProperties(t *testing.T) {
	cfg := twoTenantConfig()
	s, err := New(cfg, RNG(7))
	if err != nil {
		t.Fatal(err)
	}
	specs := drain(t, s)
	if len(specs) < 10 {
		t.Fatalf("only %d jobs over a 2000 s horizon", len(specs))
	}
	if s.Emitted() != len(specs) {
		t.Errorf("Emitted() = %d, want %d", s.Emitted(), len(specs))
	}
	last := 0.0
	perTenant := map[string]int{}
	for i, spec := range specs {
		if spec.SubmitAt < last {
			t.Fatalf("job %d out of order: %v after %v", i, spec.SubmitAt, last)
		}
		last = spec.SubmitAt
		if spec.SubmitAt > cfg.Horizon {
			t.Fatalf("job %d past horizon: %v", i, spec.SubmitAt)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		perTenant[spec.Tenant]++
		switch spec.Tenant {
		case "analytics":
			if spec.InputMB < 256 || spec.InputMB > 1024 {
				t.Errorf("job %d input %v outside [256,1024]", i, spec.InputMB)
			}
			if spec.SLOSeconds != 300 {
				t.Errorf("job %d SLO %v, want 300", i, spec.SLOSeconds)
			}
		case "etl":
			if spec.InputMB != 512 {
				t.Errorf("job %d input %v, want pinned 512", i, spec.InputMB)
			}
		default:
			t.Errorf("job %d has unknown tenant %q", i, spec.Tenant)
		}
	}
	if perTenant["analytics"] == 0 || perTenant["etl"] == 0 {
		t.Errorf("a tenant never submitted: %v", perTenant)
	}
}

func TestMaxJobsBoundsStream(t *testing.T) {
	cfg := twoTenantConfig()
	cfg.Horizon = 0
	cfg.MaxJobs = 25
	s, err := New(cfg, RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, s)); got != 25 {
		t.Errorf("emitted %d jobs, want exactly MaxJobs=25", got)
	}
}

func TestPerTenantMaxJobs(t *testing.T) {
	cfg := twoTenantConfig()
	cfg.Tenants[0].MaxJobs = 3
	s, err := New(cfg, RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, spec := range drain(t, s) {
		if spec.Tenant == "analytics" {
			n++
		}
	}
	if n != 3 {
		t.Errorf("analytics submitted %d jobs, want 3", n)
	}
}

func TestServiceCadenceIsExact(t *testing.T) {
	cfg := Config{
		Horizon: 1000,
		Tenants: []Tenant{{Name: "ingest", Benchmarks: []string{"grep"},
			MeanInterarrival: 100, InputMBMin: 64, InputMBMax: 64, Reduces: 1, Service: true}},
	}
	s, err := New(cfg, RNG(9))
	if err != nil {
		t.Fatal(err)
	}
	specs := drain(t, s)
	if len(specs) != 10 {
		t.Fatalf("got %d service jobs over 1000 s at 100 s cadence, want 10", len(specs))
	}
	for i, spec := range specs {
		want := float64(i+1) * 100
		if math.Abs(spec.SubmitAt-want) > 1e-9 {
			t.Errorf("service job %d at %v, want %v", i, spec.SubmitAt, want)
		}
	}
}

func TestLoadFactorScalesRate(t *testing.T) {
	base := twoTenantConfig()
	s1, err := New(base, RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	hot := base
	hot.LoadFactor = 3
	s2, err := New(hot, RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := len(drain(t, s1)), len(drain(t, s2))
	if n2 < 2*n1 {
		t.Errorf("load factor 3 produced %d jobs vs %d at baseline — rate not scaled", n2, n1)
	}
}

func TestDiurnalModulatesRate(t *testing.T) {
	// With deep modulation and the period matching the horizon, the
	// first half (sin > 0) must see more arrivals than the second.
	cfg := Config{
		Horizon:       10000,
		Diurnal:       0.9,
		DiurnalPeriod: 10000,
		Tenants: []Tenant{{Name: "a", Benchmarks: []string{"grep"},
			MeanInterarrival: 20, InputMBMin: 64, InputMBMax: 64, Reduces: 1}},
	}
	s, err := New(cfg, RNG(11))
	if err != nil {
		t.Fatal(err)
	}
	firstHalf, secondHalf := 0, 0
	for _, spec := range drain(t, s) {
		if spec.SubmitAt < cfg.Horizon/2 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	if firstHalf <= secondHalf {
		t.Errorf("diurnal peak half had %d arrivals vs trough half %d", firstHalf, secondHalf)
	}
}

func TestFromSpecsReplay(t *testing.T) {
	specs := []mr.JobSpec{
		{Name: "c", SubmitAt: 30},
		{Name: "a", SubmitAt: 10},
		{Name: "b", SubmitAt: 10},
	}
	src := FromSpecs(specs)
	var names []string
	for {
		spec, at, ok := src.Next()
		if !ok {
			break
		}
		if at != spec.SubmitAt {
			t.Fatalf("at %v != SubmitAt %v", at, spec.SubmitAt)
		}
		names = append(names, spec.Name)
	}
	// Ordered by SubmitAt, original order preserved on ties.
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(names, want) {
		t.Errorf("replay order %v, want %v", names, want)
	}
	// The input slice must not be reordered.
	if specs[0].Name != "c" {
		t.Error("FromSpecs mutated its input")
	}
}

func TestParseConfig(t *testing.T) {
	data, err := json.Marshal(twoTenantConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, twoTenantConfig()) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", cfg, twoTenantConfig())
	}
	if _, err := ParseConfig([]byte(`{"horizon": 100}`)); err == nil {
		t.Error("ParseConfig accepted a config with no tenants")
	}
	if _, err := ParseConfig([]byte(`not json`)); err == nil {
		t.Error("ParseConfig accepted malformed JSON")
	}
	if _, err := ParseConfig([]byte(`{"horzon": 100, "tenants": []}`)); err == nil {
		t.Error("ParseConfig accepted a misspelled field")
	}
}
