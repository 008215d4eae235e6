package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseScenario fuzzes the service's request parser. Every input
// must be rejected with an error or accepted; an accepted document's
// Canonical must re-parse to the same bytes, and its Plan must stay
// within the job cap and carry a valid cluster config. An arrival
// stream's count is Poisson with a mean the cap bounds, so draining it
// must stop well short of twice the cap.
func FuzzParseScenario(f *testing.F) {
	for _, doc := range []string{
		// The service tests' documents.
		`{"seed":3,"workers":4,"jobs":[{"bench":"grep","input_gb":1,"reduces":2}]}`,
		`{"engine":"smapreduce","seed":11,"workers":6,"jobs":[{"bench":"terasort","input_gb":2,"reduces":4},{"bench":"grep","input_gb":1,"reduces":2,"submit_at":5}],"chaos":"crash tt2 @10; rejoin tt2 @40","trace_verbosity":1}`,
		`{"engine":"fairshare","seed":5,"workers":6,"arrivals":{"horizon":300,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":60,"input_mb_min":256,"input_mb_max":512,"reduces":2,"priority":2},{"name":"b","benchmarks":["terasort"],"mean_interarrival":90,"input_mb_min":512,"input_mb_max":512,"reduces":2}]}}`,
		`{"jobs":[{"bench":"grep","input_gb":1,"submit_at":10},{"bench":"terasort","input_gb":1,"count":2,"stagger":5}]}`,
		`{"engine":"capacityqueue","tenants":[{"name":"a","weight":2,"guarantee":0.5}],"jobs":[{"bench":"grep","input_gb":1,"tenant":"a","slo_seconds":30}]}`,
		`{"jobs":[{"bench":"grep","input_gb":1}],"typo":1}`,
		`{"jobs":[{"bench":"grep","input_gb":1}]} {"x":1}`,
		`{}`,
		// The unbounded and non-finite documents the caps reject.
		`{"jobs":[{"bench":"grep","input_gb":1,"count":100000000}]}`,
		`{"jobs":[{"bench":"grep","input_gb":1e308}]}`,
		`{"workers":-4,"map_slots":-1,"jobs":[{"bench":"grep","input_gb":1,"reduces":-2}]}`,
		`{"trace_verbosity":99,"jobs":[{"bench":"grep","input_gb":1}]}`,
		`{"jobs":[{"bench":"grep","input_gb":1,"submit_at":-5}]}`,
		`{"arrivals":{"horizon":1e9,"tenants":[{"name":"a","benchmarks":["grep"],"mean_interarrival":0.001,"input_mb_min":1,"input_mb_max":1,"reduces":1}]}}`,
	} {
		f.Add([]byte(doc))
	}
	// The serve-smoke and served-traced bodies, among others.
	docs, _ := filepath.Glob(filepath.Join("testdata", "canonical", "*.json"))
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("accepted document does not render: %v", err)
		}
		s2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, c1)
		}
		if c2, _ := s2.Canonical(); !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalisation is not a fixed point:\n%s\nvs\n%s", c1, c2)
		}
		p, err := s.Plan()
		if err != nil {
			t.Fatalf("accepted document does not translate: %v", err)
		}
		if len(p.Specs) > MaxJobs {
			t.Fatalf("%d specs exceed the %d-job cap", len(p.Specs), MaxJobs)
		}
		if src := p.Options.Arrivals; src != nil {
			n := 0
			for spec, _, ok := src.Next(); ok; spec, _, ok = src.Next() {
				if n++; n > 2*MaxJobs {
					t.Fatalf("arrival stream exceeds %d jobs", 2*MaxJobs)
				}
				if err := spec.Validate(); err != nil {
					t.Fatalf("arrival spec %s invalid: %v", spec.Name, err)
				}
			}
		}
		if err := p.Options.Cluster.Validate(); err != nil {
			t.Fatalf("translated cluster config invalid: %v", err)
		}
	})
}
