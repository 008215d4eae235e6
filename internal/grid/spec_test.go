package grid

import (
	"bytes"
	"strings"
	"testing"
)

// minimalSpec is the smallest valid grid, in non-canonical form
// (lowercase engine alias, unnormalised chaos text) so tests can watch
// canonicalisation work.
const minimalSpec = `{
  "name": "mini",
  "repeats": 1,
  "seeds": [7],
  "engines": ["smr"],
  "scales": [{"name": "tiny", "workers": 4, "input_scale": 0.25}],
  "workloads": [{"name": "one-grep", "scenario": {"jobs": [{"bench": "grep", "input_gb": 1, "reduces": 2}]}}]
}`

func mustSpec(t *testing.T, text string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(text))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return s
}

func TestParseSpecCanonicalises(t *testing.T) {
	s := mustSpec(t, minimalSpec)
	if got := s.Engines[0]; got != "SMapReduce" {
		t.Errorf("engine alias not canonicalised: %q", got)
	}
	chaosy := strings.Replace(minimalSpec, `"jobs":`, `"chaos": "crash tt1 @2e1; rejoin tt1 @40", "jobs":`, 1)
	s = mustSpec(t, chaosy)
	if got, want := s.Workloads[0].Scenario.Chaos, "crash tt1 @20\nrejoin tt1 @40\n"; got != want {
		t.Errorf("chaos not canonicalised: %q, want %q", got, want)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	for name, text := range map[string]string{
		"minimal": minimalSpec,
		"smoke":   readSmokeSpec(t),
	} {
		s := mustSpec(t, text)
		c1 := s.Canonical()
		s2, err := ParseSpec(c1)
		if err != nil {
			t.Fatalf("%s: canonical form rejected: %v", name, err)
		}
		if c2 := s2.Canonical(); !bytes.Equal(c1, c2) {
			t.Errorf("%s: canonicalisation is not a fixed point:\n%s\nvs\n%s", name, c1, c2)
		}
	}
}

// TestParseSpecRejects is the validation contract: unknown fields,
// empty axes, non-positive repeats and scales, duplicate axis entries
// (the source of duplicate cell keys) and malformed members all fail
// with a diagnostic.
func TestParseSpecRejects(t *testing.T) {
	mutate := func(old, new string) string {
		t.Helper()
		s := strings.Replace(minimalSpec, old, new, 1)
		if s == minimalSpec {
			t.Fatalf("mutation %q not applied", old)
		}
		return s
	}
	cases := map[string]string{
		"unknown top-level field": mutate(`"name": "mini"`, `"name": "mini", "shards": 3`),
		"unknown scale field":     mutate(`"workers": 4`, `"workers": 4, "nodes": 4`),
		"unknown job field":       mutate(`"input_gb": 1`, `"input_gb": 1, "size": 2`),
		"trailing data":           minimalSpec + `{"second": true}`,
		"bad name":                mutate(`"name": "mini"`, `"name": "has space"`),
		"zero repeats":            mutate(`"repeats": 1`, `"repeats": 0`),
		"negative repeats":        mutate(`"repeats": 1`, `"repeats": -2`),
		"empty seeds":             mutate(`"seeds": [7]`, `"seeds": []`),
		"duplicate seeds":         mutate(`"seeds": [7]`, `"seeds": [7, 7]`),
		"empty engines":           mutate(`"engines": ["smr"]`, `"engines": []`),
		"unknown engine":          mutate(`"engines": ["smr"]`, `"engines": ["spark"]`),
		"duplicate engines":       mutate(`"engines": ["smr"]`, `"engines": ["smr", "SMapReduce"]`),
		"empty scales":            mutate(`"scales": [{"name": "tiny", "workers": 4, "input_scale": 0.25}]`, `"scales": []`),
		"zero workers":            mutate(`"workers": 4`, `"workers": 0`),
		"zero input_scale":        mutate(`"input_scale": 0.25`, `"input_scale": 0`),
		"negative input_scale":    mutate(`"input_scale": 0.25`, `"input_scale": -1`),
		"duplicate scales": mutate(`"scales": [{"name": "tiny", "workers": 4, "input_scale": 0.25}]`,
			`"scales": [{"name": "tiny", "workers": 4, "input_scale": 0.25}, {"name": "tiny", "workers": 8, "input_scale": 1}]`),
		"empty workloads":                     mutate(`"workloads": [{"name": "one-grep", "scenario": {"jobs": [{"bench": "grep", "input_gb": 1, "reduces": 2}]}}]`, `"workloads": []`),
		"workload both kinds":                 mutate(`"jobs":`, `"arrivals": {"horizon": 10, "tenants": [{"name": "t", "benchmarks": ["grep"], "mean_interarrival": 5, "input_mb_min": 1, "input_mb_max": 2, "reduces": 1}]}, "jobs":`),
		"workload no kind":                    mutate(`"jobs": [{"bench": "grep", "input_gb": 1, "reduces": 2}]`, `"jobs": []`),
		"unknown benchmark":                   mutate(`"bench": "grep"`, `"bench": "sort-of-grep"`),
		"zero input_gb":                       mutate(`"input_gb": 1`, `"input_gb": 0`),
		"negative reduces":                    mutate(`"reduces": 2`, `"reduces": -1`),
		"negative submit":                     mutate(`"reduces": 2`, `"reduces": 2, "submit_at": -1`),
		"bad chaos":                           mutate(`"jobs":`, `"chaos": "explode tt0 @1", "jobs":`),
		"empty chaos":                         mutate(`"jobs":`, `"chaos": "# nothing", "jobs":`),
		"chaos target outside smallest scale": mutate(`"jobs":`, `"chaos": "crash tt4 @1", "jobs":`),
		"tenant dup":                          mutate(`"jobs":`, `"tenants": [{"name": "a"}, {"name": "a"}], "jobs":`),
		"tenant guarantees":                   mutate(`"jobs":`, `"tenants": [{"name": "a", "guarantee": 0.7}, {"name": "b", "guarantee": 0.6}], "jobs":`),
		"input over the cap at a scale":       mutate(`"input_gb": 1`, `"input_gb": 40961`),
		"scenario sets engine":                mutate(`"jobs":`, `"engine": "yarn", "jobs":`),
		"scenario sets seed":                  mutate(`"jobs":`, `"seed": 3, "jobs":`),
		"scenario sets workers":               mutate(`"jobs":`, `"workers": 4, "jobs":`),
		"scenario sets trace_verbosity":       mutate(`"jobs":`, `"trace_verbosity": 1, "jobs":`),
		"old workload format":                 mutate(`"scenario": {"jobs": [{"bench": "grep", "input_gb": 1, "reduces": 2}]}`, `"jobs": [{"benchmark": "grep", "input_gb": 1, "reduces": 2}]`),
		"not json":                            `engines: [smr]`,
	}
	for name, text := range cases {
		if _, err := ParseSpec([]byte(text)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, text)
		}
	}
}

// TestCellSpecErrors: grid specs are user input, so a workload job
// that cannot be built fails spec parsing with an error naming the
// workload, the scale and the problem, never a panic at sweep time.
func TestCellSpecErrors(t *testing.T) {
	for bad, want := range map[string]string{
		`"bench": "sort-of-grep", "input_gb": 1, "reduces": 2`: "sort-of-grep",
		`"bench": "grep", "input_gb": 1, "reduces": -2`:        "reduces",
	} {
		text := strings.Replace(minimalSpec, `"bench": "grep", "input_gb": 1, "reduces": 2`, bad, 1)
		_, err := ParseSpec([]byte(text))
		if err == nil {
			t.Fatalf("%s accepted", bad)
		}
		for _, part := range []string{"one-grep", "tiny", want} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not mention %q", bad, err, part)
			}
		}
	}
}
