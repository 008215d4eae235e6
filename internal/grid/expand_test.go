package grid

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// readSmokeSpec loads the checked-in CI smoke grid, which doubles as
// the reference spec for the determinism and resume suites.
func readSmokeSpec(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "experiments", "smoke.json"))
	if err != nil {
		t.Fatalf("reading experiments/smoke.json: %v", err)
	}
	return string(data)
}

// TestExpandOrder pins the documented expansion contract: engines
// outermost, then workloads, then scales, seeds innermost, cell keys
// "engine/workload/scale/seed", indexes dense.
func TestExpandOrder(t *testing.T) {
	s := mustSpec(t, `{
	  "name": "order",
	  "repeats": 1,
	  "seeds": [1, 2],
	  "engines": ["hadoop", "smr"],
	  "scales": [{"name": "a", "workers": 2, "input_scale": 1}, {"name": "b", "workers": 4, "input_scale": 1}],
	  "workloads": [
	    {"name": "w1", "scenario": {"jobs": [{"bench": "grep", "input_gb": 1, "reduces": 1}]}},
	    {"name": "w2", "scenario": {"jobs": [{"bench": "terasort", "input_gb": 1, "reduces": 1}]}}
	  ]
	}`)
	want := []string{
		"HadoopV1/w1/a/1", "HadoopV1/w1/a/2", "HadoopV1/w1/b/1", "HadoopV1/w1/b/2",
		"HadoopV1/w2/a/1", "HadoopV1/w2/a/2", "HadoopV1/w2/b/1", "HadoopV1/w2/b/2",
		"SMapReduce/w1/a/1", "SMapReduce/w1/a/2", "SMapReduce/w1/b/1", "SMapReduce/w1/b/2",
		"SMapReduce/w2/a/1", "SMapReduce/w2/a/2", "SMapReduce/w2/b/1", "SMapReduce/w2/b/2",
	}
	cells := Expand(s)
	got := make([]string, len(cells))
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %s: Index = %d, want %d", c.Key, c.Index, i)
		}
		got[i] = c.Key
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expansion order:\n got %v\nwant %v", got, want)
	}
}

// TestExpandSharesAxes checks cells point into the spec's axis slices
// rather than copies, so chaos/arrival configs are not duplicated per
// cell.
func TestExpandSharesAxes(t *testing.T) {
	s := mustSpec(t, minimalSpec)
	c := Expand(s)[0]
	if c.Workload != &s.Workloads[0] || c.Scale != &s.Scales[0] {
		t.Error("cells do not point into the spec's axis slices")
	}
}

// TestRepeatSeed pins the seeding rule: a pure function of (cell key,
// repeat index) — stable across calls, distinct across repeats, and
// sensitive to every part of the key.
func TestRepeatSeed(t *testing.T) {
	const key = "SMapReduce/fig3-grep/w8/1"
	seen := make(map[uint64]string)
	for rep := 0; rep < 8; rep++ {
		a, b := RepeatSeed(key, rep), RepeatSeed(key, rep)
		if a != b {
			t.Fatalf("RepeatSeed(%q, %d) unstable: %d vs %d", key, rep, a, b)
		}
		if prev, dup := seen[a]; dup {
			t.Errorf("repeat %d collides with %s", rep, prev)
		}
		seen[a] = key
	}
	for _, other := range []string{
		"HadoopV1/fig3-grep/w8/1",  // engine differs
		"SMapReduce/open-mix/w8/1", // workload differs
		"SMapReduce/fig3-grep/w4/1",
		"SMapReduce/fig3-grep/w8/2",
	} {
		if RepeatSeed(other, 0) == RepeatSeed(key, 0) {
			t.Errorf("keys %q and %q share repeat-0 seed", other, key)
		}
	}
}

func TestMetricsValue(t *testing.T) {
	m := Metrics{Jobs: 1, Completed: 2, MakespanS: 3, MeanExecS: 4, P50S: 5, P99S: 6, SLOMisses: 7, Decisions: 8}
	for i, name := range MetricNames {
		if got, want := m.Value(name), float64(i+1); got != want {
			t.Errorf("Value(%q) = %v, want %v", name, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Value on an unknown metric did not panic")
		}
	}()
	m.Value("walltime")
}
