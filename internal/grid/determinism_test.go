package grid

import (
	"encoding/json"
	"runtime"
	"testing"
)

// This file is the grid determinism matrix: for every smoke-grid cell,
// the per-seed result bytes (the JSON-encoded CellRecord — exactly
// what the journal stores) must be identical across worker counts
// (1 vs GOMAXPROCS) and between the default and reference modes
// (SMR_REFERENCE=1), extending the per-layer differential pins to grid
// execution.

// recordBytes sweeps the smoke grid and returns cellKey → journal-line
// bytes for every cell.
func recordBytes(t *testing.T, workers int) map[string]string {
	t.Helper()
	spec := mustSpec(t, readSmokeSpec(t))
	res, err := Run(RunOptions{Spec: spec, Dir: t.TempDir(), Workers: workers})
	if err != nil {
		t.Fatalf("sweep with %d workers: %v", workers, err)
	}
	out := make(map[string]string, len(res.Records))
	for _, rec := range res.Records {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out[rec.Key] = string(line)
	}
	return out
}

func diffRecords(t *testing.T, label string, base, other map[string]string) {
	t.Helper()
	if len(base) != len(other) {
		t.Fatalf("%s: %d cells vs %d", label, len(other), len(base))
	}
	for key, want := range base {
		if got := other[key]; got != want {
			t.Errorf("%s: cell %s diverged:\n got %s\nwant %s", label, key, got, want)
		}
	}
}

func TestGridDeterminismAcrossWorkerCounts(t *testing.T) {
	serial := recordBytes(t, 1)
	parallel := recordBytes(t, runtime.GOMAXPROCS(0))
	diffRecords(t, "workers 1 vs GOMAXPROCS", serial, parallel)
}

func TestGridReferenceDifferential(t *testing.T) {
	def := recordBytes(t, 2)
	t.Setenv("SMR_REFERENCE", "1")
	ref := recordBytes(t, 2)
	diffRecords(t, "default vs reference mode", def, ref)
}

// TestGridDeterminismEnvWorkers covers the SMR_WORKERS override used
// by CI and the Makefile: it must select parallelism without touching
// results.
func TestGridDeterminismEnvWorkers(t *testing.T) {
	serial := recordBytes(t, 1)
	t.Setenv("SMR_WORKERS", "3")
	env := recordBytes(t, 0) // 0 = resolve via par.Workers() → SMR_WORKERS
	diffRecords(t, "explicit 1 vs SMR_WORKERS=3", serial, env)
}
