package grid

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestParityGoldens sweeps testdata/parity/spec.json — explicit
// fair-share tenants, per-job tenants and SLOs, submit_at, a
// non-dyadic input_scale, arrivals with tenants, chaos, and both paper
// engines — and byte-compares grid.csv, the analysis tables and the
// journal lines against goldens recorded from the equivalent spec in
// the grid's previous workload format, before workloads became
// scenarios.
func TestParityGoldens(t *testing.T) {
	golden := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", "parity", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	spec := mustSpec(t, string(golden("spec.json")))
	dir := t.TempDir()
	if _, err := Run(RunOptions{Spec: spec, Dir: dir, Workers: 2}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for name, got := range map[string][]byte{
		"grid.csv":  readArtifact(t, dir, GridCSV),
		"tables.md": readArtifact(t, dir, AnalysisTables),
	} {
		if !bytes.Equal(got, golden(name)) {
			t.Errorf("%s differs from the golden:\n%s", name, got)
		}
	}
	// Journal lines land in completion order; their content is pinned.
	lines := strings.SplitAfter(string(readArtifact(t, dir, JournalFile)), "\n")
	slices.Sort(lines)
	if got := strings.Join(lines, ""); got != string(golden("journal.sorted.jsonl")) {
		t.Errorf("journal lines differ from the golden:\n%s", got)
	}
}
