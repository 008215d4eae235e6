package grid

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// tinySpec is a fast four-cell grid for run-loop tests.
const tinySpec = `{
  "name": "tiny",
  "repeats": 2,
  "seeds": [1, 2],
  "engines": ["hadoop", "smr"],
  "scales": [{"name": "w4", "workers": 4, "input_scale": 0.25}],
  "workloads": [{"name": "one-grep", "scenario": {"jobs": [{"bench": "grep", "input_gb": 1, "reduces": 2}]}}]
}`

// runTiny sweeps tinySpec into a fresh temp dir and returns both.
func runTiny(t *testing.T, opts RunOptions) (*Result, string) {
	t.Helper()
	if opts.Spec == nil {
		opts.Spec = mustSpec(t, tinySpec)
	}
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, opts.Dir
}

func readArtifact(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return data
}

func TestRunProducesValidArtifacts(t *testing.T) {
	spec := mustSpec(t, tinySpec)
	res, dir := runTiny(t, RunOptions{Spec: spec})
	if res.Resumed != 0 || res.Ran != 4 {
		t.Errorf("fresh sweep: resumed %d, ran %d; want 0, 4", res.Resumed, res.Ran)
	}
	for i, rec := range res.Records {
		if rec.Key != res.Cells[i].Key {
			t.Errorf("record %d keyed %q, cell is %q", i, rec.Key, res.Cells[i].Key)
		}
		if len(rec.Repeats) != spec.Repeats {
			t.Errorf("cell %s: %d repeats, want %d", rec.Key, len(rec.Repeats), spec.Repeats)
		}
		for rep, m := range rec.Repeats {
			if m.Jobs != 1 || m.Completed != 1 || m.MakespanS <= 0 {
				t.Errorf("cell %s repeat %d: implausible metrics %+v", rec.Key, rep, m)
			}
		}
	}
	if err := ValidateCSV(spec, readArtifact(t, dir, GridCSV)); err != nil {
		t.Errorf("fresh sweep CSV invalid: %v", err)
	}
	for _, name := range []string{GridJSON, AnalysisTables, JournalFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
}

// TestRunIdempotent reruns a finished directory: everything resumes
// from the journal and the artifacts are rewritten byte-identically.
func TestRunIdempotent(t *testing.T) {
	spec := mustSpec(t, tinySpec)
	_, dir := runTiny(t, RunOptions{Spec: spec})
	before := readArtifact(t, dir, GridCSV)
	res, _ := runTiny(t, RunOptions{Spec: spec, Dir: dir})
	if res.Resumed != 4 || res.Ran != 0 {
		t.Errorf("rerun: resumed %d, ran %d; want 4, 0", res.Resumed, res.Ran)
	}
	if after := readArtifact(t, dir, GridCSV); string(before) != string(after) {
		t.Error("rerun changed grid.csv")
	}
}

// TestRunRejectsForeignJournal covers the journal validation paths: a
// journal from a different grid, a duplicated line, a wrong repeat
// count and a torn final line must all refuse to resume.
func TestRunRejectsForeignJournal(t *testing.T) {
	spec := mustSpec(t, tinySpec)
	_, dir := runTiny(t, RunOptions{Spec: spec})
	journal := readArtifact(t, dir, JournalFile)

	// Seeds [3, 4] shares no cells with [1, 2]; repeats 3 disagrees
	// with the journaled records' 2.
	otherSeeds := mustSpec(t, tinySpec)
	otherSeeds.Seeds = []uint64{3, 4}
	otherRepeats := mustSpec(t, tinySpec)
	otherRepeats.Repeats = 3

	cases := map[string]struct {
		spec    *Spec
		journal []byte
	}{
		"unknown cell":   {otherSeeds, journal},
		"repeat count":   {otherRepeats, journal},
		"duplicate cell": {spec, append(append([]byte{}, journal...), journal...)},
		"torn line":      {spec, journal[:len(journal)-3]},
	}

	for name, tc := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalFile), tc.journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(RunOptions{Spec: tc.spec, Dir: dir}); err == nil {
			t.Errorf("%s: resume over a bad journal succeeded", name)
		}
	}
}

// TestRunStopAfter pins the deterministic-interruption contract:
// exactly StopAfter new cells journal (plus any already in flight),
// Run reports ErrInterrupted, and the final artifacts are not written.
func TestRunStopAfter(t *testing.T) {
	spec := mustSpec(t, tinySpec)
	dir := t.TempDir()
	res, err := Run(RunOptions{Spec: spec, Dir: dir, Workers: 1, StopAfter: 2})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Ran != 2 {
		t.Errorf("ran %d cells before stopping, want 2 (single worker)", res.Ran)
	}
	if _, statErr := os.Stat(filepath.Join(dir, GridCSV)); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("interrupted sweep wrote %s", GridCSV)
	}
}

// TestRunStopping covers the cooperative-stop hook (the SIGINT path):
// a predicate that trips immediately lets no cell start.
func TestRunStopping(t *testing.T) {
	spec := mustSpec(t, tinySpec)
	res, err := Run(RunOptions{Spec: spec, Dir: t.TempDir(), Stopping: func() bool { return true }})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Ran != 0 {
		t.Errorf("ran %d cells under an immediate stop, want 0", res.Ran)
	}
}
