package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smapreduce/internal/grid"
)

const tinySpec = `{
  "name": "tiny",
  "repeats": 1,
  "seeds": [1],
  "engines": ["hadoop", "smr"],
  "scales": [{"name": "w4", "workers": 4, "input_scale": 0.25}],
  "workloads": [{"name": "one-grep", "scenario": {"jobs": [{"bench": "grep", "input_gb": 1, "reduces": 2}]}}]
}`

// writeSpec drops tinySpec into a temp file and returns its path.
func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// exec drives the command in-process and returns (exit code, stdout,
// stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunThenValidate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	code, _, stderr := exec(t, "run", "-spec", writeSpec(t), "-out", dir, "-quiet")
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr)
	}
	for _, name := range []string{grid.SpecFile, grid.JournalFile, grid.GridCSV, grid.GridJSON, grid.AnalysisTables, grid.RunLog} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("run left no %s: %v", name, err)
		}
	}
	code, stdout, stderr := exec(t, "validate", "-out", dir)
	if code != 0 {
		t.Fatalf("validate exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "grid OK: 2 cells") {
		t.Errorf("validate stdout = %q, want a grid OK summary", stdout)
	}
}

func TestRunRefusesDirWithJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	spec := writeSpec(t)
	if code, _, stderr := exec(t, "run", "-spec", spec, "-out", dir, "-quiet"); code != 0 {
		t.Fatalf("first run exited %d: %s", code, stderr)
	}
	code, _, stderr := exec(t, "run", "-spec", spec, "-out", dir, "-quiet")
	if code != 1 || !strings.Contains(stderr, "resume") {
		t.Errorf("rerun into a journaled dir: code %d, stderr %q; want 1 and a resume hint", code, stderr)
	}
}

// TestResumeFinishedRun checks resume is a safe no-op on a finished
// directory and keeps the artifacts byte-identical.
func TestResumeFinishedRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if code, _, stderr := exec(t, "run", "-spec", writeSpec(t), "-out", dir, "-quiet"); code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr)
	}
	before, err := os.ReadFile(filepath.Join(dir, grid.GridCSV))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := exec(t, "resume", "-out", dir, "-quiet"); code != 0 {
		t.Fatalf("resume exited %d: %s", code, stderr)
	}
	after, err := os.ReadFile(filepath.Join(dir, grid.GridCSV))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("resume of a finished run changed grid.csv")
	}
}

func TestValidateIncompleteRunHintsResume(t *testing.T) {
	// A directory holding only the spec (interrupted before any
	// artifact) must fail validation with a resume hint.
	dir := t.TempDir()
	spec, err := grid.ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, grid.SpecFile), spec.Canonical(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := exec(t, "validate", "-out", dir)
	if code != 1 || !strings.Contains(stderr, "resume") {
		t.Errorf("validate on an incomplete run: code %d, stderr %q; want 1 and a resume hint", code, stderr)
	}
}

func TestUsageAndBadInvocations(t *testing.T) {
	cases := []struct {
		args []string
		code int
		err  string // required substring of stderr
	}{
		{nil, 1, "usage"},
		{[]string{"help"}, 0, ""},
		{[]string{"-h"}, 0, ""},
		{[]string{"frobnicate"}, 1, "unknown subcommand"},
		{[]string{"run"}, 1, "-spec is required"},
		{[]string{"run", "-spec", "/does/not/exist.json"}, 1, "no such file"},
		{[]string{"resume"}, 1, "-out is required"},
		{[]string{"validate"}, 1, "-out is required"},
		{[]string{"validate", "-out", "/does/not/exist"}, 1, "no such file"},
	}
	for _, tc := range cases {
		code, _, stderr := exec(t, tc.args...)
		if code != tc.code {
			t.Errorf("%v: exited %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		if tc.err != "" && !strings.Contains(stderr, tc.err) {
			t.Errorf("%v: stderr %q, want it to mention %q", tc.args, stderr, tc.err)
		}
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := exec(t, "run", "-spec", path)
	if code != 1 || !strings.Contains(stderr, "grid:") {
		t.Errorf("bad spec: code %d, stderr %q; want 1 and a grid error", code, stderr)
	}
}
