package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smapreduce/internal/experiments"
)

// exec drives the command in-process and returns (exit code, stdout,
// stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFigureTableAndCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	code, stdout, stderr := exec(t, "-fig", "4", "-scale", "0.05", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cfg := experiments.Default()
	cfg.Scale = 0.05
	want, err := experiments.Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, want.Table().String()) {
		t.Errorf("stdout does not carry the Figure 4 table:\n%s", stdout)
	}
	if !strings.Contains(stdout, "(Figure 4 regenerated in ") {
		t.Errorf("stdout has no Figure 4 progress line:\n%s", stdout)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.Table().CSV() {
		t.Errorf("fig4.csv differs from the Figure 4 table's CSV:\n%s", got)
	}
}

func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "2"},
		{"-fig", "42"},
		{"-fig", "x"},
		{"-benchjson"},
		{"-telemetry", "t.csv"},
	} {
		code, stdout, stderr := exec(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("%v: ran something: %q", args, stdout)
		}
		if !strings.Contains(stderr, "Usage of smrbench") {
			t.Errorf("%v: stderr has no usage text: %q", args, stderr)
		}
	}
	if code, _, stderr := exec(t, "-fig", "2"); code != 2 || !strings.Contains(stderr, "no figure 2") {
		t.Errorf("-fig 2: exit %d, stderr %q; want 2 and a no-figure message", code, stderr)
	}
}

func TestHelpExits0(t *testing.T) {
	code, _, stderr := exec(t, "-h")
	if code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	var listed []string
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "  -") {
			listed = append(listed, strings.Fields(line)[0])
		}
	}
	want := "-charts -cpuprofile -csv -extras -fig -memprofile -scale -seed -trials -workers"
	if got := strings.Join(listed, " "); got != want {
		t.Errorf("-h lists %s, want %s", got, want)
	}
}

// nonEmpty fails the test unless path exists and has content.
func nonEmpty(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Errorf("%s is empty", filepath.Base(path))
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, _, stderr := exec(t, "-fig", "4", "-scale", "0.05", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	nonEmpty(t, cpu)
	nonEmpty(t, mem)
}

// A failing figure still exits 1 through the deferred profile writers.
func TestProfilesWrittenOnFailure(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, _, stderr := exec(t, "-fig", "4", "-workers", "-1", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr)
	}
	if !strings.Contains(stderr, "failed: Figure 4") {
		t.Errorf("stderr does not name the failed figure: %q", stderr)
	}
	nonEmpty(t, cpu)
	nonEmpty(t, mem)
}

func TestExtrasWriteCSV(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := exec(t, "-fig", "1", "-extras", "-scale", "0.05", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, e := range extras {
		if !strings.Contains(stdout, "("+e.slug+" in ") {
			t.Errorf("stdout has no progress line for %s", e.slug)
		}
		nonEmpty(t, filepath.Join(dir, e.slug+".csv"))
	}
}
