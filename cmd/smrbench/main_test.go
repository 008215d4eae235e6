package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"smapreduce/internal/core"
	"smapreduce/internal/experiments"
	"smapreduce/internal/mr"
)

// exec drives the command in-process and returns (exit code, stdout,
// stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// timing matches the wall-time progress lines, the only output that
// differs between identical runs.
var timing = regexp.MustCompile(`(?m)^\(.* in [0-9.]+[µm]?s\)\n`)

// find returns the registered experiment with this slug.
func find(t *testing.T, slug string) *experiments.Experiment {
	t.Helper()
	for _, e := range registry {
		if e.Slug == slug {
			return e
		}
	}
	t.Fatalf("no experiment %s", slug)
	return nil
}

func TestFigureTableAndCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	code, stdout, stderr := exec(t, "-fig", "4", "-scale", "0.05", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	r, err := find(t, "fig4").Run(experiments.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want := r.Table()
	if !strings.Contains(stdout, want.String()) {
		t.Errorf("stdout does not carry the Figure 4 table:\n%s", stdout)
	}
	if !strings.Contains(stdout, "(Figure 4 regenerated in ") {
		t.Errorf("stdout has no Figure 4 progress line:\n%s", stdout)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.CSV() {
		t.Errorf("fig4.csv differs from the Figure 4 table's CSV:\n%s", got)
	}
}

// TestGoldens pins the command's whole output, stdout without the
// timing lines and every CSV, against runs recorded before the figures
// and extras shared one experiment runner.
func TestGoldens(t *testing.T) {
	for _, g := range []struct {
		name  string
		args  []string
		heavy bool
	}{
		{"default", []string{"-extras", "-charts"}, true},
		{"small", []string{"-scale", "0.1", "-workers", "8", "-extras", "-charts"}, false},
		{"trials", []string{"-scale", "0.25", "-trials", "2", "-fig", "3", "-fig", "5", "-fig", "6", "-fig", "8", "-fig", "9", "-charts"}, true},
	} {
		t.Run(g.name, func(t *testing.T) {
			if g.heavy && testing.Short() {
				t.Skip("paper-scale golden skipped in -short mode")
			}
			golden := filepath.Join("testdata", g.name)
			dir := t.TempDir()
			code, stdout, stderr := exec(t, append(g.args, "-csv", dir)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			want, err := os.ReadFile(filepath.Join(golden, "stdout.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := timing.ReplaceAllString(stdout, ""); got != string(want) {
				t.Errorf("stdout differs from %s/stdout.txt:\n%s", golden, got)
			}
			wantCSV, err := os.ReadDir(filepath.Join(golden, "csv"))
			if err != nil {
				t.Fatal(err)
			}
			gotCSV, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotCSV) != len(wantCSV) {
				t.Errorf("wrote %d CSV files, want %d", len(gotCSV), len(wantCSV))
			}
			for _, f := range wantCSV {
				want, err := os.ReadFile(filepath.Join(golden, "csv", f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, f.Name()))
				if err != nil {
					t.Error(err)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from the golden:\n%s", f.Name(), got)
				}
			}
		})
	}
}

func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "2"},
		{"-fig", "42"},
		{"-fig", "x"},
		{"-fig", "0"},
		{"-benchjson"},
		{"-telemetry", "t.csv"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-trials", "0"},
		{"-trials", "-2"},
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
	if code, _, stderr := exec(t, "-scale", "-1"); code != 2 || !strings.Contains(stderr, "-scale must be positive") {
		t.Errorf("-scale -1: exit %d, stderr %q; want 2 and a -scale message", code, stderr)
	}
}

// The header prints the configuration that runs: seed 0 means the
// default seed 1, so both print and compute the same.
func TestHeaderShowsNormalizedConfig(t *testing.T) {
	_, zero, _ := exec(t, "-seed", "0", "-fig", "8", "-scale", "0.05")
	code, one, stderr := exec(t, "-seed", "1", "-fig", "8", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(zero, "smrbench: 16 workers, scale 0.05, seed 1\n") {
		t.Errorf("-seed 0 header: %q", strings.SplitN(zero, "\n", 2)[0])
	}
	if timing.ReplaceAllString(zero, "") != timing.ReplaceAllString(one, "") {
		t.Errorf("-seed 0 and -seed 1 differ:\n%s\n%s", zero, one)
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
// The registry's Figure 4 is swapped for one whose only arm cannot
// build its cluster.
func TestProfilesWrittenOnFailure(t *testing.T) {
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = []*experiments.Experiment{{
		Slug:   "fig4",
		Figure: 4,
		Arms: func(experiments.Config) []experiments.Arm {
			return []experiments.Arm{{Labels: []string{"broken"}, Engine: core.EngineHadoopV1,
				Opts: core.Options{Cluster: mr.Config{Workers: -1}}}}
		},
	}}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, _, stderr := exec(t, "-fig", "4", "-cpuprofile", cpu, "-memprofile", mem)
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
	for _, e := range registry {
		if e.Figure != 0 {
			continue
		}
		if !strings.Contains(stdout, "("+e.Slug+" in ") {
			t.Errorf("stdout has no progress line for %s", e.Slug)
		}
		nonEmpty(t, filepath.Join(dir, e.Slug+".csv"))
	}
}
