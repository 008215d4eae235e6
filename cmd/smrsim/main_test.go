package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens under testdata/ were recorded from smrsim before its
// flags became a scenario.Scenario run through core.Run; the run paths
// must reproduce them byte for byte.

// runOK runs the command in-process and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run %q: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestDefaultRunGolden(t *testing.T) {
	if got, want := runOK(t), golden(t, "default.golden"); got != want {
		t.Errorf("default run stdout differs:\n%s\nwant:\n%s", got, want)
	}
}

func TestChaosEventsGolden(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	got := runOK(t, "-bench", "terasort", "-input-gb", "10",
		"-chaos", "crash tt3 @20; rejoin tt3 @60", "-events", events)
	if want := golden(t, "chaos.golden"); got != want {
		t.Errorf("chaos run stdout differs:\n%s\nwant:\n%s", got, want)
	}
	if readFile(t, events) != golden(t, "chaos-events.golden.jsonl") {
		t.Error("chaos run event log differs from the golden")
	}
}

func TestArrivalExplainGolden(t *testing.T) {
	got := runOK(t, "-engine", "fairshare", "-arrive", "../../examples/multitenant/arrivals.json", "-explain")
	if want := golden(t, "arrive-explain.golden"); got != want {
		t.Errorf("arrival run stdout differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceLogGolden pins -tracelog: the event log rendered as text,
// one line per event except task starts and completions, ahead of the
// usual summary. The chaos schedule makes it show the fault, blacklist
// and probation lines next to speculation and slot changes.
func TestTraceLogGolden(t *testing.T) {
	got := runOK(t, "-bench", "terasort", "-input-gb", "10", "-speculate", "-tracelog",
		"-chaos", "crash tt3 @5; rejoin tt3 @20; hbloss tt2 @4 for 30; slow node4 @3 for 10 cpu 0.5 disk 0.5; link node1 @8 for 5 egress 0.2 ingress 0")
	if want := golden(t, "tracelog.golden"); got != want {
		t.Errorf("-tracelog stdout differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailAtIsChaosCrash pins -fail-at/-fail-id as shorthand for a
// chaos crash fault: both runs write the same event log.
func TestFailAtIsChaosCrash(t *testing.T) {
	dir := t.TempDir()
	failAt, crash := filepath.Join(dir, "fail-at.jsonl"), filepath.Join(dir, "crash.jsonl")
	a := runOK(t, "-bench", "terasort", "-input-gb", "10", "-fail-at", "30", "-fail-id", "2", "-events", failAt)
	b := runOK(t, "-bench", "terasort", "-input-gb", "10", "-chaos", "crash tt2 @30", "-events", crash)
	if a != b {
		t.Errorf("stdout differs:\n%s\nvs\n%s", a, b)
	}
	if readFile(t, failAt) != readFile(t, crash) {
		t.Error("-fail-at 30 -fail-id 2 and -chaos 'crash tt2 @30' wrote different event logs")
	}
}

func TestFleetMixGolden(t *testing.T) {
	out := runOK(t, "-fleet", "64", "-fleet-mix", "-fleet-workers", "2")
	var kept []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "  wall:") {
			kept = append(kept, line)
		}
	}
	if got, want := strings.Join(kept, ""), golden(t, "fleet-mix.golden"); got != want {
		t.Errorf("fleet summary differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestSinksAndReports drives the optional outputs: trace, telemetry,
// history, the -tracelog text and a capacity engine's decision log.
func TestSinksAndReports(t *testing.T) {
	dir := t.TempDir()
	tracePath, telemPath := filepath.Join(dir, "run.json"), filepath.Join(dir, "run.csv")
	out := runOK(t, "-bench", "grep", "-input-gb", "2", "-jobs", "2", "-tracelog", "-history",
		"-trace", tracePath, "-tracev", "1", "-telemetry", telemPath)
	for _, want := range []string{"job-submitted s0-grep-2: 16 maps, 30 reduces", "mean exec:", "trace summary:", "slot/rate timeline:", "job s0-grep-1:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	for _, path := range []string{tracePath, telemPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
	out = runOK(t, "-engine", "capacityqueue", "-bench", "grep", "-input-gb", "2", "-explain")
	for _, want := range []string{"capacity decisions:", "-explain: no slot manager"} {
		if !strings.Contains(out, want) {
			t.Errorf("capacity run stdout lacks %q:\n%s", want, out)
		}
	}
}

func TestList(t *testing.T) {
	if out := runOK(t, "-list"); !strings.Contains(out, "terasort") {
		t.Errorf("-list output lacks terasort:\n%s", out)
	}
}

func TestBadFlagsReturnErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":         {"-nope"},
		"positional argument":  {"extra"},
		"unknown engine":       {"-engine", "spark"},
		"unknown benchmark":    {"-bench", "sort-of-grep"},
		"negative input":       {"-input-gb", "-1"},
		"infinite input":       {"-input-gb", "Inf"},
		"negative workers":     {"-workers", "-3"},
		"trace verbosity":      {"-tracev", "9"},
		"chaos out of range":   {"-chaos", "crash tt99 @1"},
		"empty chaos":          {"-chaos", "# nothing"},
		"fail-id out of range": {"-fail-at", "5", "-fail-id", "99"},
		"bad arrivals":         {"-arrive", "{not json"},
		"too many slow nodes":  {"-slow-nodes", "16"},
		"bad scheduler":        {"-scheduler", "lottery"},
	}
	for name, args := range cases {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%s: %q accepted", name, args)
			continue
		}
		// Command-line mistakes are usage errors (exit 2); a well-formed
		// command whose values fail validation is a run failure (exit 1).
		want := 1
		if name == "unknown flag" || name == "positional argument" {
			want = 2
		}
		if code := exitCode(err, io.Discard); code != want {
			t.Errorf("%s: exit code %d, want %d (err %v)", name, code, want, err)
		}
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{"-h"}, &stdout, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
	if code := exitCode(err, io.Discard); code != 0 {
		t.Errorf("-h: exit code %d, want 0", code)
	}
}

// TestBuildArrivalsInlineAndErrors covers -arrive's file-or-inline
// convention and its parse errors.
func TestBuildArrivalsInlineAndErrors(t *testing.T) {
	inline := `{"horizon": 600, "tenants": [
		{"name": "inline-tenant", "benchmarks": ["grep"], "mean_interarrival": 60,
		 "input_mb_min": 100, "input_mb_max": 200, "reduces": 4, "priority": 3}]}`
	if out := runOK(t, "-engine", "fairshare", "-arrive", inline); !strings.Contains(out, "inline-tenant") {
		t.Errorf("inline arrival config not run:\n%s", out)
	}
	for _, arg := range []string{"/no/such/file.json", `{"tenants": []}`} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-arrive", arg}, &stdout, &stderr); err == nil {
			t.Errorf("-arrive %q accepted", arg)
		}
	}
}
