package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkTrace writes body to a trace file and drives the command on it
// in-process, returning (exit code, stdout, stderr).
func checkTrace(t *testing.T, body string) (int, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{path}, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestValidTracePrintsPhaseCounts(t *testing.T) {
	code, stdout, stderr := checkTrace(t, `{"displayTimeUnit":"ms","traceEvents":[
		{"ph":"M","pid":1,"tid":0,"name":"process_name"},
		{"ph":"X","pid":1,"tid":1,"ts":0,"dur":5,"name":"map"},
		{"ph":"X","pid":1,"tid":2,"ts":1,"dur":3,"name":"reduce"},
		{"ph":"i","pid":1,"tid":0,"ts":2,"name":"barrier"}]}`)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, ": 4 events ok  M=1  X=2  i=1") {
		t.Errorf("stdout lacks the per-phase summary:\n%s", stdout)
	}
}

func TestInvalidTracesExit1(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"no events", `{"traceEvents":[]}`, "holds no events"},
		{"no phase", `{"traceEvents":[{"ts":0,"name":"a"}]}`, "has no phase"},
		{"no duration", `{"traceEvents":[{"ph":"X","ts":0,"name":"a"}]}`, "has no duration"},
		{"not JSON", `{"traceEvents":`, "not valid trace JSON"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := checkTrace(t, tc.body)
			if code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q lacks %q", stderr, tc.want)
			}
		})
	}
}

func TestWrongArgCountExits2(t *testing.T) {
	for _, args := range [][]string{nil, {"a.json", "b.json"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %q: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage:") {
			t.Errorf("args %q: no usage line on stderr", args)
		}
	}
}
