package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smapreduce/internal/serve/ledger"
)

// writeStore builds a two-run ledger in a temporary directory, with
// each run's artifacts laid out as <dir>/<runID>/<name>, and returns
// the ledger path.
func writeStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	l, err := ledger.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	names := []string{"scenario.json", "stats.json", "events.jsonl"}
	for _, run := range []string{"run-1", "run-2"} {
		bodies := make([][]byte, len(names))
		if err := os.Mkdir(filepath.Join(dir, run), 0o755); err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			bodies[i] = []byte(run + "/" + name + " body\n")
			if err := os.WriteFile(filepath.Join(dir, run, name), bodies[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Append(run, names, bodies); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// exec drives the command in-process and returns (exit code, stdout,
// stderr).
func exec(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestIntactStoreVerifies(t *testing.T) {
	path := writeStore(t)
	code, stdout, stderr := exec(path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"chain OK (2 entries)", "artifacts OK (6 files across 2 runs)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

func TestTamperedArtifactFails(t *testing.T) {
	path := writeStore(t)
	art := filepath.Join(filepath.Dir(path), "run-2", "stats.json")
	body, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	body[0] ^= 1
	if err := os.WriteFile(art, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := exec(path); code != 1 || !strings.Contains(stderr, "artifact verification failed") {
		t.Fatalf("tampered artifact: exit %d, stderr %q; want 1 and an artifact failure", code, stderr)
	}
	// The chain itself is intact, so a chain-only check still passes.
	if code, _, stderr := exec("-chain-only", path); code != 0 {
		t.Fatalf("-chain-only on tampered store: exit %d: %s", code, stderr)
	}
}

func TestBrokenPrevLinkFails(t *testing.T) {
	path := writeStore(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ledger.ParseJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	entries[1].Prev = ledger.Genesis
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := exec(path); code != 1 || !strings.Contains(stderr, "prev hash") {
		t.Fatalf("broken prev link: exit %d, stderr %q; want 1 and a prev-hash failure", code, stderr)
	}
}

func TestUsageExits2(t *testing.T) {
	for _, args := range [][]string{nil, {"a.jsonl", "b.jsonl"}, {"-no-such-flag", "a.jsonl"}} {
		if code, _, _ := exec(args...); code != 2 {
			t.Errorf("args %q: exit %d, want 2", args, code)
		}
	}
}
