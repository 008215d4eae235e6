// Command ledgercheck verifies a simulation-service run ledger
// offline: the hash-linked chain of entries (contiguous indices, prev
// links, Merkle roots and entry hashes all recompute) and, unless
// -chain-only, every recorded artifact byte-for-byte against the
// artifact store.
//
// Usage:
//
//	ledgercheck artifacts/ledger.jsonl
//	ledgercheck -chain-only downloaded-ledger.jsonl
//	ledgercheck -artifacts /srv/smr/artifacts /tmp/ledger.jsonl
//
// The artifact store root defaults to the ledger file's directory —
// the layout smrsim's -artifact-dir writes (<root>/<runID>/<name>).
// Exit status is 0 only when everything verifies.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"smapreduce/internal/serve/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams. It returns the
// exit status: 0 verified, 1 verification failed, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgercheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chainOnly := fs.Bool("chain-only", false, "verify only the hash chain, not artifact contents")
	artifacts := fs.String("artifacts", "", "artifact store root (default: the ledger file's directory)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ledgercheck [-chain-only] [-artifacts DIR] LEDGER.jsonl")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ledgercheck:", err)
		return 1
	}
	path := fs.Arg(0)

	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	entries, err := ledger.ParseJSONL(data)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", path, err))
	}
	if err := ledger.VerifyChain(entries); err != nil {
		return fail(fmt.Errorf("%s: chain verification failed: %w", path, err))
	}
	fmt.Fprintf(stdout, "ledgercheck: chain OK (%d entries)\n", len(entries))
	if *chainOnly || len(entries) == 0 {
		return 0
	}

	root := *artifacts
	if root == "" {
		root = filepath.Dir(path)
	}
	files := 0
	for _, e := range entries {
		err := ledger.VerifyArtifacts(e, func(name string) ([]byte, error) {
			return os.ReadFile(filepath.Join(root, e.RunID, name))
		})
		if err != nil {
			return fail(fmt.Errorf("artifact verification failed: %w", err))
		}
		files += len(e.Artifacts)
	}
	fmt.Fprintf(stdout, "ledgercheck: artifacts OK (%d files across %d runs)\n", files, len(entries))
	return 0
}
