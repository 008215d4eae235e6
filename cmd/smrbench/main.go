// Command smrbench regenerates the paper's evaluation figures (Fig. 1
// and Figs. 3–9) on the simulated cluster and prints one table per
// figure — the data behind EXPERIMENTS.md. With -extras it also runs
// the beyond-the-paper experiments (ablations, heterogeneous cluster,
// schedulers, speculation, multi-tenant shoot-out, …).
//
// Usage:
//
//	smrbench                 # all figures at paper scale
//	smrbench -fig 3 -fig 6   # a subset
//	smrbench -scale 0.25     # quicker, smaller inputs
//	smrbench -extras -csv d  # figures plus extras, each table also as d/<name>.csv
//
// -cpuprofile / -memprofile write pprof profiles of the run. Exit
// status is 0 on success, 1 if any figure or experiment failed and 2
// on a bad flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"smapreduce/internal/experiments"
)

// registry is the experiment list the command runs, in order: every
// figure selected by -fig, then the extras with -extras.
var registry = experiments.Registry

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments, streams and status code, so
// the command is testable in-process and every exit path flushes the
// profiles.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var figs []int
	scale := fs.Float64("scale", 1.0, "input size multiplier (1.0 = paper scale)")
	workers := fs.Int("workers", 16, "task trackers")
	seed := fs.Uint64("seed", 1, "simulation seed")
	trials := fs.Int("trials", 1, "average metrics over N trials (the paper uses 2)")
	csvDir := fs.String("csv", "", "also write each figure's data as CSV into this directory")
	charts := fs.Bool("charts", false, "print an ASCII chart under each figure that has one")
	withExtras := fs.Bool("extras", false, "also run the beyond-the-paper experiments (ablations, heterogeneous cluster, schedulers, speculation)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	fs.Func("fig", "figure number to run (repeatable; default: all)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil {
			return err
		}
		if n == 0 || !slices.ContainsFunc(registry, func(e *experiments.Experiment) bool { return e.Figure == n }) {
			return fmt.Errorf("no figure %d (figures are 1 and 3–9; figure 2 is the architecture diagram)", n)
		}
		figs = append(figs, n)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var bad string
	switch {
	case !(*scale > 0) || math.IsInf(*scale, 1):
		bad = "-scale must be positive and finite"
	case *workers <= 0:
		bad = "-workers must be positive"
	case *trials < 1:
		bad = "-trials must be at least 1"
	}
	if bad != "" {
		fmt.Fprintf(stderr, "smrbench: %s\n", bad)
		fs.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "smrbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "smrbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "smrbench: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "smrbench: %v\n", err)
			}
			f.Close()
		}()
	}

	cfg := experiments.Config{Scale: *scale, Workers: *workers, Seed: *seed, Trials: *trials}.Normalize()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "smrbench: %v\n", err)
			return 1
		}
	}

	// runOne runs e, prints its table (and chart, with -charts), writes
	// its CSV and reports whether it succeeded.
	runOne := func(name string, e *experiments.Experiment) (time.Duration, bool) {
		start := time.Now()
		r, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "smrbench: %s failed: %v\n", name, err)
			return 0, false
		}
		t := r.Table()
		fmt.Fprint(stdout, t.String())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.Slug+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "smrbench: writing %s: %v\n", path, err)
				return 0, false
			}
		}
		if *charts {
			fmt.Fprint(stdout, r.Chart())
		}
		return time.Since(start).Round(time.Millisecond), true
	}

	fmt.Fprintf(stdout, "smrbench: %d workers, scale %.2f, seed %d\n\n", cfg.Workers, cfg.Scale, cfg.Seed)
	var failed []string
	for _, e := range registry {
		name, progress := e.Slug, "(%s in %v)\n\n"
		if e.Figure != 0 {
			if len(figs) > 0 && !slices.Contains(figs, e.Figure) {
				continue
			}
			name, progress = fmt.Sprintf("Figure %d", e.Figure), "(%s regenerated in %v)\n\n"
		} else if !*withExtras {
			continue
		}
		if d, ok := runOne(name, e); ok {
			fmt.Fprintf(stdout, progress, name, d)
		} else {
			failed = append(failed, name)
		}
	}

	if len(failed) > 0 {
		fmt.Fprintf(stderr, "smrbench: failed: %s\n", strings.Join(failed, ", "))
		return 1
	}
	return 0
}
