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
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"smapreduce/internal/experiments"
	"smapreduce/internal/metrics"
)

// allFigures is the default -fig set: every key of figures, in order.
var allFigures = []int{1, 3, 4, 5, 6, 7, 8, 9}

// figList collects repeated -fig flags.
type figList []int

func (f *figList) String() string { return fmt.Sprint([]int(*f)) }

func (f *figList) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	if _, ok := figures[n]; !ok {
		return fmt.Errorf("no figure %d (figures are 1 and 3–9; figure 2 is the architecture diagram)", n)
	}
	*f = append(*f, n)
	return nil
}

// result is what every experiment returns; figures with a chart also
// implement charter.
type result interface{ Table() *metrics.Table }

type charter interface{ Chart() string }

type experiment struct {
	slug string // CSV file name; also the progress label of an extra
	run  func(experiments.Config) (result, error)
}

// exp adapts a typed experiments entry point to the common shape.
func exp[R result](slug string, fn func(experiments.Config) (R, error)) experiment {
	return experiment{slug, func(cfg experiments.Config) (result, error) { return fn(cfg) }}
}

var figures = map[int]experiment{
	1: exp("fig1", experiments.Figure1),
	3: exp("fig3", experiments.Figure3),
	4: exp("fig4", experiments.Figure4),
	5: exp("fig5", experiments.Figure5),
	6: exp("fig6", experiments.Figure6),
	7: exp("fig7", experiments.Figure7),
	8: exp("fig8", experiments.Figure8),
	9: exp("fig9", experiments.Figure9),
}

var extras = []experiment{
	exp("ablation-bounds", experiments.AblationBounds),
	exp("ablation-slowstart", experiments.AblationSlowStart),
	exp("ablation-confirmations", experiments.AblationConfirmations),
	exp("ablation-lazy-eager", experiments.AblationLazyVsEager),
	exp("ablation-tailboost", experiments.AblationTailBoost),
	exp("heterogeneous", experiments.Heterogeneous),
	exp("schedulers", experiments.Schedulers),
	exp("speculation", experiments.Speculation),
	exp("oversubscription", experiments.Oversubscription),
	exp("oracle-gap", experiments.OracleGap),
	exp("controllers", experiments.ControllerComparison),
	exp("skew", experiments.SkewSensitivity),
	exp("trace", experiments.TraceWorkload),
	exp("multitenant", experiments.MultiTenantShootout),
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments, streams and status code, so
// the command is testable in-process and every exit path flushes the
// profiles.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var figs figList
	scale := fs.Float64("scale", 1.0, "input size multiplier (1.0 = paper scale)")
	workers := fs.Int("workers", 16, "task trackers")
	seed := fs.Uint64("seed", 1, "simulation seed")
	trials := fs.Int("trials", 1, "average metrics over N trials (the paper uses 2)")
	csvDir := fs.String("csv", "", "also write each figure's data as CSV into this directory")
	charts := fs.Bool("charts", false, "print an ASCII chart under each figure that has one")
	withExtras := fs.Bool("extras", false, "also run the beyond-the-paper experiments (ablations, heterogeneous cluster, schedulers, speculation)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	fs.Var(&figs, "fig", "figure number to run (repeatable; default: all)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if len(figs) == 0 {
		figs = allFigures
	}
	sort.Ints(figs)

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

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.Seed = *seed
	cfg.Trials = *trials

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "smrbench: %v\n", err)
			return 1
		}
	}

	// runOne runs e, prints its table (and chart, with -charts), writes
	// its CSV and reports whether it succeeded.
	runOne := func(name string, e experiment) (time.Duration, bool) {
		start := time.Now()
		r, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "smrbench: %s failed: %v\n", name, err)
			return 0, false
		}
		t := r.Table()
		fmt.Fprint(stdout, t.String())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.slug+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "smrbench: writing %s: %v\n", path, err)
				return 0, false
			}
		}
		if c, ok := r.(charter); ok && *charts {
			fmt.Fprint(stdout, c.Chart())
		}
		return time.Since(start).Round(time.Millisecond), true
	}

	fmt.Fprintf(stdout, "smrbench: %d workers, scale %.2f, seed %d\n\n", cfg.Workers, cfg.Scale, cfg.Seed)
	var failed []string
	for _, n := range figs {
		name := fmt.Sprintf("Figure %d", n)
		if d, ok := runOne(name, figures[n]); ok {
			fmt.Fprintf(stdout, "(%s regenerated in %v)\n\n", name, d)
		} else {
			failed = append(failed, name)
		}
	}
	if *withExtras {
		for _, e := range extras {
			if d, ok := runOne(e.slug, e); ok {
				fmt.Fprintf(stdout, "(%s in %v)\n\n", e.slug, d)
			} else {
				failed = append(failed, e.slug)
			}
		}
	}

	if len(failed) > 0 {
		fmt.Fprintf(stderr, "smrbench: failed: %s\n", strings.Join(failed, ", "))
		return 1
	}
	return 0
}
