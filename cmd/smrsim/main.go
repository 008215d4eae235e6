// Command smrsim runs one MapReduce workload on a simulated cluster
// under a chosen engine and prints the timeline, slot decisions and
// final metrics.
//
// Usage:
//
//	smrsim -engine smapreduce -bench terasort -input-gb 100
//	smrsim -engine hadoopv1 -bench grep -workers 16 -map-slots 3
//	smrsim -bench inverted-index -jobs 4 -stagger 5 -tracelog
//	smrsim -bench grep -speculate -slow-nodes 4 -fail-at 30 -fail-id 2
//	smrsim -bench terasort -chaos 'crash tt3 @20; rejoin tt3 @60' -events run.jsonl
//	smrsim -bench terasort -chaos schedule.chaos
//	smrsim -bench terasort -trace run.json -tracev 1 -explain
//	smrsim -bench terasort -serve :8080 -telemetry run.csv
//	smrsim -fleet 1024 -fleet-workers 8 -bench grep -input-gb 1
//	smrsim -fleet 256 -fleet-mix -seed 7
//	smrsim -engine fairshare -arrive examples/multitenant/arrivals.json
//	smrsim -engine capacityqueue -arrive '{"horizon":600,"tenants":[...]}' -explain
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/scenario"
	"smapreduce/internal/serve"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout, os.Stderr, notifyStop), os.Stderr))
}

// usageError marks a bad command line; run has already reported it
// with the usage text.
type usageError struct{ error }

// exitCode maps run's result to the exit status: 0 for success and -h,
// 2 for a usage error, 1 for any other failure, which it prints.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	fmt.Fprintln(stderr, "smrsim:", err)
	return 1
}

// run is main with injectable arguments, streams and stop source, so
// the command is testable in-process. The flags fill one
// scenario.Scenario; the run executes its Plan through core.Run. When
// a service is up, run calls stop once the service is ready to wait
// and drains the service when the returned channel delivers.
func run(args []string, stdout, stderr io.Writer, stop func() <-chan os.Signal) error {
	fs := flag.NewFlagSet("smrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engineName  = fs.String("engine", "smapreduce", "engine: hadoopv1 | yarn | smapreduce | fairshare | capacityqueue | gametheoretic")
		bench       = fs.String("bench", "histogram-ratings", "PUMA benchmark (see -list)")
		inputGB     = fs.Float64("input-gb", 100, "input size per job in GB")
		reduces     = fs.Int("reduces", 30, "reduce tasks per job")
		jobs        = fs.Int("jobs", 1, "number of identical jobs to submit")
		stagger     = fs.Float64("stagger", 5, "seconds between job submissions")
		workers     = fs.Int("workers", 16, "task trackers")
		mapSlots    = fs.Int("map-slots", 3, "initial map slots per tracker")
		reduceSlots = fs.Int("reduce-slots", 2, "initial reduce slots per tracker")
		seed        = fs.Uint64("seed", 1, "simulation seed")
		traceLog    = fs.Bool("tracelog", false, "print the runtime event log as text, one line per event except task starts and completions")
		tracePath   = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto or chrome://tracing)")
		traceV      = fs.Int("tracev", 0, "trace verbosity: 0 tasks+decisions, 1 +shuffle flows, 2 +all fabric flows")
		explain     = fs.Bool("explain", false, "print the slot manager's decision audit trail (full inputs per decision)")
		serveAddr   = fs.String("serve", "", "serve the simulation service on this address (POST /runs, SSE /runs/{id}/events, /ledger, /metrics, /trace) and stay up after the run")
		serveOnly   = fs.Bool("serve-only", false, "skip the local run: boot the simulation service (at -serve, default :0) and wait for submissions")
		serveWk     = fs.Int("serve-workers", 2, "simulation service worker pool size (concurrent runs)")
		serveQueue  = fs.Int("serve-queue", 0, "service queue depth beyond the workers before 429 shedding (0 = -serve-workers)")
		artifactDir = fs.String("artifact-dir", "", "mirror finished service runs' artifacts and the ledger (ledger.jsonl) under this directory")
		drainDur    = fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for draining in-flight service runs on SIGINT/SIGTERM")
		list        = fs.Bool("list", false, "list benchmarks and exit")
		scheduler   = fs.String("scheduler", "fifo", "job scheduler: fifo | fair")
		speculate   = fs.Bool("speculate", false, "enable speculative map execution")
		failAt      = fs.Float64("fail-at", 0, "kill tracker -fail-id at this virtual second (0 = no failure); shorthand for -chaos 'crash ttN @T'")
		failID      = fs.Int("fail-id", 0, "tracker to kill when -fail-at is set")
		chaosSpec   = fs.String("chaos", "", "fault schedule: a file path or an inline spec, e.g. 'crash tt3 @20; rejoin tt3 @60' (kinds: crash, rejoin, hbloss, slow, link)")
		arriveSpec  = fs.String("arrive", "", "open multi-tenant arrival stream: a JSON file path or inline JSON (see examples/multitenant/arrivals.json); replaces -bench/-jobs/-stagger")
		slowNodes   = fs.Int("slow-nodes", 0, "make the last N nodes half-speed (heterogeneous cluster)")
		eventsPath  = fs.String("events", "", "write the structured runtime event log (JSONL) to this file")
		telemPath   = fs.String("telemetry", "", "write the sampled telemetry series to this file (CSV if it ends in .csv, else JSONL) and print the slot/rate timeline")
		history     = fs.Bool("history", false, "print the per-job history report")
		fleetN      = fs.Int("fleet", 0, "run a fleet of N independent clusters in parallel and print merged stats (per-run flags like -trace/-serve/-chaos are ignored)")
		fleetWk     = fs.Int("fleet-workers", 0, "fleet worker-pool size (0 = GOMAXPROCS, overridable via SMR_WORKERS); -workers still means task trackers per cluster")
		fleetMix    = fs.Bool("fleet-mix", false, "give each fleet cluster a seed-derived PUMA workload mix instead of the -bench workload")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments %q", fs.Args())
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return usageError{err}
	}

	if *list {
		fmt.Fprintln(stdout, "available benchmarks:")
		for _, p := range puma.All() {
			fmt.Fprintf(stdout, "  %-24s %-12s shuffle ratio %.4f, thrash peak %.1f slots\n",
				p.Name, p.Class(), p.ShuffleRatio(), p.MapPeakSlots)
		}
		return nil
	}

	if *serveOnly {
		addr := *serveAddr
		if addr == "" {
			addr = ":0"
		}
		srv, err := startServer(stdout, stderr, addr, serve.Options{
			Workers:     *serveWk,
			Queue:       *serveQueue,
			ArtifactDir: *artifactDir,
		})
		if err != nil {
			return err
		}
		awaitShutdown(stderr, srv, *drainDur, stop())
		return nil
	}

	sc := scenario.Scenario{
		Engine:         *engineName,
		Seed:           *seed,
		Workers:        *workers,
		MapSlots:       *mapSlots,
		ReduceSlots:    *reduceSlots,
		Scheduler:      *scheduler,
		Speculate:      *speculate,
		SlowNodes:      *slowNodes,
		TraceVerbosity: *traceV,
	}
	if *chaosSpec != "" {
		sc.Chaos = fileOrInline(*chaosSpec)
	}
	if *failAt > 0 {
		sc.Chaos = fmt.Sprintf("crash tt%d @%s\n", *failID, strconv.FormatFloat(*failAt, 'g', -1, 64)) + sc.Chaos
	}
	if *arriveSpec != "" {
		acfg, err := arrival.ParseConfig([]byte(fileOrInline(*arriveSpec)))
		if err != nil {
			return fmt.Errorf("-arrive %q: %w", *arriveSpec, err)
		}
		sc.Arrivals = &acfg
	} else {
		sc.Jobs = []scenario.JobSet{{Bench: *bench, InputGB: *inputGB, Reduces: *reduces, Count: *jobs, Stagger: *stagger}}
	}
	plan, err := sc.Plan()
	if err != nil {
		return err
	}

	if *fleetN > 0 {
		return runFleet(stdout, *fleetN, *fleetWk, *fleetMix, *seed, sc.Arrivals, plan)
	}

	if len(plan.Chaos.Faults) > 0 {
		fmt.Fprintf(stderr, "smrsim: armed %d chaos faults\n%s", len(plan.Chaos.Faults), plan.Chaos)
	}
	plan.Options.Events = *eventsPath != "" || *traceLog
	var telem *telemetry.Collector
	if *telemPath != "" || *serveAddr != "" {
		telem = telemetry.NewCollector(0)
		plan.Options.Telemetry = telem
	}
	var tracer *trace.Tracer
	if *tracePath != "" || *serveAddr != "" {
		tracer = trace.New(trace.Options{Verbosity: sc.TraceVerbosity})
		plan.Options.Tracer = tracer
	}

	var srv *serve.Server
	if *serveAddr != "" {
		srv, err = startServer(stdout, stderr, *serveAddr, serve.Options{
			Workers:     *serveWk,
			Queue:       *serveQueue,
			ArtifactDir: *artifactDir,
			Collector:   telem,
			Tracer:      tracer,
		})
		if err != nil {
			return err
		}
	}

	res, err := core.Run(plan.Engine, plan.Options, plan.Specs...)
	if err != nil {
		return err
	}
	if srv != nil {
		srv.MarkDone()
	}

	if *traceLog {
		if err := res.Events.WriteText(stdout); err != nil {
			return err
		}
	}
	if *eventsPath != "" {
		if err := writeFile(*eventsPath, res.Events.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smrsim: wrote %d events to %s\n", len(res.Events.Events()), *eventsPath)
	}
	if *telemPath != "" {
		if err := telemetry.WriteFile(telem, *telemPath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smrsim: wrote %d telemetry series (%d ticks) to %s\n",
			len(telem.Names()), telem.Ticks(), *telemPath)
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, tracer.WriteChromeJSON); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "smrsim: wrote %d trace events to %s (open in Perfetto)\n",
			tracer.Len(), *tracePath)
	}

	cluster := plan.Options.Cluster
	fmt.Fprintf(stdout, "engine: %v   cluster: %d workers, %d/%d initial slots\n",
		res.Engine, cluster.Workers, cluster.MapSlots, cluster.ReduceSlots)
	fmt.Fprintf(stdout, "%-20s %10s %10s %10s %12s\n", "job", "map s", "reduce s", "exec s", "MB/s")
	for _, j := range res.Jobs {
		fmt.Fprintf(stdout, "%-20s %10.1f %10.1f %10.1f %12.1f\n",
			j.Spec.Name, j.MapTime(), j.ReduceTime(), j.ExecutionTime(), j.ThroughputMBps())
	}
	if len(res.Jobs) > 1 {
		fmt.Fprintf(stdout, "mean exec: %.1f s   last finish: %.1f s\n", res.MeanExecutionTime(), res.LastFinish())
	}
	capacity := slices.Contains(core.CapacityEngines(), res.Engine)
	if sc.Arrivals != nil || capacity {
		printTenantSummary(stdout, res.Jobs)
	}
	if capacity {
		fmt.Fprintf(stdout, "\ncapacity decisions: %d rebalances\n", len(res.Capacity))
		if *explain {
			for _, d := range res.Capacity {
				fmt.Fprintf(stdout, "  %s\n", d)
			}
		}
	}
	if len(res.Decisions) > 0 {
		fmt.Fprintln(stdout, "\nslot manager decisions:")
		for _, d := range res.Decisions {
			fmt.Fprintf(stdout, "  %s\n", d)
		}
	}
	if *explain {
		switch {
		case res.Engine != core.EngineSMapReduce:
			fmt.Fprintln(stdout, "\n-explain: no slot manager (pick -engine smapreduce)")
		case len(res.Audits) == 0:
			fmt.Fprintln(stdout, "\n-explain: the slot manager made no decisions")
		default:
			fmt.Fprintln(stdout, "\nslot manager audit trail:")
			for i, a := range res.Audits {
				fmt.Fprintf(stdout, "decision %d\n%s", i, a.String())
			}
		}
	}
	if tracer != nil {
		fmt.Fprintln(stdout, "\ntrace summary:")
		fmt.Fprint(stdout, tracer.Summary())
	}
	if *telemPath != "" {
		fmt.Fprintln(stdout, "\nslot/rate timeline:")
		fmt.Fprint(stdout, telem.TimelineChart())
	}
	if *history {
		fmt.Fprintln(stdout)
		for _, j := range res.Jobs {
			fmt.Fprint(stdout, j.Report(res.Cluster).String())
		}
	}

	if srv != nil {
		fmt.Fprintf(stderr, "smrsim: run finished; still serving on %s (Ctrl-C drains and exits)\n", srv.Addr())
		awaitShutdown(stderr, srv, *drainDur, stop())
	}
	return nil
}

// fileOrInline returns the contents of the named file when it is
// readable, otherwise the argument itself as inline text (the
// -chaos/-arrive convention).
func fileOrInline(arg string) string {
	if data, err := os.ReadFile(arg); err == nil {
		return string(data)
	}
	return arg
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTenantSummary aggregates the per-job timeline by tenant: job
// count, mean execution time, worst latency and SLO misses.
func printTenantSummary(w io.Writer, ran []*mr.Job) {
	type agg struct {
		jobs   int
		sum    float64
		worst  float64
		misses int
	}
	byTenant := make(map[string]*agg)
	var names []string
	for _, j := range ran {
		name := j.Tenant()
		a := byTenant[name]
		if a == nil {
			a = &agg{}
			byTenant[name] = a
			names = append(names, name)
		}
		a.jobs++
		a.sum += j.ExecutionTime()
		if j.ExecutionTime() > a.worst {
			a.worst = j.ExecutionTime()
		}
		if j.SLOMissed() {
			a.misses++
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-16s %6s %12s %12s %10s\n", "tenant", "jobs", "mean exec s", "worst exec s", "SLO miss")
	for _, name := range names {
		a := byTenant[name]
		fmt.Fprintf(w, "%-16s %6d %12.1f %12.1f %10d\n",
			name, a.jobs, a.sum/float64(a.jobs), a.worst, a.misses)
	}
}
