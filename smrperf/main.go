// Command smrperf is the repository's benchmark. It runs one workload
// in a closed loop through the public entry points (core.Run,
// fleet.Run and the internal/serve HTTP API), checks every iteration's
// outputs, and prints every metric by name with its unit. The last
// line of standard output is a JSON object:
//
//	{"correct": true, "attempted": 61, "failed": 0, "metrics": {"iter_s_p50": {"value": 0.61, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run attributes the workload to the repository's
// layers. README.md in this directory explains the workloads and the
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
)

// allocProfileRate is the allocation sampling interval of a traced run.
const allocProfileRate = 64 << 10

// setups is how many fresh set-ups an end-to-end run times: one before
// the measured phase and the rest spread over it. setup_s is their
// median, so one cold sample cannot decide it.
const setups = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is one run's outcome: the checks and the metric values.
type report struct {
	chk    *checker
	defs   []metricDef
	values map[string]float64
	notes  []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smrperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig3-matrix, tenant-fleet or served-traced")
	seed := fs.Uint64("seed", goldenSeed, "workload seed; inputs are a pure function of it")
	seconds := fs.Float64("seconds", 30, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "smrperf: need --workload fig3-matrix|tenant-fleet|served-traced, --trace 0|1, --seconds >= 0\n")
		return 2
	}
	if *traced == 1 {
		runtime.MemProfileRate = allocProfileRate
	}
	env := startEnv()
	var rep *report
	if *traced == 1 {
		rep = tracedRun(w, *seed, *seconds)
	} else {
		rep = endToEndRun(w, *seed, *seconds)
	}
	for _, msg := range rep.chk.errs {
		fmt.Fprintf(stderr, "smrperf: %s: check failed: %s\n", w.name, msg)
	}
	fmt.Fprintf(stdout, "env %s\n", env.finish())
	writeReport(stdout, w, *seed, rep)
	if rep.chk.failed > 0 || rep.chk.attempted == 0 {
		return 1
	}
	return 0
}

// writeReport prints the notes, one line per metric, and the JSON result.
func writeReport(out io.Writer, w *workload, seed uint64, rep *report) {
	fmt.Fprintf(out, "workload %s seed %d: %d operations, %d failed, output digest %s\n",
		w.name, seed, rep.chk.attempted, rep.chk.failed, rep.chk.first)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.defs))
	for _, d := range rep.defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // not measured; the run has failed checks
		}
		fmt.Fprintf(out, "%-30s %16.6f %s\n", d.name, v, d.unit)
		ms[d.name] = value{v, d.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.chk.failed == 0 && rep.chk.attempted > 0, rep.chk.attempted, rep.chk.failed, ms})
	fmt.Fprintf(out, "%s\n", b)
}

// closeInstance closes inst, counting a failure as a failed operation.
func closeInstance(inst instance, chk *checker) {
	if inst == nil {
		return
	}
	if err := inst.close(); err != nil {
		chk.check("", fmt.Errorf("close: %w", err))
	}
}

// renew replaces a renewable instance's state before a phase, so every
// phase starts from the same point.
func renew(inst instance, chk *checker) bool {
	if ren, ok := inst.(renewer); ok {
		if err := ren.renew(); err != nil {
			chk.check("", fmt.Errorf("renew: %w", err))
			return false
		}
	}
	return true
}

// endToEndRun measures the end-to-end metrics with nothing traced.
func endToEndRun(w *workload, seed uint64, seconds float64) *report {
	chk := &checker{golden: goldenDigest(w.name, seed)}
	rep := &report{chk: chk, defs: endToEnd, values: map[string]float64{}}
	inst, t := setUp(w, seed, chk)
	if inst == nil {
		return rep
	}
	defer closeInstance(inst, chk)
	setupTimes := []float64{t}
	fresh := func() bool {
		extra, t := setUp(w, seed, chk)
		if extra == nil {
			return false
		}
		setupTimes = append(setupTimes, t)
		closeInstance(extra, chk)
		return chk.failed == 0
	}
	if !renew(inst, chk) {
		return rep
	}
	ph := runPhase(inst, phaseOpts{
		seconds: seconds, minIters: w.heapAt, heapAt: []int{w.heapAt},
		setUps: setups - 1, fresh: fresh,
	}, nil, chk)
	if chk.failed > 0 {
		return rep
	}
	wall := column(ph.samples, func(s sample) float64 { return s.wall })
	tailP := tailPercentile(len(wall))
	heap, ok := ph.heapMB[w.heapAt]
	if !ok {
		heap = math.NaN()
	}
	rep.values = map[string]float64{
		"iter_s_p50":        median(wall),
		"iter_s_tail":       percentile(wall, tailP),
		"cpu_s_per_iter":    median(column(ph.samples, func(s sample) float64 { return s.cpu })),
		"allocs_per_iter":   median(column(ph.samples, func(s sample) float64 { return float64(s.allocs) })),
		"alloc_mb_per_iter": median(column(ph.samples, func(s sample) float64 { return float64(s.bytes) / 1e6 })),
		"heap_live_mb":      heap,
		"setup_s":           median(setupTimes),
	}
	rep.note("%d measured iterations; iter_s_tail is p%.2f; heap read after iteration %d", len(wall), tailP, w.heapAt)
	rep.note("set-up samples (s): %s", formatFloats(setupTimes))
	return rep
}

// tracedRun attributes the workload to layers. Half the time runs
// untraced, as the baseline of the tracing overhead; the other half
// runs with the CPU and allocation profilers and client-side spans on.
// A census iteration with flow tracing follows.
func tracedRun(w *workload, seed uint64, seconds float64) *report {
	chk := &checker{golden: goldenDigest(w.name, seed)}
	rep := &report{chk: chk, defs: perLayer, values: map[string]float64{}}
	inst, _ := setUp(w, seed, chk)
	if inst == nil {
		return rep
	}
	defer closeInstance(inst, chk)
	if !renew(inst, chk) {
		return rep
	}
	half := seconds / 2
	base := runPhase(inst, phaseOpts{seconds: half, minIters: w.heapAt, heapAt: []int{retainedFrom, w.heapAt}}, nil, chk)
	if chk.failed > 0 || !renew(inst, chk) {
		return rep
	}

	p := newProbe()
	allocs0 := snapshotAllocs()
	rt0 := readRuntimeMetrics()
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		chk.check("", fmt.Errorf("cpu profile: %w", err))
		return rep
	}
	traced := runPhase(inst, phaseOpts{seconds: half, minIters: 3}, p, chk)
	pprof.StopCPUProfile()
	rt := diffRuntimeMetrics(rt0, readRuntimeMetrics())
	allocs := attribute(allocSamples(allocs0, snapshotAllocs(), allocProfileRate))
	p.counts["iters"] = float64(len(traced.samples))

	cp := newProbe()
	cp.counts["iters"] = 1
	if err := inst.census(cp); err != nil {
		chk.check("", fmt.Errorf("census: %w", err))
	}
	if chk.failed > 0 {
		return rep
	}
	cpuSamples, err := parseCPUProfile(cpuProf.Bytes())
	if err != nil {
		chk.check("", err)
		return rep
	}
	cpu := attribute(cpuSamples)

	v := rep.values
	listed := 0.0
	for _, l := range cpuLayers {
		v[l+".cpu_share"] = cpu.share(l)
		listed += cpu.share(l)
	}
	v["unattributed.cpu_share"] = 1 - listed
	v["mr.alloc_share"] = allocs.share("mr")
	v["mr.shuffle_cpu_share"] = cpu.cumShare(
		"mr.(*Cluster).commitMap", "mr.(*Cluster).activateFetches", "mr.(*Cluster).startFetch")
	v["mr.heartbeat_cpu_share"] = cpu.cumShare("mr.(*TaskTracker).heartbeat")

	for _, s := range []string{"run.build", "run.map", "run.reduce", "serve.submit", "serve.queue", "serve.exec", "serve.fetch"} {
		v[s+"_ms"] = spanMedian(p, s)
	}
	v["fleet.cluster_ms_p50"] = spanMedian(p, "fleet.cluster")

	perIter := func(name string) float64 { return perUnit(p, cp, name, "iters") }
	perRun := func(name string) float64 { return perUnit(p, cp, name, "runs") }
	v["mr.tasks_per_iter"] = perIter("mr.tasks")
	v["sim.virtual_s_per_iter"] = perIter("sim.virtual_s")
	v["core.decisions_per_iter"] = perIter("core.decisions")
	v["policy.decisions_per_iter"] = perIter("policy.decisions")
	v["arrival.jobs_per_iter"] = perIter("arrival.jobs")
	v["netsim.flows_per_run"] = perRun("netsim.flows")
	v["trace.spans_per_run"] = perRun("trace.spans")
	v["telemetry.ticks_per_run"] = perRun("telemetry.ticks")
	v["events.records_per_run"] = perRun("events.records")
	v["chaos.faults_per_run"] = perRun("chaos.faults")
	v["serve.sse_events_per_run"] = perRun("serve.sse_events")
	v["serve.artifact_kb_per_run"] = perRun("serve.artifact_bytes") / 1024
	v["serve.retained_mb_per_run"] = 0
	if _, ok := inst.(renewer); ok {
		v["serve.retained_mb_per_run"] = (base.heapMB[w.heapAt] - base.heapMB[retainedFrom]) / float64(w.heapAt-retainedFrom)
	}

	v["runtime.gc_cpu_share"] = rt.gcCPUShare
	v["runtime.gc_cycles_per_iter"] = rt.gcCycles / float64(len(traced.samples))
	v["runtime.sched_latency_p99_ms"] = rt.schedP99Secs * 1e3

	untracedP50 := median(column(base.samples, func(s sample) float64 { return s.wall }))
	tracedP50 := median(column(traced.samples, func(s sample) float64 { return s.wall }))
	v["bench.untraced_iter_s_p50"] = untracedP50
	v["bench.traced_iter_s_p50"] = tracedP50
	v["bench.trace_overhead"] = tracedP50 / untracedP50
	v["bench.fail_ratio"] = float64(chk.failed) / float64(chk.attempted)
	v["bench.profile_samples"] = float64(len(cpu.samples))

	rep.note("untraced phase: %d iterations; traced phase: %d iterations; %d CPU samples", len(base.samples), len(traced.samples), len(cpu.samples))
	rep.note("tracing overhead: traced iter_s_p50 %.4f s vs untraced %.4f s (x%.3f)", tracedP50, untracedP50, tracedP50/untracedP50)
	rep.note("other repository layers' CPU share: %s", otherLayers(cpu))
	rep.note("top cumulative functions (share of CPU samples with the function on the stack):")
	for _, line := range cpu.topCumulative(15) {
		rep.note("  %s", line)
	}
	return rep
}

// perUnit divides a count by the probe's iterations or runs, reading
// the traced probe when it holds the count and the census otherwise.
func perUnit(p, census *probe, name, unit string) float64 {
	src := p
	if _, ok := src.counts[name]; !ok {
		src = census
	}
	n, ok := src.counts[name]
	if !ok || src.counts[unit] == 0 {
		return 0
	}
	return n / src.counts[unit]
}

func spanMedian(p *probe, name string) float64 {
	if len(p.spans[name]) == 0 {
		return 0
	}
	return median(p.spans[name])
}

// otherLayers lists the CPU share of repository layers without a
// metric of their own.
func otherLayers(a *attribution) string {
	var parts []string
	for l, w := range a.layer {
		if l != "" && !slices.Contains(cpuLayers, l) {
			parts = append(parts, fmt.Sprintf("%s %.2f%%", l, 100*w/a.total))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
