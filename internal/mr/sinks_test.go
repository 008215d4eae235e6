package mr

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"smapreduce/internal/puma"
	"smapreduce/internal/trace"
)

// A sinkCell runs one workload after attach has wired its sinks and
// returns the job and the final Stats.
type sinkCell func(t *testing.T, attach func(c *Cluster)) (*Job, Stats)

// runCell runs spec on a cluster of cfg after attach and prepare.
func runCell(t *testing.T, cfg Config, spec JobSpec, attach, prepare func(c *Cluster)) (*Job, Stats) {
	t.Helper()
	c := MustNewCluster(cfg)
	attach(c)
	prepare(c)
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0], c.Snapshot()
}

// figure3Cell runs one Figure-3 cell — a 100 GB terasort under Hadoop
// V1's static slots on the paper's 16-tracker cluster.
func figure3Cell(t *testing.T, attach func(c *Cluster)) (*Job, Stats) {
	return runCell(t, DefaultConfig(), JobSpec{Name: "terasort", Profile: puma.MustGet("terasort"), InputMB: 100 * 1024, Reduces: 30},
		attach, func(*Cluster) {})
}

// chaosCell runs a 20 GB terasort with speculation on under a crash, a
// rejoin, a blacklisting heartbeat loss, and a node and a link
// degradation, so every fault transition is noted.
func chaosCell(t *testing.T, attach func(c *Cluster)) (*Job, Stats) {
	cfg := DefaultConfig()
	cfg.Speculation = true
	return runCell(t, cfg, JobSpec{Name: "terasort", Profile: puma.MustGet("terasort"), InputMB: 20 * 1024, Reduces: 30},
		attach, func(c *Cluster) {
			c.ScheduleFailure(3, 20)
			c.ScheduleRecovery(3, 60)
			c.ScheduleHeartbeatLoss(2, 15, 30)
			c.ScheduleNodeDegrade(5, 10, 20, 0.5, 0.5)
			c.ScheduleLinkDegrade(7, 12, 10, 0.3, 0)
		})
}

type flowSpan struct {
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Cat  string `json:"cat"`
	Name string `json:"name"`
	Args struct {
		Src float64 `json:"src"`
		Dst float64 `json:"dst"`
	} `json:"args"`
}

// flowSpans exports tr and returns its network-track spans.
func flowSpans(t *testing.T, tr *trace.Tracer) []flowSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []flowSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var out []flowSpan
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == trace.PIDNetwork {
			out = append(out, ev)
		}
	}
	return out
}

// TestSinksDoNotPerturbSimulation pins that labels are formatted only
// for the sinks that read them and never feed back: a Figure-3 cell and
// a speculative cell under injected faults, each run with no sinks,
// with an event log (rendered afterwards as -tracelog text too), with
// an OnProgress hook, and with flow tracing at both flow verbosities,
// yield identical milestones and Stats. The traced runs' flow spans
// keep the runtime's label format — "shuffle job/rN<-src", "read
// job/id" — with the source in a shuffle's name matching the span's
// endpoints. Both cells run a single job, which is why this test does
// not catch the multi-job drift DESIGN.md §4b describes: there, the
// milestone reads settle running ops at lifecycle instants.
func TestSinksDoNotPerturbSimulation(t *testing.T) {
	for name, cell := range map[string]sinkCell{"figure-3": figure3Cell, "speculative chaos": chaosCell} {
		t.Run(name, func(t *testing.T) { checkSinks(t, cell) })
	}
}

func checkSinks(t *testing.T, cell sinkCell) {
	bare, bareStats := cell(t, func(*Cluster) {})
	var log *EventLog
	logged, loggedStats := cell(t, func(c *Cluster) { log = c.EnableEventLog() })
	var snaps []Progress
	hooked, hookedStats := cell(t, func(c *Cluster) { c.SetOnProgress(func(p Progress) { snaps = append(snaps, p) }) })
	flowsTr := trace.New(trace.Options{Verbosity: trace.VerbosityFlows})
	traced, tracedStats := cell(t, func(c *Cluster) { c.EnableTracing(flowsTr) })
	allTr := trace.New(trace.Options{Verbosity: trace.VerbosityAllFlows})
	allTraced, allStats := cell(t, func(c *Cluster) { c.EnableTracing(allTr) })

	milestones := func(j *Job) [5]float64 {
		return [5]float64{j.Submitted, j.Started, j.BarrierAt, j.FinishedAt, j.ShuffledMB}
	}
	for name, run := range map[string]struct {
		job   *Job
		stats Stats
	}{
		"event log": {logged, loggedStats}, "progress hook": {hooked, hookedStats},
		"flow tracing": {traced, tracedStats}, "all-flow tracing": {allTraced, allStats},
	} {
		if milestones(run.job) != milestones(bare) {
			t.Errorf("%s moved the milestones: %v, bare run %v", name, milestones(run.job), milestones(bare))
		}
		if !reflect.DeepEqual(run.stats, bareStats) {
			t.Errorf("%s moved the final Stats:\n%+v\nbare run\n%+v", name, run.stats, bareStats)
		}
	}
	if len(log.Events()) == 0 {
		t.Fatal("event log recorded nothing")
	}
	var text strings.Builder
	if err := log.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, e := range log.Events() {
		if e.Kind != EvTaskStarted && e.Kind != EvTaskDone {
			lines++
		}
	}
	if got := strings.Count(text.String(), "\n"); got != lines || lines == 0 {
		t.Errorf("-tracelog text has %d lines, want %d: one per event except task starts and completions", got, lines)
	}
	if len(snaps) == 0 || snaps[len(snaps)-1].Milestone != string(EvJobFinished) {
		t.Errorf("progress hook saw %d snapshots, the last not a job finish", len(snaps))
	}
	if d := flowsTr.Dropped() + allTr.Dropped(); d != 0 {
		t.Fatalf("tracers dropped %d events; raise the limit", d)
	}

	formats := map[string]*regexp.Regexp{
		"shuffle": regexp.MustCompile(`^shuffle terasort/r\d+<-(\d+)$`),
		"read":    regexp.MustCompile(`^read terasort/\d+()$`),
	}
	check := func(spans []flowSpan) map[string]int {
		n := map[string]int{}
		for _, sp := range spans {
			re := formats[sp.Cat]
			if re == nil {
				t.Fatalf("flow span %q has category %q", sp.Name, sp.Cat)
			}
			m := re.FindStringSubmatch(sp.Name)
			if m == nil {
				t.Fatalf("%s span named %q, want the %v format", sp.Cat, sp.Name, re)
			}
			if m[1] != "" && m[1] != strconv.Itoa(int(sp.Args.Src)) {
				t.Fatalf("span %q names peer %s, its endpoints are %v->%v", sp.Name, m[1], sp.Args.Src, sp.Args.Dst)
			}
			n[sp.Cat]++
		}
		return n
	}
	flows := check(flowSpans(t, flowsTr))
	all := check(flowSpans(t, allTr))
	if flows["shuffle"] == 0 || flows["read"] != 0 {
		t.Errorf("VerbosityFlows spans by category = %v, want shuffle fetches only", flows)
	}
	if all["shuffle"] != flows["shuffle"] || all["read"] == 0 {
		t.Errorf("VerbosityAllFlows spans by category = %v, want %d shuffle plus read", all, flows["shuffle"])
	}
}
