package mr

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"smapreduce/internal/puma"
	"smapreduce/internal/trace"
)

// figure3Cell runs one Figure-3 cell — a 100 GB terasort under Hadoop
// V1's static slots on the paper's 16-tracker cluster, with output
// replication on so every flow kind occurs — after attach has wired
// its sinks, and returns the job and the final Stats.
func figure3Cell(t *testing.T, attach func(c *Cluster)) (*Job, Stats) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.OutputReplication = 2
	c := MustNewCluster(cfg)
	attach(c)
	jobs, err := c.Run(JobSpec{Name: "terasort", Profile: puma.MustGet("terasort"), InputMB: 100 * 1024, Reduces: 30})
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0], c.Snapshot()
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
// for the sinks that read them and never feed back: one Figure-3 cell
// run with no sinks, with an event log, and with flow tracing at both
// flow verbosities yields identical milestones and Stats. The traced
// runs' flow spans keep the runtime's label format — "shuffle
// job/rN<-src", "read job/id", "repl job/rN->dst" — with the peer in
// the name matching the span's endpoints.
func TestSinksDoNotPerturbSimulation(t *testing.T) {
	bare, bareStats := figure3Cell(t, func(*Cluster) {})
	var log *EventLog
	logged, loggedStats := figure3Cell(t, func(c *Cluster) { log = c.EnableEventLog(0) })
	flowsTr := trace.New(trace.Options{Verbosity: trace.VerbosityFlows})
	traced, tracedStats := figure3Cell(t, func(c *Cluster) { c.EnableTracing(flowsTr) })
	allTr := trace.New(trace.Options{Verbosity: trace.VerbosityAllFlows})
	allTraced, allStats := figure3Cell(t, func(c *Cluster) { c.EnableTracing(allTr) })

	milestones := func(j *Job) [5]float64 {
		return [5]float64{j.Submitted, j.Started, j.BarrierAt, j.FinishedAt, j.ShuffledMB}
	}
	for name, run := range map[string]struct {
		job   *Job
		stats Stats
	}{"event log": {logged, loggedStats}, "flow tracing": {traced, tracedStats}, "all-flow tracing": {allTraced, allStats}} {
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
	if d := flowsTr.Dropped() + allTr.Dropped(); d != 0 {
		t.Fatalf("tracers dropped %d events; raise the limit", d)
	}

	formats := map[string]*regexp.Regexp{
		"shuffle": regexp.MustCompile(`^shuffle terasort/r\d+<-(\d+)$`),
		"read":    regexp.MustCompile(`^read terasort/\d+()$`),
		"repl":    regexp.MustCompile(`^repl terasort/r\d+->(\d+)$`),
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
			peer := map[string]float64{"shuffle": sp.Args.Src, "repl": sp.Args.Dst}[sp.Cat]
			if m[1] != "" && m[1] != strconv.Itoa(int(peer)) {
				t.Fatalf("span %q names peer %s, its endpoints are %v->%v", sp.Name, m[1], sp.Args.Src, sp.Args.Dst)
			}
			n[sp.Cat]++
		}
		return n
	}
	flows := check(flowSpans(t, flowsTr))
	all := check(flowSpans(t, allTr))
	if flows["shuffle"] == 0 || flows["read"]+flows["repl"] != 0 {
		t.Errorf("VerbosityFlows spans by category = %v, want shuffle fetches only", flows)
	}
	if all["shuffle"] != flows["shuffle"] || all["read"] == 0 || all["repl"] == 0 {
		t.Errorf("VerbosityAllFlows spans by category = %v, want %d shuffle plus read and repl", all, flows["shuffle"])
	}
}
