package mr

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"smapreduce/internal/puma"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// runArtifacts executes one cluster run (optionally on reused
// substrate and recycled observers) and returns every byte-comparable
// artefact: event-log JSONL, Stats, telemetry JSONL and trace export.
func runArtifacts(t *testing.T, st *SimState, col *telemetry.Collector, tr *trace.Tracer, seed uint64) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 6
	cfg.Seed = seed
	c, err := NewClusterReusing(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	log := c.EnableEventLog()
	c.EnableTelemetry(col)
	c.EnableTracing(tr)
	jobs, err := c.Run(
		JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 1024, Reduces: 4},
		JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 512, Reduces: 4, SubmitAt: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := log.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%+v\n", c.Snapshot())
	for _, j := range jobs {
		fmt.Fprintf(&b, "%s %v %v %v %v\n", j.Spec.Name, j.Submitted, j.Started, j.BarrierAt, j.FinishedAt)
	}
	if err := col.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSimStateReuseMatchesFresh is the two-runs-on-one-worker pin: a
// worker that recycles its SimState, telemetry collector and tracer
// across consecutive runs must produce byte-identical artefacts to a
// worker that builds everything fresh per run — for a repeated seed
// and for distinct seeds. This is the per-worker half of the fleet
// determinism invariant (workers=1 ≡ workers=N); the cross-worker half
// lives in internal/fleet.
func TestSimStateReuseMatchesFresh(t *testing.T) {
	seeds := []uint64{42, 42, 7} // repeat, then switch
	// Fresh-state reference: new substrate and observers per run.
	var want []string
	for _, seed := range seeds {
		want = append(want, runArtifacts(t, nil, telemetry.NewCollector(), trace.New(trace.Options{}), seed))
	}
	// Pooled worker: one SimState, one collector, one tracer.
	st := NewSimState()
	col := telemetry.NewCollector()
	tr := trace.New(trace.Options{})
	for i, seed := range seeds {
		if i > 0 {
			col.Reset()
			tr.Reset()
		}
		got := runArtifacts(t, st, col, tr, seed)
		if got != want[i] {
			t.Fatalf("run %d (seed %d): reused-state artefacts diverge from fresh-state run (%d vs %d bytes)",
				i, seed, len(got), len(want[i]))
		}
	}
}

// TestSimStateLazyInit pins that a zero SimState allocates substrate on
// first use and then retains it.
func TestSimStateLazyInit(t *testing.T) {
	if os.Getenv("SMR_REFERENCE") == "1" {
		t.Skip("substrate reuse disabled via SMR_REFERENCE")
	}
	st := NewSimState()
	if st.clock != nil || st.fabric != nil {
		t.Fatal("zero SimState not empty")
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	if _, err := NewClusterReusing(cfg, st); err != nil {
		t.Fatal(err)
	}
	clock, fabric := st.clock, st.fabric
	if clock == nil || fabric == nil {
		t.Fatal("SimState not populated on first use")
	}
	if _, err := NewClusterReusing(cfg, st); err != nil {
		t.Fatal(err)
	}
	if st.clock != clock || st.fabric != fabric {
		t.Fatal("SimState reallocated substrate on reuse")
	}
}
