package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/trace"
)

// jobMilestones is the externally observable outcome of one job; the
// default and reference runs must agree on every field exactly.
type jobMilestones struct {
	Name                string
	Submitted           float64
	Started             float64
	BarrierAt           float64
	FinishedAt          float64
	ShuffledMB          float64
	SpeculativeLaunched int
	SpeculativeWins     int
}

// runReference runs six PUMA jobs of 10 GB each (Figure 4 scale)
// through the SMapReduce engine.
func runReference(t *testing.T, reference bool) ([]jobMilestones, []Decision, []AuditRecord) {
	t.Helper()
	const inputMB, jobs = 10240.0, 6
	cfg := mr.DefaultConfig()
	cfg.Seed = 11
	cfg.Reference = reference
	names := puma.Names()
	specs := make([]mr.JobSpec, 0, jobs)
	for i := 0; i < jobs; i++ {
		name := names[i%len(names)]
		specs = append(specs, mr.JobSpec{
			Name:     name,
			Profile:  puma.MustGet(name),
			InputMB:  inputMB,
			Reduces:  4,
			SubmitAt: float64(i) * 2,
		})
	}
	tr := trace.New(trace.Options{Verbosity: trace.VerbosityAllFlows})
	res, err := Run(EngineSMapReduce, Options{Cluster: cfg, Tracer: tr}, specs...)
	if err != nil {
		t.Fatalf("Run (reference=%v): %v", reference, err)
	}
	if n := readSpans(t, tr); n == 0 {
		t.Fatalf("reference=%v: no remote DFS read flow, only shuffles reach the verifier", reference)
	}
	ms := make([]jobMilestones, len(res.Jobs))
	for i, j := range res.Jobs {
		ms[i] = jobMilestones{
			Name:                j.Spec.Name,
			Submitted:           j.Submitted,
			Started:             j.Started,
			BarrierAt:           j.BarrierAt,
			FinishedAt:          j.FinishedAt,
			ShuffledMB:          j.ShuffledMB,
			SpeculativeLaunched: j.SpeculativeLaunched,
			SpeculativeWins:     j.SpeculativeWins,
		}
	}
	return ms, res.Decisions, res.Audits
}

// readSpans counts the remote split-read flow spans tr recorded.
func readSpans(t *testing.T, tr *trace.Tracer) int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "read" {
			n++
		}
	}
	return n
}

// TestReferenceDifferential runs the full SMapReduce engine — slot
// manager, decision log and audit trail included — in the default mode
// and in mr's Reference mode, and requires bit-identical output. This is
// the engine-level counterpart of mr's differential: any optimisation
// that perturbs timing shifts a heartbeat, which shifts a slot decision,
// which diverges the audit log.
func TestReferenceDifferential(t *testing.T) {
	dMs, dDec, dAud := runReference(t, false)
	rMs, rDec, rAud := runReference(t, true)

	if !reflect.DeepEqual(dMs, rMs) {
		t.Fatalf("job milestones diverge:\ndefault   %+v\nreference %+v", dMs, rMs)
	}
	// Decision.Factor and several audit floats are legitimately NaN
	// (thrash/tail decisions), and NaN != NaN breaks DeepEqual on
	// identical logs. Both structs are flat value types, so the %+v
	// rendering — shortest round-trip floats, "NaN" for NaN — is an
	// exact, NaN-tolerant equality.
	if d, r := fmt.Sprintf("%+v", dDec), fmt.Sprintf("%+v", rDec); d != r {
		t.Fatalf("decision logs diverge (%d vs %d entries):\ndefault   %s\nreference %s",
			len(dDec), len(rDec), d, r)
	}
	if d, r := fmt.Sprintf("%+v", dAud), fmt.Sprintf("%+v", rAud); d != r {
		t.Fatalf("audit records diverge (%d vs %d entries):\ndefault   %s\nreference %s",
			len(dAud), len(rAud), d, r)
	}
	if len(dDec) == 0 {
		t.Fatal("workload produced no slot decisions; differential is vacuous")
	}
}
