package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"smapreduce/internal/core"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// jsonFloat marshals like float64 but renders non-finite values as
// null — several run statistics (execution time before finish, the
// balance factor) are legitimately NaN/Inf, which JSON cannot encode.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// jsonFloats renders a row of values for encoding/json as pointers
// into vs, nil (null) for the non-finite ones. It encodes exactly as
// a []jsonFloat would, without a MarshalJSON call per value: telemetry
// rows are marshalled on the simulation goroutine at every sample.
func jsonFloats(vs []float64) []*float64 {
	out := make([]*float64, len(vs))
	for i := range vs {
		if !math.IsNaN(vs[i]) && !math.IsInf(vs[i], 0) {
			out[i] = &vs[i]
		}
	}
	return out
}

// SSE payload types. Every stream a run emits is one of these, in
// order: started, then interleaved telemetry/progress, then exactly
// one done or failed (the terminal event seals the stream).

type startedEvent struct {
	Engine  string `json:"engine"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Jobs    int    `json:"jobs"`
}

type telemetryEvent struct {
	Seq    int        `json:"seq"`
	T      float64    `json:"t"`
	Names  []string   `json:"names"`
	Values []*float64 `json:"values"`
}

type progressEvent struct {
	T             float64   `json:"t"`
	Milestone     string    `json:"milestone"`
	Job           string    `json:"job,omitempty"`
	JobsSubmitted int       `json:"jobs_submitted"`
	JobsFinished  int       `json:"jobs_finished"`
	JobsActive    int       `json:"jobs_active"`
	MapPct        jsonFloat `json:"map_pct"`
	ReducePct     jsonFloat `json:"reduce_pct"`
}

type doneEvent struct {
	LedgerIndex int      `json:"ledger_index"`
	MerkleRoot  string   `json:"merkle_root"`
	EntryHash   string   `json:"entry_hash"`
	Artifacts   []string `json:"artifacts"`
}

type failedEvent struct {
	Error string `json:"error"`
}

// statsJob is one job's row in the stats.json artifact.
type statsJob struct {
	Name           string    `json:"name"`
	Tenant         string    `json:"tenant"`
	SubmittedAt    jsonFloat `json:"submitted_at"`
	FinishedAt     jsonFloat `json:"finished_at"`
	ExecutionS     jsonFloat `json:"execution_s"`
	ThroughputMBps jsonFloat `json:"throughput_mbps"`
	SLOMissed      bool      `json:"slo_missed"`
}

// runStats is the stats.json artifact: the run's headline numbers plus
// a per-job table, field order fixed for byte-stable output.
type runStats struct {
	Engine            string     `json:"engine"`
	Seed              uint64     `json:"seed"`
	Workers           int        `json:"workers"`
	Jobs              int        `json:"jobs"`
	MeanExecutionS    jsonFloat  `json:"mean_execution_s"`
	P95ExecutionS     jsonFloat  `json:"p95_execution_s"`
	LastFinishS       jsonFloat  `json:"last_finish_s"`
	SLOMisses         int        `json:"slo_misses"`
	Decisions         int        `json:"decisions"`
	CapacityDecisions int        `json:"capacity_decisions"`
	TraceEvents       int        `json:"trace_events"`
	JobDetails        []statsJob `json:"job_details"`
}

// assembleArtifacts renders the run's six artifacts in ledger leaf
// order. Every byte is a pure function of the scenario: writers are
// deterministic, non-finite floats render as null, and nothing here
// reads the wall clock — resubmitting the scenario reproduces the set
// bit-for-bit.
func assembleArtifacts(r *Run, res *core.Result, col *telemetry.Collector, tr *trace.Tracer) (map[string][]byte, error) {
	arts := make(map[string][]byte, 6)
	arts[ArtifactScenario] = r.ScenarioJSON

	var events bytes.Buffer
	if res.Events != nil {
		if err := res.Events.WriteJSONL(&events); err != nil {
			return nil, fmt.Errorf("events artifact: %w", err)
		}
	}
	arts[ArtifactEvents] = events.Bytes()

	var tj bytes.Buffer
	if err := tr.WriteChromeJSON(&tj); err != nil {
		return nil, fmt.Errorf("trace artifact: %w", err)
	}
	arts[ArtifactTrace] = tj.Bytes()

	arts[ArtifactAudit] = renderAudit(res)

	var tel bytes.Buffer
	if err := col.WriteJSONL(&tel); err != nil {
		return nil, fmt.Errorf("telemetry artifact: %w", err)
	}
	arts[ArtifactTelemetry] = tel.Bytes()

	stats, err := renderStats(r, res, tr)
	if err != nil {
		return nil, fmt.Errorf("stats artifact: %w", err)
	}
	arts[ArtifactStats] = stats
	return arts, nil
}

// renderAudit renders the slot manager's per-decision audit records as
// text (AuditRecord.String), one line each — the explainability trail
// for every resize the controller made. Engines without a slot manager
// record an empty trail under the header.
func renderAudit(res *core.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# smapreduce audit log: engine %s, %d decisions\n",
		res.Engine, len(res.Audits))
	for _, a := range res.Audits {
		fmt.Fprintln(&b, a.String())
	}
	return b.Bytes()
}

// renderStats builds the stats.json artifact. Jobs sort by submission
// time then name so arrival-driven runs stay byte-stable.
func renderStats(r *Run, res *core.Result, tr *trace.Tracer) ([]byte, error) {
	jobs := make([]statsJob, 0, len(res.Jobs))
	for _, j := range res.Jobs {
		jobs = append(jobs, statsJob{
			Name:           j.Spec.Name,
			Tenant:         j.Tenant(),
			SubmittedAt:    jsonFloat(j.Submitted),
			FinishedAt:     jsonFloat(j.FinishedAt),
			ExecutionS:     jsonFloat(j.ExecutionTime()),
			ThroughputMBps: jsonFloat(j.ThroughputMBps()),
			SLOMissed:      j.SLOMissed(),
		})
	}
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].SubmittedAt != jobs[k].SubmittedAt {
			return jobs[i].SubmittedAt < jobs[k].SubmittedAt
		}
		return jobs[i].Name < jobs[k].Name
	})
	s := runStats{
		Engine:            res.Engine.String(),
		Seed:              res.Cluster.Config().Seed,
		Workers:           res.Cluster.Config().Workers,
		Jobs:              len(res.Jobs),
		MeanExecutionS:    jsonFloat(res.MeanExecutionTime()),
		P95ExecutionS:     jsonFloat(res.LatencyPercentile(95)),
		LastFinishS:       jsonFloat(res.LastFinish()),
		SLOMisses:         res.SLOMisses(),
		Decisions:         len(res.Decisions),
		CapacityDecisions: len(res.Capacity),
		TraceEvents:       tr.Len(),
		JobDetails:        jobs,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
