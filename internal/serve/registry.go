package serve

import (
	"fmt"
	"sync"

	"smapreduce/internal/serve/ledger"
)

// RunState is a run's lifecycle phase.
type RunState string

const (
	// StateQueued: accepted, waiting for a pool worker.
	StateQueued RunState = "queued"
	// StateRunning: executing on a worker.
	StateRunning RunState = "running"
	// StateDone: finished; artifacts stored and ledger entry appended.
	StateDone RunState = "done"
	// StateFailed: the run errored; no ledger entry is written.
	StateFailed RunState = "failed"
)

// Artifact names in their fixed schema order — the order the ledger
// records leaves in. scenario.json comes first: it is the recorded
// input everything else is verified against.
const (
	ArtifactScenario  = "scenario.json"
	ArtifactEvents    = "events.jsonl"
	ArtifactTrace     = "trace.json"
	ArtifactAudit     = "audit.log"
	ArtifactTelemetry = "telemetry.jsonl"
	ArtifactStats     = "stats.json"
)

// ArtifactNames lists the artifact schema in ledger leaf order.
func ArtifactNames() []string {
	return []string{ArtifactScenario, ArtifactEvents, ArtifactTrace,
		ArtifactAudit, ArtifactTelemetry, ArtifactStats}
}

// Run is one registered simulation: its scenario, live event stream
// and, once finished, its artifact set and ledger entry.
type Run struct {
	// ID is the registry-assigned identifier ("r000000"...), also the
	// run's artifact directory name under the store root.
	ID string
	// Scenario is the validated request.
	Scenario Scenario
	// ScenarioJSON is the canonical scenario document — the
	// scenario.json artifact.
	ScenarioJSON []byte

	hub *hub

	mu        sync.Mutex
	state     RunState
	err       string
	artifacts map[string][]byte
	entry     *ledger.Entry
}

// State returns the run's current phase (and error for StateFailed).
func (r *Run) State() (RunState, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state, r.err
}

// Artifact returns a finished run's named artifact, or nil.
func (r *Run) Artifact(name string) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.artifacts[name]
}

// LedgerEntry returns the run's ledger entry, or nil before StateDone.
func (r *Run) LedgerEntry() *ledger.Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entry
}

func (r *Run) setState(s RunState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = s
}

func (r *Run) fail(err string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = StateFailed
	r.err = err
}

func (r *Run) complete(artifacts map[string][]byte, entry ledger.Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = StateDone
	r.artifacts = artifacts
	r.entry = &entry
}

// RunInfo is the JSON projection served by GET /runs and /runs/{id}.
type RunInfo struct {
	ID        string   `json:"id"`
	State     RunState `json:"state"`
	Engine    string   `json:"engine"`
	Error     string   `json:"error,omitempty"`
	Artifacts []string `json:"artifacts,omitempty"`
	// LedgerIndex is the run's chain position, -1 before completion.
	LedgerIndex int    `json:"ledger_index"`
	MerkleRoot  string `json:"merkle_root,omitempty"`
}

// Info snapshots the run for listing.
func (r *Run) Info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := RunInfo{
		ID:          r.ID,
		State:       r.state,
		Engine:      r.Scenario.EngineName(),
		Error:       r.err,
		LedgerIndex: -1,
	}
	if r.state == StateDone {
		info.Artifacts = ArtifactNames()
	}
	if r.entry != nil {
		info.LedgerIndex = r.entry.Index
		info.MerkleRoot = r.entry.Root
	}
	return info
}

// registry assigns run IDs and resolves them, insertion-ordered.
type registry struct {
	mu   sync.Mutex
	runs map[string]*Run
	seq  []*Run
	next int
}

func newRegistry() *registry {
	return &registry{runs: make(map[string]*Run)}
}

// add registers a new queued run for the given scenario. IDs come from
// a monotone counter, never reused — a run removed after a shed
// submission leaves a gap, not an aliased identifier.
func (g *registry) add(s Scenario, canonical []byte) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := &Run{
		ID:           fmt.Sprintf("r%06d", g.next),
		Scenario:     s,
		ScenarioJSON: canonical,
		hub:          newHub(),
		state:        StateQueued,
	}
	g.next++
	g.runs[r.ID] = r
	g.seq = append(g.seq, r)
	return r
}

// remove forgets a run that never entered the queue (shed submission).
func (g *registry) remove(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.runs, id)
	for i, r := range g.seq {
		if r.ID == id {
			g.seq = append(g.seq[:i], g.seq[i+1:]...)
			break
		}
	}
}

// get resolves a run by ID.
func (g *registry) get(id string) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs[id]
}

// list snapshots every run in submission order.
func (g *registry) list() []RunInfo {
	g.mu.Lock()
	runs := make([]*Run, len(g.seq))
	copy(runs, g.seq)
	g.mu.Unlock()
	out := make([]RunInfo, len(runs))
	for i, r := range runs {
		out[i] = r.Info()
	}
	return out
}
