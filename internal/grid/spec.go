// Package grid is the declarative experiment-grid harness: a JSON
// spec declares axes — engines × workloads × scales × seeds, with
// independent repeats per cell — that expand into a deterministic cell
// list executed in parallel on internal/par workers with per-worker
// simulation-substrate reuse (the internal/fleet idiom). Results land
// in a timestamped output directory as a per-cell completion journal
// (so an interrupted sweep resumes by skipping journaled cells), a
// validated CSV, a full-fidelity grid.json and generated markdown
// comparison tables.
//
// Two properties carry the repo's reproducibility guarantees onto the
// grid:
//
//   - Every repeat's seed is a pure function of (cell key, repeat
//     index), so a cell's result does not depend on which worker ran
//     it, how many workers ran the sweep, or whether the sweep was
//     interrupted and resumed.
//
//   - Specs are canonicalised: ParseSpec(s.Canonical()) reproduces
//     Canonical() byte-for-byte, engine names and chaos schedules
//     included, so a spec checked into a run directory is a stable
//     artifact the resume and validate paths can trust.
package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"

	"smapreduce/internal/core"
	"smapreduce/internal/scenario"
)

// Spec declares an experiment grid. Cells are the cross product
// engines × workloads × scales × seeds; each cell runs Repeats times
// with independently derived seeds (see RepeatSeed).
type Spec struct {
	// Name identifies the grid (safe-name charset: letters, digits,
	// '.', '_', '-').
	Name string `json:"name"`
	// Repeats is the number of independent runs per cell, each with its
	// own derived seed. Must be positive.
	Repeats int `json:"repeats"`
	// Seeds are the base seeds of the seed axis. Must be non-empty and
	// duplicate-free.
	Seeds []uint64 `json:"seeds"`
	// Engines names the compared systems (any name core.ParseEngine
	// accepts); canonicalised to core.Engine.String() form.
	Engines []string `json:"engines"`
	// Scales is the cluster-geometry axis.
	Scales []Scale `json:"scales"`
	// Workloads is the workload axis.
	Workloads []Workload `json:"workloads"`
}

// Scale is one point on the cluster-geometry axis.
type Scale struct {
	// Name identifies the scale in cell keys and output rows.
	Name string `json:"name"`
	// Workers is the task-tracker count. Must be positive.
	Workers int `json:"workers"`
	// InputScale multiplies every workload's input sizes (jobs'
	// input_gb and arrival tenants' input bounds). Must be positive and
	// finite.
	InputScale float64 `json:"input_scale"`
}

// Workload is one point on the workload axis: a named scenario (a
// fixed job list or an open arrival process, optionally with tenants
// and a chaos schedule). The grid's axes own the scenario's engine,
// seed and workers, so a workload scenario must leave them unset, and
// trace_verbosity with them (cells record no trace).
type Workload struct {
	// Name identifies the workload in cell keys and output rows.
	Name string `json:"name"`
	// Scenario is the workload before the scale axis applies. Its chaos
	// schedule is canonicalised to chaos.Schedule.String() form.
	Scenario scenario.Scenario `json:"scenario"`
}

// safeName restricts axis names to characters that survive cell keys,
// file names and CSV rows unquoted.
var safeName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ParseSpec decodes a JSON grid spec, rejecting unknown fields, and
// validates and canonicalises it (engine names to their core.Engine
// form, chaos schedules to their chaos.Schedule.String() form).
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("grid: parsing spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("grid: parsing spec: trailing data after the spec object")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the spec and rewrites engine names and chaos
// schedules to canonical form in place.
func (s *Spec) validate() error {
	if !safeName.MatchString(s.Name) {
		return fmt.Errorf("grid: spec name %q invalid (want %s)", s.Name, safeName)
	}
	if s.Repeats <= 0 {
		return fmt.Errorf("grid: repeats = %d, must be positive", s.Repeats)
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("grid: seeds axis is empty")
	}
	seen := make(map[uint64]bool, len(s.Seeds))
	for _, sd := range s.Seeds {
		if seen[sd] {
			return fmt.Errorf("grid: duplicate seed %d", sd)
		}
		seen[sd] = true
	}
	if len(s.Engines) == 0 {
		return fmt.Errorf("grid: engines axis is empty")
	}
	engines := make(map[string]bool, len(s.Engines))
	for i, name := range s.Engines {
		e, err := core.ParseEngine(name)
		if err != nil {
			return fmt.Errorf("grid: engines[%d]: %w", i, err)
		}
		canon := e.String()
		if engines[canon] {
			return fmt.Errorf("grid: duplicate engine %s", canon)
		}
		engines[canon] = true
		s.Engines[i] = canon
	}
	if len(s.Scales) == 0 {
		return fmt.Errorf("grid: scales axis is empty")
	}
	scales := make(map[string]bool, len(s.Scales))
	for i, sc := range s.Scales {
		switch {
		case !safeName.MatchString(sc.Name):
			return fmt.Errorf("grid: scales[%d]: name %q invalid (want %s)", i, sc.Name, safeName)
		case scales[sc.Name]:
			return fmt.Errorf("grid: duplicate scale %q", sc.Name)
		case sc.Workers <= 0:
			return fmt.Errorf("grid: scale %s: workers = %d, must be positive", sc.Name, sc.Workers)
		case sc.InputScale <= 0 || math.IsInf(sc.InputScale, 0):
			return fmt.Errorf("grid: scale %s: input_scale = %v, must be positive and finite", sc.Name, sc.InputScale)
		}
		scales[sc.Name] = true
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("grid: workloads axis is empty")
	}
	workloads := make(map[string]bool, len(s.Workloads))
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if !safeName.MatchString(w.Name) {
			return fmt.Errorf("grid: workloads[%d]: name %q invalid (want %s)", i, w.Name, safeName)
		}
		if workloads[w.Name] {
			return fmt.Errorf("grid: duplicate workload %q", w.Name)
		}
		workloads[w.Name] = true
		if err := w.validate(s.Scales); err != nil {
			return fmt.Errorf("grid: workload %s: %w", w.Name, err)
		}
	}
	return nil
}

// validate checks one workload's scenario at every scale and
// canonicalises its chaos schedule in place.
func (w *Workload) validate(scales []Scale) error {
	sc := &w.Scenario
	switch {
	case sc.Engine != "":
		return fmt.Errorf("scenario sets engine; the engines axis owns it")
	case sc.Seed != 0:
		return fmt.Errorf("scenario sets seed; cells derive it per repeat")
	case sc.Workers != 0:
		return fmt.Errorf("scenario sets workers; the scales axis owns it")
	case sc.TraceVerbosity != 0:
		return fmt.Errorf("scenario sets trace_verbosity; grid cells record no trace")
	}
	var plan scenario.Plan
	for i := range scales {
		at := atScale(*sc, &scales[i])
		var err error
		if plan, err = at.Plan(); err != nil {
			return fmt.Errorf("at scale %s: %w", scales[i].Name, err)
		}
	}
	if sc.Chaos != "" {
		sc.Chaos = plan.Chaos.String()
	}
	return nil
}

// Canonical renders the spec in its canonical JSON form: indented,
// fixed field order, canonical engine names and chaos text, trailing
// newline. ParseSpec(s.Canonical()) reproduces these bytes exactly —
// the fixed point the fuzzer pins.
func (s *Spec) Canonical() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Spec contains only marshalable fields; Validate rejected
		// non-finite floats, the one runtime marshal error source.
		panic(fmt.Sprintf("grid: canonicalising spec: %v", err))
	}
	return append(b, '\n')
}
