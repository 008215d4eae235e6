package grid

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/par"
	"smapreduce/internal/scenario"
)

// Artifact names inside a run directory.
const (
	// SpecFile is the canonicalised spec the run executes; resume and
	// validate read it back.
	SpecFile = "spec.json"
	// JournalFile is the per-cell completion journal: one JSON line per
	// finished cell, appended and synced as cells complete. Line order
	// reflects completion order (worker-dependent); line content is a
	// pure function of the cell.
	JournalFile = "journal.jsonl"
	// GridJSON, GridCSV and AnalysisTables are the final artifacts,
	// written only when every cell has completed.
	GridJSON       = "grid.json"
	GridCSV        = "grid.csv"
	AnalysisTables = "analysis/tables.md"
	// RunLog receives human-oriented progress lines (wall-clock
	// timestamps included, so it is excluded from byte-compare
	// guarantees).
	RunLog = "logs/run.log"
)

// ErrInterrupted reports a sweep stopped by RunOptions.Stopping (or
// StopAfter) before every cell completed. The journal holds every cell
// that finished; Run on the same directory resumes the rest.
var ErrInterrupted = errors.New("grid: sweep interrupted; journaled cells are preserved, resume to continue")

// CellRecord is one completed cell as journaled: its identity plus
// every repeat's metrics. The JSON encoding of a CellRecord is the
// "per-seed result bytes" the determinism suite byte-compares across
// worker counts and scheduler backends.
type CellRecord struct {
	Key      string    `json:"key"`
	Engine   string    `json:"engine"`
	Workload string    `json:"workload"`
	Scale    string    `json:"scale"`
	Seed     uint64    `json:"seed"`
	Repeats  []Metrics `json:"repeats"`
}

// RunOptions configures a sweep over one spec into one directory.
type RunOptions struct {
	// Spec is the validated grid spec.
	Spec *Spec
	// Dir is the run directory. It must exist; Run creates the journal
	// and artifact files inside it.
	Dir string
	// Workers is the cell-level parallelism; non-positive means
	// par.Workers() (GOMAXPROCS, overridable via SMR_WORKERS).
	Workers int
	// Stopping, when non-nil, is polled between cells; once it reports
	// true no new cell starts, in-flight cells finish and are
	// journaled, and Run returns ErrInterrupted. The SIGINT hook.
	Stopping func() bool
	// StopAfter, when positive, interrupts the sweep after this many
	// newly journaled cells — the deterministic interruption the resume
	// tests drive.
	StopAfter int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Result is a completed sweep.
type Result struct {
	// Cells is the expanded cell list in canonical order.
	Cells []Cell
	// Records holds one record per cell, index-aligned with Cells.
	Records []CellRecord
	// Resumed counts cells skipped because the journal already held
	// them; Ran counts cells executed by this call.
	Resumed, Ran int
}

// Run executes the spec's cells in parallel, journaling each completed
// cell, and writes the final artifacts (grid.json, grid.csv, analysis
// tables) once all cells are done. If the directory already holds a
// journal for this spec, journaled cells are skipped — an interrupted
// sweep resumes with no recomputation — and because every repeat's
// seed is a pure function of (cell key, repeat), the final artifacts
// are byte-identical to an uninterrupted sweep's at any worker count.
func Run(opts RunOptions) (*Result, error) {
	spec := opts.Spec
	cells := Expand(spec)
	res := &Result{Cells: cells, Records: make([]CellRecord, len(cells))}

	byKey := make(map[string]int, len(cells))
	for i, c := range cells {
		byKey[c.Key] = i
	}
	done := make([]atomic.Bool, len(cells))
	journalPath := filepath.Join(opts.Dir, JournalFile)
	prior, err := loadJournal(journalPath, spec, cells, byKey)
	if err != nil {
		return nil, err
	}
	for key, rec := range prior {
		i := byKey[key]
		res.Records[i] = rec
		done[i].Store(true)
		res.Resumed++
	}

	pending := make([]int, 0, len(cells)-res.Resumed)
	for i := range cells {
		if !done[i].Load() {
			pending = append(pending, i)
		}
	}

	jf, err := os.OpenFile(journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("grid: opening journal: %w", err)
	}
	defer jf.Close()

	workers := opts.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}
	subs := make([]*mr.SimState, workers)
	for w := range subs {
		subs[w] = mr.NewSimState()
	}

	var (
		mu        sync.Mutex // journal file + log writer + ran counter
		ran       int
		stopped   atomic.Bool
		startWall = time.Now()
	)
	stop := func() bool {
		if stopped.Load() {
			return true
		}
		if opts.Stopping != nil && opts.Stopping() {
			stopped.Store(true)
			return true
		}
		return false
	}
	err = par.ForNUntil(len(pending), workers, stop, func(worker, pi int) error {
		cell := cells[pending[pi]]
		cellStart := time.Now()
		rec, err := runCell(cell, spec, subs[worker])
		if err != nil {
			return err
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("grid: encoding journal record %s: %w", cell.Key, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if _, err := jf.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("grid: appending journal: %w", err)
		}
		// Sync per cell: a crash mid-sweep must not lose completed
		// cells, or resume would silently recompute (correct but slow)
		// — or worse, read a torn final line. Torn lines are detected
		// and rejected by loadJournal.
		if err := jf.Sync(); err != nil {
			return fmt.Errorf("grid: syncing journal: %w", err)
		}
		res.Records[cell.Index] = rec
		done[cell.Index].Store(true)
		ran++
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "[%7.3fs] cell %d/%d %s done in %s (%d repeats)\n",
				time.Since(startWall).Seconds(), res.Resumed+ran, len(cells), cell.Key,
				time.Since(cellStart).Round(time.Millisecond), len(rec.Repeats))
		}
		if opts.StopAfter > 0 && ran >= opts.StopAfter {
			stopped.Store(true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Ran = ran
	for i := range done {
		if !done[i].Load() {
			return res, fmt.Errorf("%w (%d/%d cells journaled in %s)",
				ErrInterrupted, res.Resumed+ran, len(cells), opts.Dir)
		}
	}
	if err := writeArtifacts(opts.Dir, spec, res); err != nil {
		return nil, err
	}
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "[%7.3fs] sweep complete: %d cells (%d resumed, %d ran), artifacts in %s\n",
			time.Since(startWall).Seconds(), len(cells), res.Resumed, res.Ran, opts.Dir)
	}
	return res, nil
}

// loadJournal reads a journal back into per-cell records, validating
// every line against the spec: unknown cell keys, duplicate cells and
// wrong repeat counts mean the journal belongs to a different spec and
// resuming over it would corrupt the sweep. A torn final line (crash
// mid-append) is rejected with instructions rather than silently
// dropped: truncation is the user's call.
func loadJournal(path string, spec *Spec, cells []Cell, byKey map[string]int) (map[string]CellRecord, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("grid: opening journal: %w", err)
	}
	defer f.Close()
	recs := make(map[string]CellRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var rec CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("grid: journal %s:%d: %v (torn or foreign line; delete the journal to restart the sweep)", path, line, err)
		}
		i, ok := byKey[rec.Key]
		if !ok {
			return nil, fmt.Errorf("grid: journal %s:%d: cell %q is not in this spec's grid", path, line, rec.Key)
		}
		if _, dup := recs[rec.Key]; dup {
			return nil, fmt.Errorf("grid: journal %s:%d: cell %q journaled twice", path, line, rec.Key)
		}
		if len(rec.Repeats) != spec.Repeats {
			return nil, fmt.Errorf("grid: journal %s:%d: cell %q has %d repeats, spec wants %d", path, line, rec.Key, len(rec.Repeats), spec.Repeats)
		}
		if want := cellRecordHeader(&cells[i]); rec.Engine != want.Engine || rec.Workload != want.Workload || rec.Scale != want.Scale || rec.Seed != want.Seed {
			return nil, fmt.Errorf("grid: journal %s:%d: cell %q axes disagree with its key", path, line, rec.Key)
		}
		recs[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("grid: reading journal: %w", err)
	}
	return recs, nil
}

// cellRecordHeader builds the identity part of a cell's record.
func cellRecordHeader(cell *Cell) CellRecord {
	return CellRecord{
		Key:      cell.Key,
		Engine:   cell.Engine.String(),
		Workload: cell.Workload.Name,
		Scale:    cell.Scale.Name,
		Seed:     cell.Seed,
	}
}

// runCell executes every repeat of one cell on the worker's recycled
// substrate and returns the completed record.
func runCell(cell Cell, spec *Spec, st *mr.SimState) (CellRecord, error) {
	rec := cellRecordHeader(&cell)
	rec.Repeats = make([]Metrics, spec.Repeats)
	for rep := 0; rep < spec.Repeats; rep++ {
		m, err := runRepeat(cell, rep, st)
		if err != nil {
			return CellRecord{}, fmt.Errorf("grid: cell %s repeat %d: %w", cell.Key, rep, err)
		}
		rec.Repeats[rep] = m
	}
	return rec, nil
}

// runRepeat executes one repeat: the cell's scenario (see
// Cell.Scenario) on the worker's recycled substrate.
func runRepeat(cell Cell, rep int, st *mr.SimState) (Metrics, error) {
	sc := cell.Scenario(rep)
	plan, err := sc.Plan()
	if err != nil {
		return Metrics{}, err // unreachable for validated specs
	}
	plan.Options.Sim = st
	res, err := core.Run(plan.Engine, plan.Options, plan.Specs...)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		Jobs:      len(res.Jobs),
		MakespanS: res.LastFinish(),
		MeanExecS: res.MeanExecutionTime(),
		P50S:      res.LatencyPercentile(50),
		P99S:      res.LatencyPercentile(99),
		SLOMisses: res.SLOMisses(),
		Decisions: len(res.Decisions),
	}
	for _, j := range res.Jobs {
		if j.Finished() {
			m.Completed++
		}
	}
	return m, nil
}

// Scenario returns the scenario one repeat of the cell runs: the
// workload's scenario at the cell's scale, under the cell's engine,
// seeded purely from (cell key, repeat).
func (c *Cell) Scenario(rep int) scenario.Scenario {
	sc := atScale(c.Workload.Scenario, c.Scale)
	sc.Engine = c.Engine.String()
	sc.Seed = RepeatSeed(c.Key, rep)
	return sc
}

// atScale applies the scale axis to a workload scenario: the scale's
// worker count, and input sizes (jobs' input_gb, arrival tenants'
// input bounds) stretched by InputScale. Rates and horizons stay put.
// The jobs and arrival tenants are copied, never shared with the spec.
func atScale(sc scenario.Scenario, scale *Scale) scenario.Scenario {
	sc.Workers = scale.Workers
	sc.Jobs = slices.Clone(sc.Jobs)
	for i := range sc.Jobs {
		sc.Jobs[i].InputGB *= scale.InputScale
	}
	if sc.Arrivals != nil {
		a := *sc.Arrivals
		a.Tenants = slices.Clone(a.Tenants)
		for i := range a.Tenants {
			a.Tenants[i].InputMBMin *= scale.InputScale
			a.Tenants[i].InputMBMax *= scale.InputScale
		}
		sc.Arrivals = &a
	}
	return sc
}
