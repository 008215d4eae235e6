package grid

import (
	"fmt"
	"hash/fnv"

	"smapreduce/internal/core"
	"smapreduce/internal/sim"
)

// Cell is one point of the expanded grid.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Key is the canonical cell identity "engine/workload/scale/seed".
	// Repeat seeds, the journal and the resume path all key on it.
	Key string
	// Engine is the resolved engine of the cell's engine-axis name.
	Engine core.Engine
	// Workload and Scale point into the spec's axes.
	Workload *Workload
	Scale    *Scale
	// Seed is the cell's base seed from the seed axis. Runs do not use
	// it directly — each repeat derives its own seed via RepeatSeed —
	// but it names the cell.
	Seed uint64
}

// Expand lists the spec's cells in their canonical order — a fixed
// cross product with engines outermost, then workloads, then scales,
// and seeds innermost:
//
//	for engine { for workload { for scale { for seed { cell } } } }
//
// The order is part of the output contract: grid.json, the CSV and the
// analysis tables all list cells in exactly this order, for any worker
// count and across interrupted-and-resumed sweeps.
func Expand(s *Spec) []Cell {
	cells := make([]Cell, 0, len(s.Engines)*len(s.Workloads)*len(s.Scales)*len(s.Seeds))
	for _, name := range s.Engines {
		engine, err := core.ParseEngine(name)
		if err != nil {
			// The spec was validated; a bad engine here is programmer error.
			panic(fmt.Sprintf("grid: expanding unvalidated spec: %v", err))
		}
		for wi := range s.Workloads {
			for si := range s.Scales {
				for _, seed := range s.Seeds {
					w, sc := &s.Workloads[wi], &s.Scales[si]
					cells = append(cells, Cell{
						Index:    len(cells),
						Key:      CellKey(name, w.Name, sc.Name, seed),
						Engine:   engine,
						Workload: w,
						Scale:    sc,
						Seed:     seed,
					})
				}
			}
		}
	}
	return cells
}

// CellKey renders the canonical cell identity. Axis names never
// contain '/', so the key parses back unambiguously.
func CellKey(engine, workload, scale string, seed uint64) string {
	return fmt.Sprintf("%s/%s/%s/%d", engine, workload, scale, seed)
}

// RepeatSeed derives the simulation seed for one repeat of one cell: a
// pure function of (cell key, repeat index) and nothing else. Worker
// count, execution order and resume history cannot reach it, which is
// what makes grid results byte-identical across all of them. The cell
// key hashes through FNV-64a into a splitmix stream forked per repeat,
// so repeats of one cell are mutually independent and cells whose keys
// differ anywhere draw unrelated streams.
func RepeatSeed(cellKey string, repeat int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(cellKey))
	return sim.NewRand(h.Sum64()).Fork(uint64(repeat)).Uint64()
}

// Metrics is one repeat's measured outcome. The fields mirror what the
// figure harnesses and the multi-tenant shoot-out report, so any grid
// cell can stand in for a paper-evaluation cell.
type Metrics struct {
	// Jobs and Completed count submitted and finished jobs.
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	// MakespanS is the finish time of the last job, seconds.
	MakespanS float64 `json:"makespan_s"`
	// MeanExecS is the mean per-job execution time (submission to
	// finish), seconds.
	MeanExecS float64 `json:"mean_exec_s"`
	// P50S/P99S are per-job latency percentiles, seconds.
	P50S float64 `json:"p50_s"`
	P99S float64 `json:"p99_s"`
	// SLOMisses counts jobs that finished past their latency objective.
	SLOMisses int `json:"slo_misses"`
	// Decisions counts slot-manager decisions (SMapReduce only).
	Decisions int `json:"decisions"`
}

// MetricNames lists the per-cell metrics in CSV row order. The CSV
// contract — row count = cells × metrics — counts against this list.
var MetricNames = []string{
	"jobs", "completed", "makespan_s", "mean_exec_s", "p50_s", "p99_s", "slo_misses", "decisions",
}

// Value returns the named metric as a float64 for aggregation.
func (m Metrics) Value(name string) float64 {
	switch name {
	case "jobs":
		return float64(m.Jobs)
	case "completed":
		return float64(m.Completed)
	case "makespan_s":
		return m.MakespanS
	case "mean_exec_s":
		return m.MeanExecS
	case "p50_s":
		return m.P50S
	case "p99_s":
		return m.P99S
	case "slo_misses":
		return float64(m.SLOMisses)
	case "decisions":
		return float64(m.Decisions)
	}
	panic(fmt.Sprintf("grid: unknown metric %q", name))
}
