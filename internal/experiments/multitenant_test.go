package experiments

import (
	"slices"
	"testing"

	"smapreduce/internal/core"
)

// shootoutCfg shrinks the sweep so the test stays fast: the tenant mix
// still saturates at load 2 because input sizes shrink with Scale while
// arrival rates stay fixed.
func shootoutCfg() Config {
	cfg := Default()
	cfg.Scale = 0.05
	cfg.Workers = 8
	cfg.Reduces = 8
	return cfg
}

// shootoutValue reads one metric of the (engine, load) cell.
func shootoutValue(r *Result, metric string, engine core.Engine, load float64) float64 {
	return r.Value(metric, labels(engine, load)...)
}

func TestMultiTenantShootout(t *testing.T) {
	shape(t)
	r := run(t, multiTenant, shootoutCfg())
	engines, loads := shootoutEngines, shootoutLoads
	if len(engines) < 4 {
		t.Fatalf("shoot-out compares only %d engines", len(engines))
	}
	if len(r.Rows) != len(engines)*len(loads) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(engines)*len(loads))
	}
	for _, engine := range engines {
		for _, load := range loads {
			get := func(metric string) float64 { return shootoutValue(r, metric, engine, load) }
			jobs, misses := get("jobs"), get("SLO miss")
			if jobs <= 0 {
				t.Fatalf("%v load %g admitted no jobs", engine, load)
			}
			if makespan, p50, p99 := get("makespan s"), get("p50 s"), get("p99 s"); !(makespan > 0 && p50 > 0 && p99 >= p50) {
				t.Fatalf("%v load %g: makespan=%v p50=%v p99=%v", engine, load, makespan, p50, p99)
			}
			if misses < 0 || misses > jobs {
				t.Fatalf("%v load %g: SLO misses %v of %v jobs", engine, load, misses, jobs)
			}
		}
		// The same arrival stream feeds every load level; higher load
		// must admit at least as many jobs.
		lo := shootoutValue(r, "jobs", engine, loads[0])
		hi := shootoutValue(r, "jobs", engine, loads[len(loads)-1])
		if hi < lo {
			t.Errorf("%v: jobs fell from %v to %v as load rose", engine, lo, hi)
		}
	}
	// Identical engines see identical workloads: the job count at a
	// given load is engine-independent (arrival streams are a pure
	// function of the seed and load, never the engine).
	for _, load := range loads {
		ref := shootoutValue(r, "jobs", engines[0], load)
		for _, engine := range engines[1:] {
			if jobs := shootoutValue(r, "jobs", engine, load); jobs != ref {
				t.Errorf("load %g: %v admitted %v jobs but %v admitted %v",
					load, engines[0], ref, engine, jobs)
			}
		}
	}
	if tbl := r.Table(); tbl == nil || len(tbl.Rows) != len(r.Rows) {
		t.Fatal("Table() malformed")
	}
}

func TestShootoutDeterministic(t *testing.T) {
	shape(t)
	cfg := shootoutCfg()
	a := run(t, multiTenant, cfg)
	b := run(t, multiTenant, cfg)
	for i := range a.Rows {
		if !slices.Equal(a.Rows[i].Values, b.Rows[i].Values) {
			t.Fatalf("row %v diverged between identical sweeps:\n%v\n%v", a.Rows[i].Labels, a.Rows[i].Values, b.Rows[i].Values)
		}
	}
	// The capacity engines must actually exercise their policies.
	for _, engine := range core.CapacityEngines() {
		if shootoutValue(a, "jobs", engine, shootoutLoads[len(shootoutLoads)-1]) == 0 {
			t.Fatalf("capacity engine %v ran no jobs", engine)
		}
	}
}
