package experiments

import (
	"strings"
	"testing"

	"smapreduce/internal/mr"
	"smapreduce/internal/resource"
)

func TestAblationBounds(t *testing.T) {
	shape(t)
	r := run(t, ablationBounds, testCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if r.Value("exec s", row.Labels...) <= 0 || r.Value("map s", row.Labels...) <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	if !strings.Contains(r.Table().String(), "bounds") {
		t.Error("table missing settings")
	}
}

func TestAblationSlowStart(t *testing.T) {
	shape(t)
	r := run(t, ablationSlowStart, testCfg())
	late, paper := r.Value("exec s", "slow start 30%"), r.Value("exec s", "slow start 10%")
	// A very late slow start wastes adaptation time: 30% must not beat
	// the paper's 10% by any meaningful margin.
	if late < 0.98*paper {
		t.Errorf("late slow start (%v) beat the paper default (%v)", late, paper)
	}
}

func TestAblationConfirmations(t *testing.T) {
	shape(t)
	r := run(t, ablationConfirmations, testCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestAblationLazyVsEager(t *testing.T) {
	shape(t)
	r := run(t, ablationLazyEager, testCfg())
	lazy := r.Value("exec s", "lazy (paper)")
	eager := r.Value("exec s", "eager (kill and reschedule)")
	if lazy <= 0 || eager <= 0 {
		t.Fatal("missing arms")
	}
	// On a shuffle-bound decrement the wasted map work is nearly free,
	// so eager may edge ahead — but never by a large factor, and the
	// two must genuinely diverge (the decrement path must execute).
	if lazy > 1.10*eager {
		t.Errorf("lazy (%v) far behind eager (%v)", lazy, eager)
	}
	if lazy == eager {
		t.Error("lazy and eager produced identical runs; decrement path never executed")
	}
}

func TestAblationTailBoost(t *testing.T) {
	shape(t)
	r := run(t, ablationTailBoost, testCfg())
	on := r.Value("exec s", "boost on (paper)")
	off := r.Value("exec s", "boost off")
	// With 64 reducers on 32 default slots the boost removes a whole
	// reduce wave: it must deliver a real speedup.
	if on >= 0.98*off {
		t.Errorf("tail boost ineffective: on %v vs off %v", on, off)
	}
}

func TestHeterogeneous(t *testing.T) {
	shape(t)
	r := run(t, heterogeneous, testCfg())
	v1 := r.Value("exec s", "HadoopV1 static")
	uniform := r.Value("exec s", "SMapReduce uniform targets")
	scaled := r.Value("exec s", "SMapReduce per-node scaling")
	if v1 <= 0 || uniform <= 0 || scaled <= 0 {
		t.Fatal("missing arms")
	}
	// Uniform targets stall on mixed hardware: the slow nodes' thrashing
	// cancels the fast nodes' gains, so uniform SMR lands near V1.
	if uniform < 0.85*v1 || uniform > 1.15*v1 {
		t.Errorf("uniform SMR (%v) expected ≈V1 (%v) on hetero cluster", uniform, v1)
	}
	// Per-node scaling is the fix: it must clearly beat both.
	if scaled >= 0.9*v1 {
		t.Errorf("per-node scaling (%v) not well below V1 (%v)", scaled, v1)
	}
	if scaled >= uniform {
		t.Errorf("per-node scaling (%v) not better than uniform (%v)", scaled, uniform)
	}
}

func TestSchedulers(t *testing.T) {
	shape(t)
	r := run(t, schedulers, testCfg())
	fifo, fair := r.Value("mean exec s", "fifo"), r.Value("mean exec s", "fair")
	if fifo == 0 || fair == 0 {
		t.Fatal("missing schedulers")
	}
	// Fair lets the short jobs through the long one: mean drops.
	if fair >= fifo {
		t.Errorf("fair mean (%v) not below FIFO mean (%v)", fair, fifo)
	}
}

func TestHeteroConfigValidation(t *testing.T) {
	cfg := mr.DefaultConfig()
	cfg.NodeSpecs = make([]resource.Spec, 3) // wrong length, zero specs
	if cfg.Validate() == nil {
		t.Fatal("mismatched NodeSpecs length accepted")
	}
	cfg.NodeSpecs = make([]resource.Spec, cfg.Workers)
	if cfg.Validate() == nil {
		t.Fatal("zero-valued NodeSpecs accepted")
	}
	for i := range cfg.NodeSpecs {
		cfg.NodeSpecs[i] = resource.DefaultSpec()
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid hetero config rejected: %v", err)
	}
	cfg.Scheduler = mr.SchedulerKind(9)
	if cfg.Validate() == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestSpeculationExperiment(t *testing.T) {
	shape(t)
	r := run(t, speculation, testCfg())
	off := r.Value("exec s", "no speculation")
	on := r.Value("exec s", "speculation on")
	if off <= 0 || on <= 0 {
		t.Fatal("missing arms")
	}
	if on >= off {
		t.Errorf("speculation (%v) did not beat the straggler cluster baseline (%v)", on, off)
	}
	if launched, wins := r.Value("launched", "speculation on"), r.Value("wins", "speculation on"); launched == 0 || wins == 0 {
		t.Errorf("no speculative activity recorded: launched=%v wins=%v", launched, wins)
	}
	if strings.Contains(r.Table().String(), "launched") {
		t.Error("table shows the hidden speculation counts")
	}
}
