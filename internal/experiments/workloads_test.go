package experiments

import (
	"fmt"
	"testing"

	"smapreduce/internal/core"
)

func TestControllerComparison(t *testing.T) {
	shape(t)
	r := run(t, controllers, testCfg())
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Map-heavy: both controllers beat static; the climber is
	// competitive with the manager.
	mh := "histogram-ratings"
	static := r.Value("exec s", mh, "static (HadoopV1)")
	smr := r.Value("exec s", mh, "slot manager (paper)")
	hc := r.Value("exec s", mh, "hill climber (model-free)")
	if smr >= static || hc >= static {
		t.Errorf("map-heavy: controllers did not beat static (%v / %v vs %v)", smr, hc, static)
	}
	if hc > 1.3*smr {
		t.Errorf("map-heavy: hill climber (%v) far behind manager (%v)", hc, smr)
	}
	// Reduce-heavy: the manager must not lose to the model-free law.
	ts := "terasort"
	if r.Value("exec s", ts, "slot manager (paper)") > 1.05*r.Value("exec s", ts, "hill climber (model-free)") {
		t.Errorf("reduce-heavy: manager (%v) lost to climber (%v)",
			r.Value("exec s", ts, "slot manager (paper)"), r.Value("exec s", ts, "hill climber (model-free)"))
	}
}

func TestSkewSensitivity(t *testing.T) {
	shape(t)
	r := run(t, skew, testCfg())
	get := func(s float64, engine core.Engine) float64 { return engineValue(r, "exec s", engine, fmt.Sprint(s)) }
	for _, engine := range []core.Engine{core.EngineHadoopV1, core.EngineSMapReduce} {
		prev := 0.0
		for _, skew := range []float64{0, 0.5, 1.0} {
			exec := get(skew, engine)
			if exec <= 0 {
				t.Fatalf("%v missing skew %v", engine, skew)
			}
			if exec < prev {
				t.Errorf("%v: skew %v (%v) faster than lighter skew (%v)", engine, skew, exec, prev)
			}
			prev = exec
		}
		// A Zipf-1 hot partition must visibly stretch the job.
		if get(1.0, engine) < 1.1*get(0, engine) {
			t.Errorf("%v: heavy skew barely visible: %v vs %v", engine, get(1.0, engine), get(0, engine))
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	a := GenerateTrace(7, 10, 30, 5, 40, 8)
	b := GenerateTrace(7, 10, 30, 5, 40, 8)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("trace lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].InputMB != b[i].InputMB || a[i].SubmitAt != b[i].SubmitAt {
			t.Fatalf("trace not deterministic at %d", i)
		}
		if a[i].InputMB < 5*1024 || a[i].InputMB > 40*1024 {
			t.Fatalf("size out of range: %v", a[i].InputMB)
		}
		if err := a[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Arrivals strictly increase (exponential gaps are positive).
	for i := 1; i < len(a); i++ {
		if a[i].SubmitAt <= a[i-1].SubmitAt {
			t.Fatal("arrivals not increasing")
		}
	}
	// Different seeds differ.
	c := GenerateTrace(8, 10, 30, 5, 40, 8)
	same := true
	for i := range a {
		if a[i].InputMB != c[i].InputMB {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceWorkload(t *testing.T) {
	shape(t)
	r := run(t, traceWorkload, testCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	v1 := engineValue(r, "mean exec s", core.EngineHadoopV1)
	smr := engineValue(r, "mean exec s", core.EngineSMapReduce)
	if v1 <= 0 || smr <= 0 {
		t.Fatal("missing rows")
	}
	for _, row := range r.Rows {
		mean, p95, makespan := r.Value("mean exec s", row.Labels...), r.Value("p95 exec s", row.Labels...), r.Value("makespan s", row.Labels...)
		if p95 < mean {
			t.Errorf("%v: p95 (%v) below mean (%v)", row.Labels, p95, mean)
		}
		if makespan <= 0 {
			t.Errorf("%v: makespan %v", row.Labels, makespan)
		}
	}
	// On a mixed production trace the slot manager must not lose to
	// static slots on mean latency, and typically wins.
	if smr > 1.05*v1 {
		t.Errorf("trace mean: SMR (%v) lost to V1 (%v)", smr, v1)
	}
}
