package experiments

import (
	"fmt"
	"strings"
	"testing"

	"smapreduce/internal/core"
)

func TestOversubscription(t *testing.T) {
	shape(t)
	r := run(t, oversubscription, testCfg())
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, engine := range []core.Engine{core.EngineHadoopV1, core.EngineSMapReduce} {
		nb := engineValue(r, "exec s", engine, "non-blocking")
		two := engineValue(r, "exec s", engine, "2:1")
		four := engineValue(r, "exec s", engine, "4:1")
		if nb <= 0 || two <= 0 || four <= 0 {
			t.Fatalf("%v missing fabric arms", engine)
		}
		// Terasort's cross-rack shuffle must slow down monotonically as
		// the uplink shrinks.
		if !(nb <= two+1e-9 && two <= four+1e-9) {
			t.Errorf("%v not monotone under oversubscription: %v / %v / %v", engine, nb, two, four)
		}
		if four <= nb {
			t.Errorf("%v: 4:1 fabric (%v) not slower than non-blocking (%v)", engine, four, nb)
		}
	}
	// SMapReduce never loses to V1 by a meaningful margin on any fabric.
	for _, ratio := range []string{"non-blocking", "2:1", "4:1"} {
		if smr, v1 := engineValue(r, "exec s", core.EngineSMapReduce, ratio), engineValue(r, "exec s", core.EngineHadoopV1, ratio); smr > 1.1*v1 {
			t.Errorf("SMR (%v) lost to V1 (%v) on %s fabric", smr, v1, ratio)
		}
	}
}

func TestOracleGap(t *testing.T) {
	shape(t)
	r := run(t, oracleGap, testCfg())
	def := r.Value("exec s", "HadoopV1 default (3 slots)")
	bestSlots, oracle := oracleBest(r)
	smr := r.Value("exec s", "SMapReduce (starts at 3)")
	if def <= 0 || oracle <= 0 || smr <= 0 {
		t.Fatal("missing arms")
	}
	// The oracle is the sweep's minimum by construction.
	for slots := 1; slots <= oracleMaxSlots; slots++ {
		if exec := r.Value("exec s", oracleSweepLabel(slots)); exec < oracle-1e-9 {
			t.Fatalf("sweep[%d]=%v below recorded oracle %v", slots, exec, oracle)
		}
	}
	if !strings.Contains(r.Table().String(), fmt.Sprintf("HadoopV1 oracle (%d slots)", bestSlots)) {
		t.Errorf("table does not name the oracle's %d slots:\n%s", bestSlots, r.Table())
	}
	// The interesting claims: SMapReduce beats the default static
	// config decisively and lands within 50% of the oracle despite
	// starting misconfigured and paying its learning curve.
	if smr >= def {
		t.Errorf("SMR (%v) did not beat the default static config (%v)", smr, def)
	}
	if smr > 1.5*oracle {
		t.Errorf("SMR (%v) too far from the oracle (%v)", smr, oracle)
	}
	if bestSlots <= 3 {
		t.Errorf("oracle slots = %d; expected the map-heavy optimum above the default 3", bestSlots)
	}
}
