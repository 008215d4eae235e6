package experiments

import (
	"fmt"

	"smapreduce/internal/core"
	"smapreduce/internal/metrics"
	"smapreduce/internal/mr"
)

// oversubscription measures how a reduce-heavy job degrades as the rack
// uplinks shrink from non-blocking to 4:1 oversubscribed, and whether
// the slot manager's advantage survives. The paper's testbed has a
// single switch; this probes the design one fabric generation later.
var oversubscription = &Experiment{
	Slug:    "oversubscription",
	Title:   "Rack oversubscription (terasort)",
	Labels:  []string{"fabric", "engine"},
	Metrics: []Metric{execTime},
	Arms: func(cfg Config) []Arm {
		// A rack of 8 nodes can source 8×117 ≈ 936 MB/s; a 2:1 uplink
		// carries half of that, 4:1 a quarter.
		fabrics := []struct {
			ratio  string
			uplink float64
		}{
			{"non-blocking", 0},
			{"2:1", 8 * 117 / 2},
			{"4:1", 8 * 117 / 4},
		}
		var arms []Arm
		for _, f := range fabrics {
			cluster := cfg.cluster()
			cluster.Net.NodesPerRack = 8
			cluster.Net.RackUplinkMBps = f.uplink
			// A modern (netty-style) shuffle implementation: per-fetch
			// caps high enough that the fabric, not the copier, is the
			// shuffle bottleneck — otherwise oversubscription is
			// invisible behind the Hadoop-1 copier ceiling.
			cluster.PerFetchMBps = 20
			arms = append(arms, engineArms([]core.Engine{core.EngineHadoopV1, core.EngineSMapReduce},
				cluster, []mr.JobSpec{cfg.spec("terasort", 40)}, f.ratio)...)
		}
		return arms
	},
}

const oracleMaxSlots = 10

// oracleSweepLabel labels the static HadoopV1 arm with this many map
// slots per node.
func oracleSweepLabel(slots int) string { return fmt.Sprintf("HadoopV1 static %d slots", slots) }

// oracleGap sweeps HadoopV1 static map slots 1..10 on a map-heavy job,
// derives the oracle-best static configuration, and measures how close
// SMapReduce (which starts misconfigured at 3 and must learn) comes to
// it. The table shows the default, the oracle and SMapReduce; the sweep
// arms stay readable through Value.
var oracleGap = &Experiment{
	Slug:    "oracle-gap",
	Title:   "Adaptivity gap (histogram-ratings): SMapReduce vs best static config",
	Labels:  []string{"setting"},
	Metrics: []Metric{execTime},
	Arms: func(cfg Config) []Arm {
		jobs := []mr.JobSpec{cfg.spec("histogram-ratings", 120)}
		var arms []Arm
		for slots := 1; slots <= oracleMaxSlots; slots++ {
			cluster := cfg.cluster()
			cluster.MapSlots = slots
			cluster.MaxMapSlots = slots
			arms = append(arms, arm([]string{oracleSweepLabel(slots)}, core.EngineHadoopV1, cluster, jobs...))
		}
		def := engineArms([]core.Engine{core.EngineHadoopV1, core.EngineSMapReduce}, cfg.cluster(), jobs)
		def[0].Labels = []string{"HadoopV1 default (3 slots)"}
		def[1].Labels = []string{"SMapReduce (starts at 3)"}
		return append(arms, def...)
	},
	Table: func(r *Result) *metrics.Table {
		best, bestExec := oracleBest(r)
		t := metrics.NewTable(r.Experiment.Title, "setting", "exec s")
		t.AddRowf("HadoopV1 default (3 slots)", r.Value("exec s", "HadoopV1 default (3 slots)"))
		t.AddRowf(fmt.Sprintf("HadoopV1 oracle (%d slots)", best), bestExec)
		t.AddRowf("SMapReduce (starts at 3)", r.Value("exec s", "SMapReduce (starts at 3)"))
		return t
	},
}

// oracleBest returns the static slot count with the lowest exec time
// (the first on a tie) and that time.
func oracleBest(r *Result) (int, float64) {
	best, bestExec := 0, 0.0
	for slots := 1; slots <= oracleMaxSlots; slots++ {
		if exec := r.Value("exec s", oracleSweepLabel(slots)); best == 0 || exec < bestExec {
			best, bestExec = slots, exec
		}
	}
	return best, bestExec
}
