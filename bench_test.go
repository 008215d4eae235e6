// Benchmarks regenerating every figure of the paper's evaluation and
// every extra, plus the headline single-run comparison:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkExperiments/<slug> iteration performs that experiment's
// full workload matrix on the simulated 16-worker cluster, so ns/op is
// the wall cost of regenerating it (the virtual cluster time is orders
// of magnitude larger).
package smapreduce_test

import (
	"testing"

	smapreduce "smapreduce"
	"smapreduce/internal/experiments"
)

// heavy lists the experiments whose single iteration exceeds ~100 ms of
// wall time; they skip under -short, so `go test -short -bench .` stays
// a quick smoke pass.
var heavy = map[string]bool{
	"fig1": true, "fig3": true, "fig5": true, "fig6": true, "fig7": true,
	"oversubscription": true, "oracle-gap": true, "trace": true, "multitenant": true,
}

// BenchmarkExperiments runs every registered experiment at half the
// paper's input scale: identical shapes, roughly half the wall time per
// iteration.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Default()
	cfg.Scale = 0.5
	for _, e := range experiments.Registry {
		b.Run(e.Slug, func(b *testing.B) {
			if heavy[e.Slug] && testing.Short() {
				b.Skip("heavy experiment benchmark; skipped with -short")
			}
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleJob measures one 50 GB HistogramRating run per engine —
// the unit of work every figure is built from.
func BenchmarkSingleJob(b *testing.B) {
	for _, engine := range []smapreduce.Engine{smapreduce.HadoopV1, smapreduce.YARN, smapreduce.SMapReduce} {
		engine := engine
		b.Run(engine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := smapreduce.Run(engine, smapreduce.Options{},
					smapreduce.Job("histogram-ratings", 50<<10, 30)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
