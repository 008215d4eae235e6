package fleet

import (
	"runtime"
	"testing"

	"smapreduce/internal/core"
)

// TestFleetReferenceDifferential pins the optimised paths across the
// fleet: the same fleet seed run in the default mode and in reference
// mode (Cluster.Reference, flowing into every per-cluster config) must
// produce byte-identical per-cluster artefacts and merged totals, at
// workers=1 and workers=GOMAXPROCS, for both the closed-workload and
// the open-arrival multi-tenant shapes. Reference mode also builds
// fresh substrate for every cluster, so this covers a worker's
// SimState reuse too.
func TestFleetReferenceDifferential(t *testing.T) {
	const clusters = 8
	shapes := []struct {
		name string
		mk   func(workers int) Config
	}{
		{"closed", func(workers int) Config {
			return testConfig(clusters, workers)
		}},
		{"open-arrivals", func(workers int) Config {
			cfg := testConfig(clusters, workers)
			cfg.Engine = core.EngineFairShare
			cfg.Specs = nil
			cfg.Arrivals = testArrivals
			return cfg
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
				dOut, dRes := artifacts(t, shape.mk(w))
				ref := shape.mk(w)
				ref.Cluster.Reference = true
				rOut, rRes := artifacts(t, ref)
				for i := range dOut {
					if dOut[i] != rOut[i] {
						t.Fatalf("workers=%d: cluster %d artefacts diverge between default and reference mode (%d vs %d bytes)",
							w, i, len(dOut[i]), len(rOut[i]))
					}
				}
				if got, want := mergedBits(rRes), mergedBits(dRes); got != want {
					t.Fatalf("workers=%d: merged result diverges between default and reference mode:\n%s\n%s", w, got, want)
				}
			}
		})
	}
}
