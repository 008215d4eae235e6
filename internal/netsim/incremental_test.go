package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// churnConfig names one fabric shape the differential churn test runs.
type churnConfig struct {
	name string
	cfg  Config
	// capMode: 0 = uncapped, 1 = uniform cap (the shuffle-fetch shape),
	// 2 = mixed per-flow caps.
	capMode int
}

func churnConfigs() []churnConfig {
	flat := DefaultConfig(16)
	flat.IncastSeverity = 0

	incast := DefaultConfig(16)
	incast.IncastThreshold = 4
	incast.IncastSeverity = 0.3

	racked := DefaultConfig(24)
	racked.IncastSeverity = 0
	racked.NodesPerRack = 8
	racked.RackUplinkMBps = 468

	return []churnConfig{
		{"flat-uncapped", flat, 0},
		{"flat-uniform-cap", flat, 1},
		{"incast-mixed-cap", incast, 2},
		{"racked-uniform-cap", racked, 1},
		{"racked-mixed-cap", racked, 2},
	}
}

// mirrored is one logical flow registered in both fabrics under test.
type mirrored struct {
	inc, full *Flow
}

func newMirrored(rng *rand.Rand, nodes, capMode int) mirrored {
	src := rng.Intn(nodes)
	dst := rng.Intn(nodes - 1)
	if dst >= src {
		dst++ // never loopback: churn targets the constrained graph
	}
	capMBps := 0.0
	switch capMode {
	case 1:
		capMBps = 3.5
	case 2:
		if rng.Intn(2) == 0 {
			capMBps = 1 + rng.Float64()*60
		}
	}
	mk := func() *Flow {
		return &Flow{Src: src, Dst: dst, RemainingMB: 100, CapMBps: capMBps}
	}
	return mirrored{inc: mk(), full: mk()}
}

// TestChurnIncrementalMatchesFull drives seeded random add/remove/top-up
// churn through two fabrics — one resolved incrementally (ResolveDirty
// after each mutation batch), one from scratch (Recompute) — and
// asserts every flow's rate matches within 1e-9 after every batch.
func TestChurnIncrementalMatchesFull(t *testing.T) {
	seeds := []int64{1, 2, 3, 17, 99, 12345}
	for _, cc := range churnConfigs() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", cc.name, seed), func(t *testing.T) {
				runChurnDifferential(t, cc, seed)
			})
		}
	}
}

func runChurnDifferential(t *testing.T, cc churnConfig, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fbInc := NewFabric(cc.cfg)
	fbFull := NewFabric(cc.cfg)
	var live []mirrored

	const batches = 120
	for b := 0; b < batches; b++ {
		// Each batch applies 1–4 mutations then resolves once, the same
		// shape as one mr mutation scope.
		nMut := 1 + rng.Intn(4)
		for m := 0; m < nMut; m++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(live) == 0: // add (biased so the fabric fills up)
				mf := newMirrored(rng, cc.cfg.Nodes, cc.capMode)
				fbInc.Add(mf.inc)
				fbFull.Add(mf.full)
				live = append(live, mf)
			case op < 8: // remove
				i := rng.Intn(len(live))
				fbInc.Remove(live[i].inc)
				fbFull.Remove(live[i].full)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // top-up (must not perturb any rate)
				i := rng.Intn(len(live))
				mb := rng.Float64() * 50
				fbInc.TopUp(live[i].inc, mb)
				fbFull.TopUp(live[i].full, mb)
			}
		}
		fbInc.ResolveDirty()
		fbFull.Recompute()
		for i, mf := range live {
			if d := mf.inc.Rate() - mf.full.Rate(); math.Abs(d) > 1e-9 {
				t.Fatalf("batch %d flow %d (%d->%d cap %v): incremental %v, full %v",
					b, i, mf.inc.Src, mf.inc.Dst, mf.inc.CapMBps, mf.inc.Rate(), mf.full.Rate())
			}
		}
		checkMaxMin(t, fbInc, live, b)
	}
	if fbInc.DirtyLinks() != 0 {
		t.Fatalf("dirty links not drained after resolve: %d", fbInc.DirtyLinks())
	}
}

// checkMaxMin re-verifies the max-min property on the incrementally
// resolved fabric: every uncapped flow is bottlenecked at some
// saturated link where no co-user has a higher rate, and no capped
// flow exceeds its cap.
func checkMaxMin(t *testing.T, fb *Fabric, live []mirrored, batch int) {
	t.Helper()
	n := fb.Config().Nodes
	out := make([]float64, n)
	in := make([]float64, n)
	for _, mf := range live {
		f := mf.inc
		if f.CapMBps > 0 && f.Rate() > f.CapMBps+1e-6 {
			t.Fatalf("batch %d: flow exceeds cap: %v > %v", batch, f.Rate(), f.CapMBps)
		}
		if f.Rate() <= 0 {
			t.Fatalf("batch %d: flow starved: %v", batch, f.Rate())
		}
		out[f.Src] += f.Rate()
		in[f.Dst] += f.Rate()
	}
	egCap := fb.Config().EgressMBps
	for i := 0; i < n; i++ {
		if out[i] > egCap+1e-6 {
			t.Fatalf("batch %d: egress %d overcommitted: %v", batch, i, out[i])
		}
		if in[i] > fb.ingressCap(i)+1e-6 {
			t.Fatalf("batch %d: ingress %d overcommitted: %v", batch, i, in[i])
		}
	}
	for _, mf := range live {
		f := mf.inc
		if f.CapMBps > 0 && f.Rate() > f.CapMBps-1e-6 {
			continue // bottlenecked by its own cap
		}
		egSat := out[f.Src] > egCap-1e-6
		inSat := in[f.Dst] > fb.ingressCap(f.Dst)-1e-6
		okEg, okIn := egSat, inSat
		for _, mg := range live {
			g := mg.inc
			if egSat && g.Src == f.Src && g.Rate() > f.Rate()+1e-6 {
				okEg = false
			}
			if inSat && g.Dst == f.Dst && g.Rate() > f.Rate()+1e-6 {
				okIn = false
			}
		}
		// Racked fabrics may bottleneck on an uplink instead; only
		// enforce the NIC-level check when rack modelling is off.
		if fb.Config().RackUplinkMBps == 0 && !okEg && !okIn {
			t.Fatalf("batch %d: flow %d->%d rate %v not max-min bottlenecked",
				batch, f.Src, f.Dst, f.Rate())
		}
	}
}

// TestFullResolveVerifierRuns exercises the SetFullResolve escape
// hatch: the fabric itself compares incremental against from-scratch
// resolution on every ResolveDirty and panics on divergence, so a
// clean run of seeded churn is the assertion.
func TestFullResolveVerifierRuns(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.IncastThreshold = 3
	cfg.IncastSeverity = 0.2
	fb := NewFabric(cfg)
	fb.SetFullResolve(true)
	rng := rand.New(rand.NewSource(7))
	var live []*Flow
	for b := 0; b < 200; b++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			f := &Flow{Src: rng.Intn(12), Dst: rng.Intn(12), CapMBps: 3.5}
			if f.Src == f.Dst {
				f.CapMBps = 0 // exercise loopbacks through the verifier too
			}
			fb.Add(f)
			live = append(live, f)
		} else {
			i := rng.Intn(len(live))
			fb.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		fb.ResolveDirty()
	}
}

// TestTopUpDoesNotDirty pins the design invariant that volume changes
// never enter rate allocation: a TopUp alone must leave the dirty set
// empty, so the next resolve is free.
func TestTopUpDoesNotDirty(t *testing.T) {
	fb := NewFabric(cfg(4))
	f := &Flow{Src: 0, Dst: 1, RemainingMB: 10}
	fb.Add(f)
	fb.ResolveDirty()
	if fb.DirtyLinks() != 0 {
		t.Fatalf("dirty links after resolved Add: %d", fb.DirtyLinks())
	}
	fb.TopUp(f, 100)
	if fb.DirtyLinks() != 0 {
		t.Fatalf("TopUp dirtied links: %d", fb.DirtyLinks())
	}
}

// TestRecomputeGuardRatesUnchanged is the regression companion to
// hoisting the numerical guard: allocations on a saturated fabric must
// be exactly the analytic shares, i.e. the guard's placement cannot
// perturb results.
func TestRecomputeGuardRatesUnchanged(t *testing.T) {
	fb := NewFabric(cfg(8))
	var flows []*Flow
	// 4 flows out of node 0 (egress-bound at 29.25 each), plus 3 into
	// node 5 from distinct senders (ingress-bound at 39 each).
	for d := 1; d <= 4; d++ {
		f := &Flow{Src: 0, Dst: d}
		fb.Add(f)
		flows = append(flows, f)
	}
	for s := 1; s <= 3; s++ {
		f := &Flow{Src: s, Dst: 5}
		fb.Add(f)
		flows = append(flows, f)
	}
	fb.ResolveDirty()
	for i := 0; i < 4; i++ {
		if got := flows[i].Rate(); math.Abs(got-29.25) > 1e-12 {
			t.Fatalf("egress share = %v, want 29.25 exactly", got)
		}
	}
	// Senders 1..3 each have ample egress headroom, so receiver 5's
	// ingress splits 117 three ways.
	for i := 4; i < 7; i++ {
		if got := flows[i].Rate(); math.Abs(got-39) > 1e-12 {
			t.Fatalf("ingress share = %v, want 39 exactly", got)
		}
	}
}

// BenchmarkChurnIncremental measures the steady-state cost of one
// remove+add+resolve cycle with incremental resolution on a fabric
// with many independent components — the workload shape of a running
// cluster where one event perturbs one reducer's fan-in.
func BenchmarkChurnIncremental(b *testing.B) {
	benchmarkChurn(b, false)
}

// BenchmarkChurnFull is the same cycle with a from-scratch Recompute,
// the pre-optimisation behaviour.
func BenchmarkChurnFull(b *testing.B) {
	benchmarkChurn(b, true)
}

func benchmarkChurn(b *testing.B, full bool) {
	cfg := DefaultConfig(128)
	fb := NewFabric(cfg)
	// Steady state: 32 reducers, each fetching from 3 dedicated senders
	// in its own 4-node group, so the flow graph splits into 32
	// link-disjoint components. One churn event (a fetch finishing and
	// its successor starting) perturbs exactly one reducer's fan-in;
	// the other 31 components keep their cached rates — the incremental
	// path's cost stays O(one component) while a full resolve scales
	// with the whole fabric population.
	var live []*Flow
	for g := 0; g < 32; g++ {
		dst := 4 * g
		for k := 0; k < 5; k++ {
			f := &Flow{Src: dst + 1 + k%3, Dst: dst, RemainingMB: 100, CapMBps: 3.5}
			fb.Add(f)
			live = append(live, f)
		}
	}
	fb.Recompute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(live)
		old := live[j]
		fb.Remove(old)
		nf := &Flow{Src: old.Src, Dst: old.Dst, RemainingMB: 100, CapMBps: 3.5}
		fb.Add(nf)
		live[j] = nf
		if full {
			fb.Recompute()
		} else {
			fb.ResolveDirty()
		}
	}
}
