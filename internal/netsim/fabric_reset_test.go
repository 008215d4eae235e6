package netsim

import (
	"math"
	"testing"
)

// driveFabric runs a fixed churn scenario against fb and returns the
// rate of every flow after each step, bit-comparable between a fresh
// and a reset fabric.
func driveFabric(fb *Fabric) []float64 {
	var rates []float64
	snap := func(fs ...*Flow) {
		for _, f := range fs {
			rates = append(rates, f.Rate())
		}
	}
	a := fb.AcquireFlow()
	*a = Flow{Src: 0, Dst: 1, RemainingMB: 100, Label: "a"}
	b := fb.AcquireFlow()
	*b = Flow{Src: 2, Dst: 1, RemainingMB: 100, Label: "b"}
	c := fb.AcquireFlow()
	*c = Flow{Src: 0, Dst: 3, RemainingMB: 100, CapMBps: 5, Label: "c"}
	fb.Add(a)
	fb.ResolveDirty()
	snap(a)
	fb.Add(b)
	fb.ResolveDirty()
	snap(a, b)
	fb.Add(c)
	fb.ResolveDirty()
	snap(a, b, c)
	fb.SetNodeLinkScale(1, 1, 0.5)
	fb.ResolveDirty()
	snap(a, b, c)
	fb.Remove(b)
	fb.ResolveDirty()
	snap(a, c)
	fb.SetNodeLinkScale(1, 1, 1)
	fb.ResolveDirty()
	snap(a, c)
	fb.Remove(a)
	fb.Remove(c)
	fb.ReleaseFlow(a)
	fb.ReleaseFlow(b)
	fb.ReleaseFlow(c)
	return rates
}

func TestFabricResetMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(8)
	reused := NewFabric(cfg)
	driveFabric(reused)
	reused.Reset(cfg)

	fresh := NewFabric(cfg)
	want := driveFabric(fresh)
	got := driveFabric(reused)
	if len(want) != len(got) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("rate %d differs: fresh %v, reused %v", i, want[i], got[i])
		}
	}
}

func TestFabricResetClearsState(t *testing.T) {
	fb := NewFabric(DefaultConfig(4))
	fb.SetFullResolve(true)
	rateCalls := 0
	fb.SetRateListener(func(*Flow) { rateCalls++ })
	adds := 0
	fb.SetFlowObserver(func(*Flow) { adds++ }, nil)
	f := &Flow{Src: 0, Dst: 1, RemainingMB: 10}
	fb.Add(f)
	fb.SetNodeLinkScale(2, 0.5, 0.5)
	fb.Reset(DefaultConfig(4))

	if fb.Len() != 0 {
		t.Fatalf("Len = %d after Reset", fb.Len())
	}
	if fb.DirtyLinks() != 0 {
		t.Fatalf("DirtyLinks = %d after Reset", fb.DirtyLinks())
	}
	if eg, in := fb.NodeLinkScale(2); eg != 1 || in != 1 {
		t.Fatalf("link scale (%v,%v) after Reset, want (1,1)", eg, in)
	}
	// Listeners must be gone: a new add and its resolve invoke none
	// of the old callbacks.
	rateCalls, adds = 0, 0
	g := &Flow{Src: 0, Dst: 1, RemainingMB: 10}
	fb.Add(g)
	fb.ResolveDirty()
	if rateCalls != 0 || adds != 0 {
		t.Fatalf("old listeners fired after Reset (rate=%d add=%d)", rateCalls, adds)
	}
	if g.Rate() <= 0 {
		t.Fatalf("flow unresolved after Reset: rate %v", g.Rate())
	}
}

func TestFabricResetChangesGeometry(t *testing.T) {
	fb := NewFabric(DefaultConfig(2))
	fb.Add(&Flow{Src: 0, Dst: 1, RemainingMB: 10})
	// Grow, including racks this time.
	cfg := DefaultConfig(16)
	cfg.NodesPerRack = 4
	cfg.RackUplinkMBps = 200
	fb.Reset(cfg)
	want := NewFabric(cfg)
	wf := &Flow{Src: 0, Dst: 5, RemainingMB: 10} // crosses racks
	gf := &Flow{Src: 0, Dst: 5, RemainingMB: 10}
	want.Add(wf)
	fb.Add(gf)
	want.ResolveDirty()
	fb.ResolveDirty()
	if math.Float64bits(wf.Rate()) != math.Float64bits(gf.Rate()) {
		t.Fatalf("cross-rack rate differs after growth: fresh %v, reused %v", wf.Rate(), gf.Rate())
	}
	// Shrink back down.
	fb.Reset(DefaultConfig(2))
	h := &Flow{Src: 0, Dst: 1, RemainingMB: 10}
	fb.Add(h)
	fb.ResolveDirty()
	if h.Rate() <= 0 {
		t.Fatalf("rate %v after shrink", h.Rate())
	}
}

func TestFabricResetKeepsFlowPool(t *testing.T) {
	fb := NewFabric(DefaultConfig(4))
	f := fb.AcquireFlow()
	fb.ReleaseFlow(f)
	fb.Reset(DefaultConfig(4))
	if got := fb.AcquireFlow(); got != f {
		t.Fatal("Reset dropped the flow free list")
	}
}

func TestFabricResetInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with invalid config did not panic")
		}
	}()
	NewFabric(DefaultConfig(4)).Reset(Config{Nodes: -1})
}
