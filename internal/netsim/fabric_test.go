package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func cfg(nodes int) Config {
	c := DefaultConfig(nodes)
	c.IncastSeverity = 0 // most tests want the pure max-min fabric
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	bad := []Config{
		{Nodes: 0, EgressMBps: 1, IngressMBps: 1},
		{Nodes: 2, EgressMBps: 0, IngressMBps: 1},
		{Nodes: 2, EgressMBps: 1, IngressMBps: 0},
		{Nodes: 2, EgressMBps: 1, IngressMBps: 1, IncastThreshold: -1},
		{Nodes: 2, EgressMBps: 1, IngressMBps: 1, IncastSeverity: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("case %d: invalid config passed", i)
		}
	}
}

func TestSingleFlowGetsNICRate(t *testing.T) {
	fb := NewFabric(cfg(4))
	f := &Flow{Src: 0, Dst: 1, RemainingMB: 100}
	fb.Add(f)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-117) > 1e-9 {
		t.Fatalf("rate = %v, want 117", f.Rate())
	}
	fb.Remove(f)
	if f.Rate() != 0 || fb.Len() != 0 {
		t.Fatal("Remove did not clear")
	}
}

func TestEgressSharing(t *testing.T) {
	fb := NewFabric(cfg(4))
	f1 := &Flow{Src: 0, Dst: 1}
	f2 := &Flow{Src: 0, Dst: 2}
	fb.Add(f1)
	fb.Add(f2)
	fb.ResolveDirty()
	if math.Abs(f1.Rate()-58.5) > 1e-9 || math.Abs(f2.Rate()-58.5) > 1e-9 {
		t.Fatalf("egress shares = %v/%v, want 58.5 each", f1.Rate(), f2.Rate())
	}
}

func TestIngressSharing(t *testing.T) {
	fb := NewFabric(cfg(4))
	f1 := &Flow{Src: 0, Dst: 2}
	f2 := &Flow{Src: 1, Dst: 2}
	fb.Add(f1)
	fb.Add(f2)
	fb.ResolveDirty()
	if math.Abs(f1.Rate()-58.5) > 1e-9 || math.Abs(f2.Rate()-58.5) > 1e-9 {
		t.Fatalf("ingress shares = %v/%v, want 58.5 each", f1.Rate(), f2.Rate())
	}
	if math.Abs(fb.TotalIngress(2)-117) > 1e-9 {
		t.Fatalf("TotalIngress = %v, want 117", fb.TotalIngress(2))
	}
}

func TestMaxMinBottleneckShift(t *testing.T) {
	// Flows: A:0→2, B:1→2, C:1→3. Receiver 2 is the bottleneck for A
	// and B (58.5 each). C then water-fills the rest of sender 1's
	// egress: min(117−58.5, 117) = 58.5.
	fb := NewFabric(cfg(4))
	a := &Flow{Src: 0, Dst: 2}
	b := &Flow{Src: 1, Dst: 2}
	c := &Flow{Src: 1, Dst: 3}
	fb.Add(a)
	fb.Add(b)
	fb.Add(c)
	fb.ResolveDirty()
	if math.Abs(a.Rate()-58.5) > 1e-6 || math.Abs(b.Rate()-58.5) > 1e-6 {
		t.Fatalf("a=%v b=%v, want 58.5", a.Rate(), b.Rate())
	}
	if math.Abs(c.Rate()-58.5) > 1e-6 {
		t.Fatalf("c=%v, want 58.5", c.Rate())
	}
}

func TestMaxMinAsymmetric(t *testing.T) {
	// 3 flows into node 0, one of whose senders also sends elsewhere.
	// Receiver 0: three flows → 39 each. Sender 3's second flow gets
	// the leftover egress 117−39 = 78.
	fb := NewFabric(cfg(5))
	flows := []*Flow{
		{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0},
		{Src: 3, Dst: 4},
	}
	for _, f := range flows {
		fb.Add(f)
	}
	fb.ResolveDirty()
	for i := 0; i < 3; i++ {
		if math.Abs(flows[i].Rate()-39) > 1e-6 {
			t.Fatalf("flow %d rate = %v, want 39", i, flows[i].Rate())
		}
	}
	if math.Abs(flows[3].Rate()-78) > 1e-6 {
		t.Fatalf("leftover flow rate = %v, want 78", flows[3].Rate())
	}
}

func TestIncastPenalty(t *testing.T) {
	c := DefaultConfig(20)
	c.IncastThreshold = 4
	c.IncastSeverity = 0.5
	fb := NewFabric(c)
	var flows []*Flow
	for s := 1; s <= 8; s++ {
		f := &Flow{Src: s, Dst: 0}
		fb.Add(f)
		flows = append(flows, f)
	}
	fb.ResolveDirty()
	// 8 flows, threshold 4: cap = 117/(1+0.5*4) = 39 → 4.875 each.
	want := 117.0 / 3 / 8
	if math.Abs(flows[0].Rate()-want) > 1e-6 {
		t.Fatalf("incast rate = %v, want %v", flows[0].Rate(), want)
	}
	// Compare against no-penalty fabric.
	if fb.TotalIngress(0) >= 117 {
		t.Fatal("incast did not reduce aggregate ingress")
	}
}

func TestIncastBelowThresholdUnaffected(t *testing.T) {
	c := DefaultConfig(10)
	c.IncastThreshold = 4
	c.IncastSeverity = 0.5
	fb := NewFabric(c)
	for s := 1; s <= 4; s++ {
		fb.Add(&Flow{Src: s, Dst: 0})
	}
	fb.ResolveDirty()
	if math.Abs(fb.TotalIngress(0)-117) > 1e-6 {
		t.Fatalf("ingress = %v, want full 117 at threshold", fb.TotalIngress(0))
	}
}

func TestLoopbackUnconstrained(t *testing.T) {
	fb := NewFabric(cfg(4))
	f := &Flow{Src: 2, Dst: 2}
	g := &Flow{Src: 0, Dst: 2}
	fb.Add(f)
	fb.Add(g)
	fb.ResolveDirty()
	if !math.IsInf(f.Rate(), 1) {
		t.Fatalf("loopback rate = %v, want +Inf", f.Rate())
	}
	if math.Abs(g.Rate()-117) > 1e-9 {
		t.Fatalf("loopback consumed NIC capacity: %v", g.Rate())
	}
}

func TestDoubleAddPanics(t *testing.T) {
	fb := NewFabric(cfg(2))
	f := &Flow{Src: 0, Dst: 1}
	fb.Add(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double Add did not panic")
		}
	}()
	fb.Add(f)
}

func TestOutOfRangePanics(t *testing.T) {
	fb := NewFabric(cfg(2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-range endpoint did not panic")
		}
		// An unlabelled flow is named by its endpoints.
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"flow 0->5"`) {
			t.Fatalf("panic %q does not name the flow", msg)
		}
	}()
	fb.Add(&Flow{Src: 0, Dst: 5})
}

func TestRemoveForeignNoop(t *testing.T) {
	fb1 := NewFabric(cfg(2))
	fb2 := NewFabric(cfg(2))
	f := &Flow{Src: 0, Dst: 1}
	fb1.Add(f)
	fb1.ResolveDirty()
	fb2.Remove(f)
	if f.Rate() == 0 {
		t.Fatal("foreign Remove detached flow")
	}
}

func TestRemoveRestoresRates(t *testing.T) {
	fb := NewFabric(cfg(4))
	f1 := &Flow{Src: 0, Dst: 1}
	f2 := &Flow{Src: 0, Dst: 2}
	fb.Add(f1)
	fb.Add(f2)
	fb.Remove(f2)
	fb.ResolveDirty()
	if math.Abs(f1.Rate()-117) > 1e-9 {
		t.Fatalf("rate after Remove = %v, want 117", f1.Rate())
	}
}

// Property: the max-min allocation never violates any link capacity and
// every flow gets a strictly positive rate.
func TestQuickFeasibility(t *testing.T) {
	const n = 8
	f := func(pairs []uint16) bool {
		fb := NewFabric(cfg(n))
		var flows []*Flow
		for _, p := range pairs {
			if len(flows) >= 60 {
				break
			}
			src, dst := int(p%n), int((p/n)%n)
			if src == dst {
				continue
			}
			fl := &Flow{Src: src, Dst: dst}
			fb.Add(fl)
			flows = append(flows, fl)
		}
		fb.ResolveDirty()
		out := make([]float64, n)
		in := make([]float64, n)
		for _, fl := range flows {
			if fl.Rate() <= 0 {
				return false
			}
			out[fl.Src] += fl.Rate()
			in[fl.Dst] += fl.Rate()
		}
		for i := 0; i < n; i++ {
			if out[i] > 117+1e-6 || in[i] > 117+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min fairness — no flow can be increased without
// decreasing another flow with an equal or smaller rate. Equivalent
// check: every flow is bottlenecked at some saturated link where it has
// the maximum rate among flows crossing that link.
func TestQuickMaxMinProperty(t *testing.T) {
	const n = 6
	f := func(pairs []uint16) bool {
		fb := NewFabric(cfg(n))
		var flows []*Flow
		for _, p := range pairs {
			if len(flows) >= 40 {
				break
			}
			src, dst := int(p%n), int((p/n)%n)
			if src == dst {
				continue
			}
			fl := &Flow{Src: src, Dst: dst}
			fb.Add(fl)
			flows = append(flows, fl)
		}
		fb.ResolveDirty()
		if len(flows) == 0 {
			return true
		}
		out := make([]float64, n)
		in := make([]float64, n)
		for _, fl := range flows {
			out[fl.Src] += fl.Rate()
			in[fl.Dst] += fl.Rate()
		}
		for _, fl := range flows {
			egSat := out[fl.Src] > 117-1e-6
			inSat := in[fl.Dst] > 117-1e-6
			okEg, okIn := false, false
			if egSat {
				okEg = true
				for _, g := range flows {
					if g.Src == fl.Src && g.Rate() > fl.Rate()+1e-6 {
						okEg = false
					}
				}
			}
			if inSat {
				okIn = true
				for _, g := range flows {
					if g.Dst == fl.Dst && g.Rate() > fl.Rate()+1e-6 {
						okIn = false
					}
				}
			}
			if !okEg && !okIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCapBoundsFlow(t *testing.T) {
	fb := NewFabric(cfg(4))
	f := &Flow{Src: 0, Dst: 1, CapMBps: 10}
	fb.Add(f)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-10) > 1e-9 {
		t.Fatalf("capped rate = %v, want 10", f.Rate())
	}
}

func TestCapLeavesHeadroomForOthers(t *testing.T) {
	fb := NewFabric(cfg(4))
	capped := &Flow{Src: 0, Dst: 2, CapMBps: 10}
	free := &Flow{Src: 1, Dst: 2}
	fb.Add(capped)
	fb.Add(free)
	fb.ResolveDirty()
	// Receiver 2 has 117; capped takes 10, free water-fills 107.
	if math.Abs(capped.Rate()-10) > 1e-6 || math.Abs(free.Rate()-107) > 1e-6 {
		t.Fatalf("rates = %v/%v, want 10/107", capped.Rate(), free.Rate())
	}
}

func TestCapAboveShareIsInert(t *testing.T) {
	fb := NewFabric(cfg(4))
	a := &Flow{Src: 0, Dst: 2, CapMBps: 1000}
	b := &Flow{Src: 1, Dst: 2, CapMBps: 1000}
	fb.Add(a)
	fb.Add(b)
	fb.ResolveDirty()
	if math.Abs(a.Rate()-58.5) > 1e-6 || math.Abs(b.Rate()-58.5) > 1e-6 {
		t.Fatalf("rates = %v/%v, want 58.5 each", a.Rate(), b.Rate())
	}
}

func TestManyCappedFlowsAggregate(t *testing.T) {
	// 8 capped fetches into one receiver: aggregate is 8×10 = 80 < 117,
	// so every flow runs at its cap.
	fb := NewFabric(cfg(10))
	var flows []*Flow
	for s := 1; s <= 8; s++ {
		f := &Flow{Src: s, Dst: 0, CapMBps: 10}
		fb.Add(f)
		flows = append(flows, f)
	}
	fb.ResolveDirty()
	for _, f := range flows {
		if math.Abs(f.Rate()-10) > 1e-6 {
			t.Fatalf("rate = %v, want 10", f.Rate())
		}
	}
	// 16 such flows exceed the NIC: shares drop below the cap.
	for s := 1; s <= 8; s++ {
		fb.Add(&Flow{Src: s, Dst: 0, CapMBps: 10})
	}
	fb.ResolveDirty()
	if fb.TotalIngress(0) > 117+1e-6 {
		t.Fatalf("ingress exceeded NIC: %v", fb.TotalIngress(0))
	}
}

func TestNegativeCapPanics(t *testing.T) {
	fb := NewFabric(cfg(2))
	defer func() {
		if recover() == nil {
			t.Fatal("negative cap did not panic")
		}
	}()
	fb.Add(&Flow{Src: 0, Dst: 1, CapMBps: -1})
}

func TestTopUp(t *testing.T) {
	fb := NewFabric(cfg(2))
	f := &Flow{Src: 0, Dst: 1, RemainingMB: 5}
	fb.Add(f)
	fb.TopUp(f, 7)
	if f.RemainingMB != 12 {
		t.Fatalf("RemainingMB = %v, want 12", f.RemainingMB)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative TopUp did not panic")
			}
		}()
		fb.TopUp(f, -1)
	}()
	g := &Flow{Src: 0, Dst: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign TopUp did not panic")
		}
	}()
	fb.TopUp(g, 1)
}

// Property: with caps, no flow ever exceeds its cap and link limits hold.
func TestQuickCapFeasibility(t *testing.T) {
	const n = 6
	f := func(pairs []uint16) bool {
		fb := NewFabric(cfg(n))
		var flows []*Flow
		for _, p := range pairs {
			if len(flows) >= 40 {
				break
			}
			src, dst := int(p%n), int((p/n)%n)
			if src == dst {
				continue
			}
			fl := &Flow{Src: src, Dst: dst, CapMBps: float64(p%97) + 1}
			fb.Add(fl)
			flows = append(flows, fl)
		}
		fb.ResolveDirty()
		out := make([]float64, n)
		in := make([]float64, n)
		for _, fl := range flows {
			if fl.Rate() <= 0 || fl.Rate() > fl.CapMBps+1e-6 {
				return false
			}
			out[fl.Src] += fl.Rate()
			in[fl.Dst] += fl.Rate()
		}
		for i := 0; i < n; i++ {
			if out[i] > 117+1e-6 || in[i] > 117+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowObserverSeesLifecycle pins the observer contract: onAdd fires
// after the flow is fully registered (rate already meaningful once the
// fabric resolves), onRemove fires exactly once per removed flow, and
// flows foreign to the fabric trigger neither callback.
func TestFlowObserverSeesLifecycle(t *testing.T) {
	fb := NewFabric(cfg(4))
	var added, removed []*Flow
	fb.SetFlowObserver(
		func(f *Flow) { added = append(added, f) },
		func(f *Flow) { removed = append(removed, f) },
	)

	f1 := &Flow{Src: 0, Dst: 1, RemainingMB: 10}
	f2 := &Flow{Src: 2, Dst: 3, RemainingMB: 20}
	fb.Add(f1)
	fb.Add(f2)
	if len(added) != 2 || added[0] != f1 || added[1] != f2 {
		t.Fatalf("onAdd saw %d flows, want f1 then f2", len(added))
	}
	if len(removed) != 0 {
		t.Fatalf("onRemove fired before any Remove")
	}

	// A flow belonging to a different fabric must not leak through.
	other := NewFabric(cfg(4))
	foreign := &Flow{Src: 0, Dst: 1}
	other.Add(foreign)
	fb.Remove(foreign)
	if len(removed) != 0 {
		t.Fatal("onRemove fired for a foreign flow")
	}

	fb.Remove(f1)
	fb.Remove(f1) // second Remove is a no-op
	if len(removed) != 1 || removed[0] != f1 {
		t.Fatalf("onRemove fired %d times for f1, want once", len(removed))
	}
	fb.Remove(f2)
	if len(removed) != 2 || removed[1] != f2 {
		t.Fatalf("onRemove total = %d, want 2", len(removed))
	}
	if fb.Len() != 0 {
		t.Fatalf("fabric still holds %d flows", fb.Len())
	}
}
