package netsim

import (
	"math"
	"testing"
)

// Link scaling is the fabric's fault-injection hook (internal/chaos):
// a factor in [0,1] multiplies a node's egress/ingress capacity, 0
// severs the direction entirely.

func TestLinkScaleThrottlesEgress(t *testing.T) {
	fb := NewFabric(cfg(4))
	f := &Flow{Src: 0, Dst: 1}
	fb.Add(f)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-117) > 1e-9 {
		t.Fatalf("baseline rate = %v, want 117", f.Rate())
	}
	fb.SetNodeLinkScale(0, 0.5, 1)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-58.5) > 1e-9 {
		t.Fatalf("half egress: rate = %v, want 58.5", f.Rate())
	}
	eg, in := fb.NodeLinkScale(0)
	if eg != 0.5 || in != 1 {
		t.Fatalf("NodeLinkScale = %v/%v, want 0.5/1", eg, in)
	}
	fb.SetNodeLinkScale(0, 1, 1)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-117) > 1e-9 {
		t.Fatalf("restored rate = %v, want 117", f.Rate())
	}
}

func TestLinkScaleThrottlesIngress(t *testing.T) {
	fb := NewFabric(cfg(4))
	f := &Flow{Src: 0, Dst: 2}
	fb.Add(f)
	fb.SetNodeLinkScale(2, 1, 0.25)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-117*0.25) > 1e-9 {
		t.Fatalf("quarter ingress: rate = %v, want %v", f.Rate(), 117*0.25)
	}
}

func TestLinkScaleSeverStallsOnlyAffectedFlows(t *testing.T) {
	fb := NewFabric(cfg(4))
	severed := &Flow{Src: 0, Dst: 1}
	bystander := &Flow{Src: 2, Dst: 3}
	fb.Add(severed)
	fb.Add(bystander)
	fb.SetNodeLinkScale(0, 0, 0)
	fb.ResolveDirty()
	if severed.Rate() != 0 {
		t.Fatalf("severed flow still runs at %v", severed.Rate())
	}
	if math.Abs(bystander.Rate()-117) > 1e-9 {
		t.Fatalf("bystander flow disturbed: %v", bystander.Rate())
	}
	// Healing the partition re-enters the water-filling resolver.
	fb.SetNodeLinkScale(0, 1, 1)
	fb.ResolveDirty()
	if math.Abs(severed.Rate()-117) > 1e-9 {
		t.Fatalf("healed flow rate = %v, want 117", severed.Rate())
	}
}

func TestLinkScaleSeveredIngressBlocksAllSenders(t *testing.T) {
	fb := NewFabric(cfg(4))
	f1 := &Flow{Src: 0, Dst: 3}
	f2 := &Flow{Src: 1, Dst: 3}
	fb.Add(f1)
	fb.Add(f2)
	fb.SetNodeLinkScale(3, 1, 0)
	fb.ResolveDirty()
	if f1.Rate() != 0 || f2.Rate() != 0 {
		t.Fatalf("flows into partitioned node run at %v/%v", f1.Rate(), f2.Rate())
	}
}

func TestSetNodeLinkScalePanicsOnBadArgs(t *testing.T) {
	fb := NewFabric(cfg(4))
	cases := []func(){
		func() { fb.SetNodeLinkScale(-1, 1, 1) },
		func() { fb.SetNodeLinkScale(4, 1, 1) },
		func() { fb.SetNodeLinkScale(0, -0.1, 1) },
		func() { fb.SetNodeLinkScale(0, 1, 1.1) },
		func() { fb.SetNodeLinkScale(0, math.NaN(), 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}
