package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

// rackCfg builds an 8-node fabric in two racks of 4 with a constrained
// uplink.
func rackCfg(uplink float64) Config {
	c := cfg(8)
	c.NodesPerRack = 4
	c.RackUplinkMBps = uplink
	return c
}

func TestRackConfigValidation(t *testing.T) {
	c := cfg(8)
	c.RackUplinkMBps = -1
	if c.Validate() == nil {
		t.Fatal("negative uplink accepted")
	}
	c.RackUplinkMBps = 100
	c.NodesPerRack = 0
	if c.Validate() == nil {
		t.Fatal("uplink without rack size accepted")
	}
	c.NodesPerRack = 4
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraRackUnaffectedByUplink(t *testing.T) {
	fb := NewFabric(rackCfg(10)) // tiny uplink
	f := &Flow{Src: 0, Dst: 1}   // same rack
	fb.Add(f)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-117) > 1e-9 {
		t.Fatalf("intra-rack rate = %v, want full NIC 117", f.Rate())
	}
}

func TestInterRackBoundByUplink(t *testing.T) {
	fb := NewFabric(rackCfg(50))
	f := &Flow{Src: 0, Dst: 5} // rack 0 → rack 1
	fb.Add(f)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-50) > 1e-9 {
		t.Fatalf("inter-rack rate = %v, want uplink 50", f.Rate())
	}
}

func TestUplinkSharedAcrossFlows(t *testing.T) {
	fb := NewFabric(rackCfg(60))
	a := &Flow{Src: 0, Dst: 5}
	b := &Flow{Src: 1, Dst: 6}
	fb.Add(a)
	fb.Add(b)
	fb.ResolveDirty()
	// Both cross rack 0's uplink: 30 each.
	if math.Abs(a.Rate()-30) > 1e-6 || math.Abs(b.Rate()-30) > 1e-6 {
		t.Fatalf("uplink shares = %v/%v, want 30 each", a.Rate(), b.Rate())
	}
	// An intra-rack flow still gets full NIC headroom minus its node's use.
	c := &Flow{Src: 2, Dst: 3}
	fb.Add(c)
	fb.ResolveDirty()
	if math.Abs(c.Rate()-117) > 1e-6 {
		t.Fatalf("intra-rack flow rate = %v", c.Rate())
	}
}

func TestDownlinkBindsToo(t *testing.T) {
	// Two flows from different racks into rack 1: its downlink binds.
	cfg3 := cfg(12)
	cfg3.NodesPerRack = 4
	cfg3.RackUplinkMBps = 80
	fb := NewFabric(cfg3)
	a := &Flow{Src: 0, Dst: 4} // rack0 → rack1
	b := &Flow{Src: 8, Dst: 5} // rack2 → rack1
	fb.Add(a)
	fb.Add(b)
	fb.ResolveDirty()
	if math.Abs(a.Rate()-40) > 1e-6 || math.Abs(b.Rate()-40) > 1e-6 {
		t.Fatalf("downlink shares = %v/%v, want 40 each", a.Rate(), b.Rate())
	}
}

func TestNonBlockingWhenDisabled(t *testing.T) {
	fb := NewFabric(cfg(8)) // RackUplinkMBps = 0 → single switch
	f := &Flow{Src: 0, Dst: 7}
	fb.Add(f)
	fb.ResolveDirty()
	if math.Abs(f.Rate()-117) > 1e-9 {
		t.Fatalf("rate = %v with racks off", f.Rate())
	}
}

// Property: with racks enabled, aggregate inter-rack traffic never
// exceeds any uplink or downlink, and NIC limits still hold.
func TestQuickRackFeasibility(t *testing.T) {
	const n, perRack = 8, 4
	f := func(pairs []uint16, uplinkRaw uint8) bool {
		uplink := float64(uplinkRaw%200) + 20
		c := cfg(n)
		c.NodesPerRack = perRack
		c.RackUplinkMBps = uplink
		fb := NewFabric(c)
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
		out := make([]float64, n)
		in := make([]float64, n)
		up := make([]float64, 2)
		down := make([]float64, 2)
		for _, fl := range flows {
			if fl.Rate() <= 0 {
				return false
			}
			out[fl.Src] += fl.Rate()
			in[fl.Dst] += fl.Rate()
			rs, rd := fl.Src/perRack, fl.Dst/perRack
			if rs != rd {
				up[rs] += fl.Rate()
				down[rd] += fl.Rate()
			}
		}
		for i := 0; i < n; i++ {
			if out[i] > 117+1e-6 || in[i] > 117+1e-6 {
				return false
			}
		}
		for r := 0; r < 2; r++ {
			if up[r] > uplink+1e-6 || down[r] > uplink+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
