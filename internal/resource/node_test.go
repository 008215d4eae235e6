package resource

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testSpec() Spec {
	s := DefaultSpec()
	return s
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("DefaultSpec invalid: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Cores = 0 },
		func(s *Spec) { s.CoreSpeed = 0 },
		func(s *Spec) { s.RAMMB = 0 },
		func(s *Spec) { s.ReservedMB = -1 },
		func(s *Spec) { s.ReservedMB = s.RAMMB },
		func(s *Spec) { s.DiskMBps = 0 },
		func(s *Spec) { s.Beta = 0.5 },
		func(s *Spec) { s.PagingK = -1 },
	}
	for i, mutate := range bad {
		s := DefaultSpec()
		mutate(&s)
		if s.Validate() == nil {
			t.Fatalf("case %d: invalid spec passed validation: %+v", i, s)
		}
	}
}

func TestNewNodePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNode with bad spec did not panic")
		}
	}()
	NewNode(0, Spec{})
}

func TestSingleCPUActivityRate(t *testing.T) {
	n := NewNode(0, testSpec())
	a := &Activity{Kind: CPU, Remaining: 10, Weight: 1, Pressure: 0.01, FootprintMB: 100, Label: "t"}
	n.Add(a)
	// One task, negligible pressure: rate ≈ CoreSpeed.
	if math.Abs(a.Rate()-1.0) > 0.01 {
		t.Fatalf("rate = %v, want ≈1.0", a.Rate())
	}
	n.Remove(a)
	if a.Rate() != 0 || n.Len() != 0 {
		t.Fatal("Remove did not clear")
	}
}

func TestCPUSharingIsEqual(t *testing.T) {
	n := NewNode(0, testSpec())
	var acts []*Activity
	for i := 0; i < 4; i++ {
		a := &Activity{Kind: CPU, Remaining: 10, Weight: 1, Pressure: 0.05, FootprintMB: 100}
		n.Add(a)
		acts = append(acts, a)
	}
	for _, a := range acts {
		if math.Abs(a.Rate()-acts[0].Rate()) > 1e-12 {
			t.Fatal("unequal CPU shares")
		}
	}
	total := 4 * acts[0].Rate()
	if math.Abs(total-n.CPUThroughput()) > 1e-9 {
		t.Fatalf("shares (%v) do not sum to throughput (%v)", total, n.CPUThroughput())
	}
}

func TestThroughputRisesThenFalls(t *testing.T) {
	// The defining Fig. 1 property: with calibrated pressure the
	// throughput curve peaks at the intended slot count.
	n := NewNode(0, testSpec())
	for _, peak := range []int{4, 6, 8} {
		pi := PressureForPeak(float64(peak), testSpec().Beta)
		got := n.PeakSlots(pi, 500, 16)
		if got < peak-1 || got > peak+1 {
			t.Fatalf("peak slots = %d, want ≈%d", got, peak)
		}
		// Strictly lower beyond the peak.
		atPeak := n.ThroughputCurve(got, pi, 500)
		beyond := n.ThroughputCurve(got+3, pi, 500)
		if beyond >= atPeak {
			t.Fatalf("no thrashing: Θ(%d)=%v >= Θ(%d)=%v", got+3, beyond, got, atPeak)
		}
		// Rising before the peak.
		if n.ThroughputCurve(1, pi, 500) >= atPeak {
			t.Fatal("curve not rising before peak")
		}
	}
}

func TestPagingCollapse(t *testing.T) {
	n := NewNode(0, testSpec())
	avail := testSpec().RAMMB - testSpec().ReservedMB
	fits := n.ThroughputCurve(4, 0.01, avail/8)
	over := n.ThroughputCurve(4, 0.01, avail/2) // 2× overcommitted
	if over >= fits/2 {
		t.Fatalf("paging collapse too weak: fits=%v over=%v", fits, over)
	}
}

func TestCoreBound(t *testing.T) {
	spec := testSpec()
	spec.Cores = 2
	n := NewNode(0, spec)
	// With negligible pressure, throughput saturates at Cores.
	two := n.ThroughputCurve(2, 0.001, 10)
	four := n.ThroughputCurve(4, 0.001, 10)
	if four > two*1.01 {
		t.Fatalf("throughput exceeded core bound: 2→%v 4→%v", two, four)
	}
}

func TestDiskSharing(t *testing.T) {
	n := NewNode(0, testSpec())
	d1 := &Activity{Kind: Disk, Remaining: 100, Weight: 1}
	d2 := &Activity{Kind: Disk, Remaining: 100, Weight: 1}
	n.Add(d1)
	if math.Abs(d1.Rate()-testSpec().DiskMBps) > 1e-9 {
		t.Fatalf("sole disk rate = %v, want %v", d1.Rate(), testSpec().DiskMBps)
	}
	n.Add(d2)
	if math.Abs(d1.Rate()-testSpec().DiskMBps/2) > 1e-9 {
		t.Fatalf("shared disk rate = %v, want %v", d1.Rate(), testSpec().DiskMBps/2)
	}
}

func TestPhantomDegradesCPU(t *testing.T) {
	n := NewNode(0, testSpec())
	c := &Activity{Kind: CPU, Remaining: 10, Weight: 1, Pressure: 0.1}
	n.Add(c)
	before := c.Rate()
	ph := &Activity{Kind: Phantom, Weight: 0.5, Pressure: 0.3, FootprintMB: 1000, Label: "fetcher"}
	n.Add(ph)
	if ph.Rate() != 0 {
		t.Fatal("phantom has a rate")
	}
	if c.Rate() >= before {
		t.Fatalf("phantom pressure did not degrade CPU: %v -> %v", before, c.Rate())
	}
	n.Remove(ph)
	if math.Abs(c.Rate()-before) > 1e-9 {
		t.Fatal("removing phantom did not restore rate")
	}
}

func TestDoubleAddPanics(t *testing.T) {
	n := NewNode(0, testSpec())
	a := &Activity{Kind: CPU, Remaining: 1, Weight: 1}
	n.Add(a)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Add did not panic")
		}
		// An unlabelled activity is named by its kind and node.
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"cpu activity on node 0"`) {
			t.Fatalf("panic %q does not name the activity", msg)
		}
	}()
	n.Add(a)
}

func TestRemoveForeignIsNoop(t *testing.T) {
	n1 := NewNode(0, testSpec())
	n2 := NewNode(1, testSpec())
	a := &Activity{Kind: CPU, Remaining: 1, Weight: 1}
	n1.Add(a)
	n2.Remove(a) // must not panic or detach
	if a.Rate() == 0 {
		t.Fatal("foreign Remove detached the activity")
	}
	n1.Remove(a)
}

func TestNegativeFieldsPanics(t *testing.T) {
	n := NewNode(0, testSpec())
	cases := []*Activity{
		{Kind: CPU, Remaining: -1, Weight: 1},
		{Kind: CPU, Remaining: 1, Weight: -1},
		{Kind: CPU, Remaining: 1, Weight: 1, Pressure: -1},
		{Kind: CPU, Remaining: 1, Weight: 1, FootprintMB: -1},
	}
	for i, a := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("case %d: bad activity did not panic", i)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, `"cpu activity" on node 0`) {
					t.Fatalf("case %d: panic %q does not name the activity", i, msg)
				}
			}()
			n.Add(a)
		}()
	}
}

func TestAggregatesResetWhenEmpty(t *testing.T) {
	n := NewNode(0, testSpec())
	for i := 0; i < 100; i++ {
		a := &Activity{Kind: CPU, Remaining: 1, Weight: 1, Pressure: 0.1, FootprintMB: 33.3}
		n.Add(a)
		n.Remove(a)
	}
	if n.Threads() != 0 || n.PressureLevel() != 0 || n.FootprintMB() != 0 {
		t.Fatalf("aggregates drifted: w=%v p=%v f=%v", n.Threads(), n.PressureLevel(), n.FootprintMB())
	}
}

func TestPressureForPeakPanics(t *testing.T) {
	for _, f := range []func(){
		func() { PressureForPeak(0, 6) },
		func() { PressureForPeak(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("PressureForPeak with bad args did not panic")
				}
			}()
			f()
		}()
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || Disk.String() != "disk" || Phantom.String() != "phantom" {
		t.Fatal("Kind.String")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind empty string")
	}
}

// Property: rates are non-negative and CPU shares always sum to the
// node throughput, for arbitrary activity mixes.
func TestQuickConservation(t *testing.T) {
	f := func(kinds []uint8) bool {
		n := NewNode(0, testSpec())
		var acts []*Activity
		for i, k := range kinds {
			if len(acts) > 40 {
				break
			}
			a := &Activity{
				Kind:        Kind(k % 3),
				Remaining:   float64(i%7) + 1,
				Weight:      float64(k%4) / 2,
				Pressure:    float64(k%5) / 25,
				FootprintMB: float64(k%11) * 50,
			}
			n.Add(a)
			acts = append(acts, a)
		}
		sum := 0.0
		for _, a := range acts {
			if a.Rate() < 0 {
				return false
			}
			if a.Kind == CPU {
				sum += a.Rate()
			}
		}
		return math.Abs(sum-n.CPUThroughput()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: efficiency is monotonically non-increasing in pressure.
func TestQuickEfficiencyMonotone(t *testing.T) {
	n := NewNode(0, testSpec())
	f := func(a, b uint16) bool {
		pa, pb := float64(a)/1000, float64(b)/1000
		if pa > pb {
			pa, pb = pb, pa
		}
		return n.efficiencyAt(pa, 0) >= n.efficiencyAt(pb, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
