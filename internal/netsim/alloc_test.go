package netsim

import "testing"

// TestChurnResolveDirtyAllocFree guards the resolver hot path's
// steady-state allocation behaviour: one churn cycle (remove a flow,
// release it, acquire+add its replacement, ResolveDirty) on the
// benchmark topology — 32 link-disjoint reducer fan-ins on a 128-node
// fabric — must allocate nothing: the flow pool recycles the removed
// flow and the resolver's scratch is hoisted. The telemetry/invariant
// layer must not regress this: when disabled it adds no work here.
func TestChurnResolveDirtyAllocFree(t *testing.T) {
	fb := NewFabric(DefaultConfig(128))
	var live []*Flow
	for g := 0; g < 32; g++ {
		dst := 4 * g
		for k := 0; k < 5; k++ {
			f := fb.AcquireFlow()
			f.Src, f.Dst = dst+1+k%3, dst
			f.RemainingMB, f.CapMBps = 100, 3.5
			fb.Add(f)
			live = append(live, f)
		}
	}
	fb.Recompute()

	i := 0
	churn := func() {
		j := i % len(live)
		i++
		old := live[j]
		src, dst := old.Src, old.Dst
		fb.Remove(old)
		fb.ReleaseFlow(old)
		nf := fb.AcquireFlow()
		nf.Src, nf.Dst = src, dst
		nf.RemainingMB, nf.CapMBps = 100, 3.5
		fb.Add(nf)
		live[j] = nf
		fb.ResolveDirty()
	}
	// Warm up so internal scratch buffers reach steady-state capacity.
	for k := 0; k < 2000; k++ {
		churn()
	}
	avg := testing.AllocsPerRun(2000, churn)
	if avg != 0 {
		t.Fatalf("churn cycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestFlowPoolReuseAndGuards pins the pool contract: release resets
// every field (Userdata included), acquire hands the same object back,
// and misuse (double release, release while registered, Add after
// release) panics.
func TestFlowPoolReuseAndGuards(t *testing.T) {
	fb := NewFabric(DefaultConfig(8))
	f := fb.AcquireFlow()
	f.Src, f.Dst, f.RemainingMB, f.Label, f.Userdata = 1, 2, 50, "x", "payload"
	fb.Add(f)

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("release while registered", func() { fb.ReleaseFlow(f) })

	fb.Remove(f)
	fb.ReleaseFlow(f)
	if f.Userdata != nil || f.Label != "" || f.RemainingMB != 0 {
		t.Fatal("release did not reset the flow")
	}
	mustPanic("double release", func() { fb.ReleaseFlow(f) })
	mustPanic("Add after release", func() { fb.Add(f) })

	got := fb.AcquireFlow()
	if got != f {
		t.Fatal("pool did not recycle the released flow")
	}
	got.Src, got.Dst, got.RemainingMB = 3, 4, 10
	fb.Add(got) // must be fully usable again
	fb.Remove(got)
}
