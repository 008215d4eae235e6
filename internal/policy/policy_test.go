package policy

import (
	"math"
	"reflect"
	"testing"

	"smapreduce/internal/mr"
)

func snaps(demands map[string]int) []mr.TenantSnapshot {
	// Build snapshots in tenant-name order, matching the runtime.
	names := make([]string, 0, len(demands))
	for n := range demands {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for k := i; k > 0 && names[k] < names[k-1]; k-- {
			names[k], names[k-1] = names[k-1], names[k]
		}
	}
	out := make([]mr.TenantSnapshot, len(names))
	for i, n := range names {
		out[i] = mr.TenantSnapshot{Tenant: n, Demand: demands[n], Cap: -1}
	}
	return out
}

func capsOf(t *testing.T, allocs []mr.TenantAllocation) map[string]int {
	t.Helper()
	out := make(map[string]int, len(allocs))
	for _, a := range allocs {
		out[a.Tenant] = a.TaskCap
	}
	return out
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Tenants: []Tenant{{Name: ""}}},
		{Tenants: []Tenant{{Name: "a"}, {Name: "a"}}},
		{Tenants: []Tenant{{Name: "a", Weight: -2}}},
		{Tenants: []Tenant{{Name: "a", Guarantee: 1.5}}},
		{Tenants: []Tenant{{Name: "a", Guarantee: -0.1}}},
		{Tenants: []Tenant{{Name: "a", Guarantee: 0.6}, {Name: "b", Guarantee: 0.6}}},
	}
	for i, o := range bad {
		if _, err := NewFairShare(o); err == nil {
			t.Errorf("case %d: NewFairShare accepted invalid options %+v", i, o)
		}
	}
	p, err := NewFairShare(Options{})
	if err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	if p.Name() != "fair-share" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestSlackLiftsAllCaps(t *testing.T) {
	policies := []mr.CapacityPolicy{
		mustFairShare(t, Options{}),
		mustCapacityQueue(t, Options{}),
		mustGameTheoretic(t, Options{}),
	}
	tenants := snaps(map[string]int{"a": 3, "b": 4})
	for _, p := range policies {
		allocs := p.Allocate(0, 10, tenants, nil) // demand 7 <= total 10
		for _, a := range allocs {
			if a.TaskCap >= 0 {
				t.Errorf("%s: tenant %s capped at %d under slack, want uncapped", p.Name(), a.Tenant, a.TaskCap)
			}
			if a.Reason != "slack" {
				t.Errorf("%s: reason = %q, want slack", p.Name(), a.Reason)
			}
		}
	}
}

func TestFairShareEqualWeights(t *testing.T) {
	p := mustFairShare(t, Options{})
	got := capsOf(t, p.Allocate(0, 10, snaps(map[string]int{"a": 20, "b": 20}), nil))
	want := map[string]int{"a": 5, "b": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("caps = %v, want %v", got, want)
	}
}

func TestFairShareWeights(t *testing.T) {
	p := mustFairShare(t, Options{Tenants: []Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}}})
	got := capsOf(t, p.Allocate(0, 12, snaps(map[string]int{"a": 20, "b": 20}), nil))
	want := map[string]int{"a": 9, "b": 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("caps = %v, want %v", got, want)
	}
}

func TestFairShareRedistributesUnusedShare(t *testing.T) {
	// a only wants 2 of its fair 5; the surplus flows to b.
	p := mustFairShare(t, Options{})
	got := capsOf(t, p.Allocate(0, 10, snaps(map[string]int{"a": 2, "b": 20}), nil))
	want := map[string]int{"a": 2, "b": 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("caps = %v, want %v", got, want)
	}
}

func TestFairShareAntiStarvation(t *testing.T) {
	// b's continuous share rounds to zero; it must still get one slot.
	p := mustFairShare(t, Options{Tenants: []Tenant{{Name: "a", Weight: 100}, {Name: "b", Weight: 1}}})
	got := capsOf(t, p.Allocate(0, 4, snaps(map[string]int{"a": 10, "b": 10}), nil))
	if got["b"] < 1 {
		t.Errorf("caps = %v: tenant b starved", got)
	}
	if got["a"]+got["b"] != 4 {
		t.Errorf("caps = %v: sum != total", got)
	}
}

func TestFairShareSharesSumToOne(t *testing.T) {
	p := mustFairShare(t, Options{})
	allocs := p.Allocate(0, 7, snaps(map[string]int{"a": 9, "b": 9, "c": 9}), nil)
	sum := 0.0
	for _, a := range allocs {
		if a.TaskCap < 0 {
			t.Fatalf("unexpected uncapped tenant %s", a.Tenant)
		}
		sum += a.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestCapacityQueueGuarantees(t *testing.T) {
	p := mustCapacityQueue(t, Options{Tenants: []Tenant{
		{Name: "a", Guarantee: 0.7},
		{Name: "b", Guarantee: 0.1},
	}})
	got := capsOf(t, p.Allocate(0, 10, snaps(map[string]int{"a": 20, "b": 20}), nil))
	if got["a"] < 7 {
		t.Errorf("caps = %v: tenant a below its 70%% guarantee", got)
	}
	if got["b"] < 1 {
		t.Errorf("caps = %v: tenant b below its 10%% guarantee", got)
	}
	if got["a"]+got["b"] != 10 {
		t.Errorf("caps = %v: sum != total", got)
	}
}

func TestCapacityQueueElasticity(t *testing.T) {
	// a is guaranteed 80% but only wants 2; the idle guarantee is lent
	// to b rather than held back.
	p := mustCapacityQueue(t, Options{Tenants: []Tenant{
		{Name: "a", Guarantee: 0.8},
		{Name: "b", Guarantee: 0.2},
	}})
	got := capsOf(t, p.Allocate(0, 10, snaps(map[string]int{"a": 2, "b": 20}), nil))
	want := map[string]int{"a": 2, "b": 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("caps = %v, want %v", got, want)
	}
}

func TestGameTheoreticEqualSplit(t *testing.T) {
	p := mustGameTheoretic(t, Options{})
	got := capsOf(t, p.Allocate(0, 10, snaps(map[string]int{"a": 20, "b": 20}), nil))
	want := map[string]int{"a": 5, "b": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("caps = %v, want %v", got, want)
	}
}

func TestGameTheoreticWeights(t *testing.T) {
	// KKT: aᵢ = wᵢ/λ − 1. With w = (3, 1) and total 10: 4/λ − 2 = 10,
	// so 1/λ = 3 and the equilibrium is a = (8, 2).
	p := mustGameTheoretic(t, Options{Tenants: []Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}}})
	got := capsOf(t, p.Allocate(0, 10, snaps(map[string]int{"a": 20, "b": 20}), nil))
	want := map[string]int{"a": 8, "b": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("caps = %v, want %v", got, want)
	}
}

func TestGameTheoreticDemandClamp(t *testing.T) {
	// a saturates at its demand of 3; the rest of the pool flows to b.
	p := mustGameTheoretic(t, Options{})
	got := capsOf(t, p.Allocate(0, 10, snaps(map[string]int{"a": 3, "b": 20}), nil))
	want := map[string]int{"a": 3, "b": 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("caps = %v, want %v", got, want)
	}
}

func TestAllocateDeterministic(t *testing.T) {
	// Same inputs, two separate policy instances, repeated calls: the
	// allocation must be bit-identical every time, or fleet workers
	// sharing a policy would diverge.
	tenants := snaps(map[string]int{"a": 13, "b": 7, "c": 21, "d": 4})
	opts := Options{Tenants: []Tenant{{Name: "a", Weight: 2}, {Name: "c", Weight: 0.5}}}
	build := []func() mr.CapacityPolicy{
		func() mr.CapacityPolicy { return mustFairShare(t, opts) },
		func() mr.CapacityPolicy { return mustCapacityQueue(t, opts) },
		func() mr.CapacityPolicy { return mustGameTheoretic(t, opts) },
	}
	for _, mk := range build {
		p1, p2 := mk(), mk()
		ref := p1.Allocate(5, 9, tenants, nil)
		for i := 0; i < 10; i++ {
			if got := p2.Allocate(5, 9, tenants, nil); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: call %d diverged:\n got %v\nwant %v", p1.Name(), i, got, ref)
			}
		}
	}
}

// TestAllocateAppends pins Allocate's append contract on every policy,
// in the slack and the contended regime: the rows land after dst's
// existing elements, which stay untouched, and equal the rows a nil
// dst yields; the slack path allocates nothing when dst has room.
func TestAllocateAppends(t *testing.T) {
	opts := Options{Tenants: []Tenant{{Name: "a", Weight: 2, Guarantee: 0.25}}}
	policies := []mr.CapacityPolicy{
		mustFairShare(t, opts),
		mustCapacityQueue(t, opts),
		mustGameTheoretic(t, opts),
	}
	tenants := snaps(map[string]int{"a": 13, "b": 7, "c": 21})
	prefix := []mr.TenantAllocation{
		{Tenant: "kept-1", TaskCap: 7, Share: 0.5, Reason: "prefix"},
		{Tenant: "kept-2", TaskCap: -1, Reason: "prefix"},
	}
	for _, p := range policies {
		for _, total := range []int{100, 9} { // slack, then contended
			dst := make([]mr.TenantAllocation, len(prefix), len(prefix)+len(tenants))
			copy(dst, prefix)
			got := p.Allocate(0, total, tenants, dst)
			if !reflect.DeepEqual(got[:len(prefix)], prefix) {
				t.Errorf("%s total=%d: dst's existing rows changed: %v", p.Name(), total, got[:len(prefix)])
			}
			if want := p.Allocate(0, total, tenants, nil); !reflect.DeepEqual(got[len(prefix):], want) {
				t.Errorf("%s total=%d: appended %v, want %v", p.Name(), total, got[len(prefix):], want)
			}
		}
		buf := make([]mr.TenantAllocation, 0, len(tenants))
		if n := testing.AllocsPerRun(100, func() { buf = p.Allocate(0, 100, tenants, buf[:0]) }); n != 0 {
			t.Errorf("%s: slack Allocate into a roomy dst made %v allocations, want 0", p.Name(), n)
		}
	}
}

func TestCapsNeverExceedTotal(t *testing.T) {
	cases := []map[string]int{
		{"a": 100},
		{"a": 1, "b": 1, "c": 100},
		{"a": 50, "b": 50, "c": 50, "d": 50, "e": 50},
	}
	policies := []mr.CapacityPolicy{
		mustFairShare(t, Options{}),
		mustCapacityQueue(t, Options{Tenants: []Tenant{{Name: "a", Guarantee: 0.5}}}),
		mustGameTheoretic(t, Options{}),
	}
	for _, demands := range cases {
		for _, p := range policies {
			for _, total := range []int{1, 3, 16, 97} {
				allocs := p.Allocate(0, total, snaps(demands), nil)
				sum := 0
				capped := false
				for _, a := range allocs {
					if a.TaskCap >= 0 {
						capped = true
						sum += a.TaskCap
					}
				}
				if capped && sum > total {
					t.Errorf("%s total=%d demands=%v: caps sum %d > total", p.Name(), total, demands, sum)
				}
			}
		}
	}
}

func mustFairShare(t *testing.T, o Options) *FairShare {
	t.Helper()
	p, err := NewFairShare(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustCapacityQueue(t *testing.T, o Options) *CapacityQueue {
	t.Helper()
	p, err := NewCapacityQueue(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustGameTheoretic(t *testing.T, o Options) *GameTheoretic {
	t.Helper()
	p, err := NewGameTheoretic(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Tenants: []Tenant{{Name: "a", Weight: 2, Guarantee: 0.5}, {Name: "b"}}}).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for name, ts := range map[string][]Tenant{
		"empty name":       {{Weight: 1}},
		"duplicate":        {{Name: "a"}, {Name: "a"}},
		"negative weight":  {{Name: "a", Weight: -1}},
		"NaN weight":       {{Name: "a", Weight: math.NaN()}},
		"infinite weight":  {{Name: "a", Weight: math.Inf(1)}},
		"NaN guarantee":    {{Name: "a", Guarantee: math.NaN()}},
		"guarantee over 1": {{Name: "a", Guarantee: 1.5}},
		"guarantee sum":    {{Name: "a", Guarantee: 0.7}, {Name: "b", Guarantee: 0.6}},
	} {
		if err := (Options{Tenants: ts}).Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
