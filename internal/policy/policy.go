// Package policy implements capacity policies for the multi-tenant
// runtime (mr.CapacityPolicy): weighted fair share, capacity queues
// with guarantees and elasticity, and a game-theoretic allocator that
// computes the proportional-fairness equilibrium each control period
// (after Gianniti et al., arXiv:1701.04763).
//
// All three are pure allocators: configuration is fixed at
// construction, Allocate keeps no state between calls, and every
// tie-break is by tenant name — so one policy instance can be shared
// across fleet workers without perturbing the byte-identical event
// logs the repo guarantees.
package policy

import (
	"fmt"
	"math"
	"sort"

	"smapreduce/internal/mr"
)

// DefaultInterval is the rebalance period used when Options.Interval
// is zero — the same 5 s cadence as the paper's slot manager.
const DefaultInterval = 5.0

// Tenant configures one known tenant. Tenants not listed here receive
// Weight 1 and no guarantee when they appear at runtime.
type Tenant struct {
	Name string `json:"name"`
	// Weight scales the tenant's share under FairShare and
	// GameTheoretic. Zero means 1.
	Weight float64 `json:"weight,omitempty"`
	// Guarantee is the fraction of total capacity reserved for the
	// tenant under CapacityQueue (Hadoop's yarn.scheduler.capacity.*
	// queue capacity). Ignored by the other policies.
	Guarantee float64 `json:"guarantee,omitempty"`
}

// Options configures a policy.
type Options struct {
	// Interval is the rebalance period in virtual seconds; 0 means
	// DefaultInterval.
	Interval float64
	// Tenants lists known tenants with weights/guarantees.
	Tenants []Tenant
}

// Validate reports the first problem with the options, or nil: the
// checks every policy constructor applies.
func (o Options) Validate() error {
	_, err := newConfig(o)
	return err
}

type config struct {
	interval   float64
	weights    map[string]float64
	guarantees map[string]float64
}

func newConfig(o Options) (config, error) {
	c := config{
		interval:   o.Interval,
		weights:    make(map[string]float64, len(o.Tenants)),
		guarantees: make(map[string]float64, len(o.Tenants)),
	}
	if c.interval == 0 {
		c.interval = DefaultInterval
	}
	if c.interval <= 0 {
		return config{}, fmt.Errorf("policy: interval %v must be positive", o.Interval)
	}
	sum := 0.0
	for _, t := range o.Tenants {
		if t.Name == "" {
			return config{}, fmt.Errorf("policy: tenant with empty name")
		}
		if _, dup := c.weights[t.Name]; dup {
			return config{}, fmt.Errorf("policy: duplicate tenant %q", t.Name)
		}
		w := t.Weight
		if w == 0 {
			w = 1
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return config{}, fmt.Errorf("policy: tenant %q weight %v must be positive and finite", t.Name, t.Weight)
		}
		if !(t.Guarantee >= 0 && t.Guarantee <= 1) {
			return config{}, fmt.Errorf("policy: tenant %q guarantee %v must be in [0,1]", t.Name, t.Guarantee)
		}
		c.weights[t.Name] = w
		c.guarantees[t.Name] = t.Guarantee
		sum += t.Guarantee
	}
	if sum > 1+1e-9 {
		return config{}, fmt.Errorf("policy: guarantees sum to %v, must be <= 1", sum)
	}
	return c, nil
}

func (c config) weight(name string) float64 {
	if w, ok := c.weights[name]; ok {
		return w
	}
	return 1
}

// uncappedAll appends rows lifting every cap to dst — used when total
// capacity covers total demand, so caps would only throttle arrivals
// between ticks.
func uncappedAll(dst []mr.TenantAllocation, tenants []mr.TenantSnapshot, reason string) []mr.TenantAllocation {
	for _, t := range tenants {
		dst = append(dst, mr.TenantAllocation{Tenant: t.Tenant, TaskCap: -1, Share: 0, Reason: reason})
	}
	return dst
}

// totalDemand sums tenant demands.
func totalDemand(tenants []mr.TenantSnapshot) int {
	d := 0
	for _, t := range tenants {
		d += t.Demand
	}
	return d
}

// waterFill computes the weighted max-min allocation of capacity over
// demand-capped tenants: repeatedly split the remaining capacity in
// proportion to the unfrozen tenants' weights, freezing every tenant
// whose demand is met. Deterministic for identical inputs; the result
// is the continuous allocation in task units, aligned with tenants.
func waterFill(capacity float64, tenants []mr.TenantSnapshot, weight func(string) float64) []float64 {
	alloc := make([]float64, len(tenants))
	frozen := make([]bool, len(tenants))
	remaining := capacity
	for {
		sumW := 0.0
		for i, t := range tenants {
			if !frozen[i] && t.Demand > 0 {
				sumW += weight(t.Tenant)
			}
		}
		if sumW <= 0 || remaining <= 1e-12 {
			return alloc
		}
		progressed := false
		for i, t := range tenants {
			if frozen[i] || t.Demand <= 0 {
				continue
			}
			fair := alloc[i] + remaining*weight(t.Tenant)/sumW
			if fair >= float64(t.Demand)-1e-12 {
				remaining -= float64(t.Demand) - alloc[i]
				alloc[i] = float64(t.Demand)
				frozen[i] = true
				progressed = true
			}
		}
		if !progressed {
			// No tenant saturates: split the remainder by weight and stop.
			for i, t := range tenants {
				if !frozen[i] && t.Demand > 0 {
					alloc[i] += remaining * weight(t.Tenant) / sumW
				}
			}
			return alloc
		}
	}
}

// roundCaps turns a continuous allocation into integer task caps that
// sum to min(total, rounded sum) using largest-remainder apportionment
// with tenant-name tie-breaks, then guarantees every tenant with
// demand and a positive continuous share at least one slot (taking the
// unit from the largest cap) so integer rounding cannot starve a
// tenant its continuous allocation did not.
func roundCaps(total int, tenants []mr.TenantSnapshot, alloc []float64) []int {
	caps := make([]int, len(alloc))
	units := 0
	for i, a := range alloc {
		caps[i] = int(math.Floor(a + 1e-9))
		units += caps[i]
	}
	spare := total - units
	if spare > 0 {
		type frac struct {
			i int
			f float64
		}
		fr := make([]frac, 0, len(alloc))
		for i, a := range alloc {
			if f := a - math.Floor(a+1e-9); f > 1e-9 {
				fr = append(fr, frac{i, f})
			}
		}
		sort.Slice(fr, func(a, b int) bool {
			if fr[a].f != fr[b].f {
				return fr[a].f > fr[b].f
			}
			return tenants[fr[a].i].Tenant < tenants[fr[b].i].Tenant
		})
		for _, f := range fr {
			if spare == 0 {
				break
			}
			caps[f.i]++
			spare--
		}
	}
	// Anti-starvation: a tenant entitled to a sliver must not round to
	// zero while another tenant holds more than one slot.
	for i := range caps {
		if caps[i] > 0 || tenants[i].Demand <= 0 || alloc[i] <= 1e-9 {
			continue
		}
		donor, donorCap := -1, 1
		for k := range caps {
			if caps[k] > donorCap || (caps[k] == donorCap && donor >= 0 && tenants[k].Tenant < tenants[donor].Tenant) {
				donor, donorCap = k, caps[k]
			}
		}
		if donor >= 0 && caps[donor] > 1 {
			caps[donor]--
			caps[i]++
		}
	}
	return caps
}

// allocations appends the result rows for integer caps to dst.
func allocations(dst []mr.TenantAllocation, total int, tenants []mr.TenantSnapshot, caps []int, reason string) []mr.TenantAllocation {
	for i, t := range tenants {
		share := 0.0
		if total > 0 {
			share = float64(caps[i]) / float64(total)
		}
		dst = append(dst, mr.TenantAllocation{Tenant: t.Tenant, TaskCap: caps[i], Share: share, Reason: reason})
	}
	return dst
}

// FairShare divides capacity by weighted max-min fairness: every
// tenant receives capacity in proportion to its weight, demand-capped,
// with unused shares redistributed (water-filling). When capacity
// covers total demand all caps are lifted.
type FairShare struct{ cfg config }

// NewFairShare builds a weighted fair-share policy.
func NewFairShare(o Options) (*FairShare, error) {
	cfg, err := newConfig(o)
	if err != nil {
		return nil, err
	}
	return &FairShare{cfg: cfg}, nil
}

// Name implements mr.CapacityPolicy.
func (p *FairShare) Name() string { return "fair-share" }

// Interval implements mr.CapacityPolicy.
func (p *FairShare) Interval() float64 { return p.cfg.interval }

// Allocate implements mr.CapacityPolicy.
func (p *FairShare) Allocate(now float64, total int, tenants []mr.TenantSnapshot, dst []mr.TenantAllocation) []mr.TenantAllocation {
	if totalDemand(tenants) <= total {
		return uncappedAll(dst, tenants, "slack")
	}
	alloc := waterFill(float64(total), tenants, p.cfg.weight)
	caps := roundCaps(total, tenants, alloc)
	return allocations(dst, total, tenants, caps, "water-fill")
}

// CapacityQueue mirrors Hadoop's Capacity Scheduler: each configured
// tenant owns a guaranteed fraction of the cluster, and capacity
// beyond the guarantees (or left idle by tenants under their
// guarantee) is lent out by weighted max-min over the tenants with
// unmet demand — guarantees with elasticity.
type CapacityQueue struct{ cfg config }

// NewCapacityQueue builds a capacity-queue policy.
func NewCapacityQueue(o Options) (*CapacityQueue, error) {
	cfg, err := newConfig(o)
	if err != nil {
		return nil, err
	}
	return &CapacityQueue{cfg: cfg}, nil
}

// Name implements mr.CapacityPolicy.
func (p *CapacityQueue) Name() string { return "capacity-queue" }

// Interval implements mr.CapacityPolicy.
func (p *CapacityQueue) Interval() float64 { return p.cfg.interval }

// Allocate implements mr.CapacityPolicy.
func (p *CapacityQueue) Allocate(now float64, total int, tenants []mr.TenantSnapshot, dst []mr.TenantAllocation) []mr.TenantAllocation {
	if totalDemand(tenants) <= total {
		return uncappedAll(dst, tenants, "slack")
	}
	// Phase 1: serve each tenant's guarantee, demand-capped.
	alloc := make([]float64, len(tenants))
	used := 0.0
	for i, t := range tenants {
		g := p.cfg.guarantees[t.Tenant] * float64(total)
		if g > float64(t.Demand) {
			g = float64(t.Demand)
		}
		alloc[i] = g
		used += g
	}
	// Phase 2: lend the leftover to unmet demand by weighted max-min.
	leftover := float64(total) - used
	if leftover > 0 {
		residual := make([]mr.TenantSnapshot, len(tenants))
		for i, t := range tenants {
			residual[i] = t
			residual[i].Demand = t.Demand - int(math.Floor(alloc[i]+1e-9))
			if residual[i].Demand < 0 {
				residual[i].Demand = 0
			}
		}
		extra := waterFill(leftover, residual, p.cfg.weight)
		for i := range alloc {
			alloc[i] += extra[i]
		}
	}
	caps := roundCaps(total, tenants, alloc)
	return allocations(dst, total, tenants, caps, "guaranteed+elastic")
}

// GameTheoretic computes the proportional-fairness equilibrium each
// control period: the allocation maximising Σᵢ wᵢ·log(1+aᵢ) subject to
// Σᵢ aᵢ ≤ total and 0 ≤ aᵢ ≤ demandᵢ. This is the Nash bargaining
// solution of the slot-division game (no tenant can gain without a
// larger weighted loss elsewhere), the runtime analogue of the
// game-theoretic capacity allocator of Gianniti et al.
// (arXiv:1701.04763). The KKT conditions give aᵢ = clamp(wᵢ/λ − 1, 0,
// dᵢ) for a shadow price λ found by deterministic bisection.
type GameTheoretic struct{ cfg config }

// NewGameTheoretic builds a game-theoretic proportional-fairness policy.
func NewGameTheoretic(o Options) (*GameTheoretic, error) {
	cfg, err := newConfig(o)
	if err != nil {
		return nil, err
	}
	return &GameTheoretic{cfg: cfg}, nil
}

// Name implements mr.CapacityPolicy.
func (p *GameTheoretic) Name() string { return "game-theoretic" }

// Interval implements mr.CapacityPolicy.
func (p *GameTheoretic) Interval() float64 { return p.cfg.interval }

// Allocate implements mr.CapacityPolicy.
func (p *GameTheoretic) Allocate(now float64, total int, tenants []mr.TenantSnapshot, dst []mr.TenantAllocation) []mr.TenantAllocation {
	if totalDemand(tenants) <= total {
		return uncappedAll(dst, tenants, "slack")
	}
	// a(λ) = Σ clamp(wᵢ/λ − 1, 0, dᵢ) is non-increasing in λ. Bisect λ
	// between ~0 (everyone at demand; infeasible here since demand >
	// total) and max wᵢ (everyone at 0).
	alloc := make([]float64, len(tenants))
	fill := func(lambda float64) float64 {
		sum := 0.0
		for i, t := range tenants {
			a := p.cfg.weight(t.Tenant)/lambda - 1
			if a < 0 {
				a = 0
			}
			if a > float64(t.Demand) {
				a = float64(t.Demand)
			}
			alloc[i] = a
			sum += a
		}
		return sum
	}
	lo, hi := 1e-12, 0.0
	for _, t := range tenants {
		if w := p.cfg.weight(t.Tenant); w > hi {
			hi = w
		}
	}
	if hi <= 0 {
		hi = 1
	}
	for iter := 0; iter < 64; iter++ {
		mid := (lo + hi) / 2
		if fill(mid) > float64(total) {
			lo = mid
		} else {
			hi = mid
		}
	}
	fill(hi) // final allocation at the feasible shadow price
	caps := roundCaps(total, tenants, alloc)
	return allocations(dst, total, tenants, caps, "nash")
}

var (
	_ mr.CapacityPolicy = (*FairShare)(nil)
	_ mr.CapacityPolicy = (*CapacityQueue)(nil)
	_ mr.CapacityPolicy = (*GameTheoretic)(nil)
)
