package mr

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Multi-tenant capacity management. A CapacityPolicy divides the
// cluster's task capacity among tenants each control period: the job
// tracker then refuses to launch tasks for a tenant whose running count
// has reached its cap. This is orthogonal to the slot Policy — caps
// compose with static slots, YARN containers and the dynamic slot
// manager alike (the policy decides how many tasks a tenant may run,
// the slot machinery decides where they run).

// TenantSnapshot is one tenant's state as presented to a capacity
// policy: identity, queue pressure and the currently applied cap.
type TenantSnapshot struct {
	Tenant string
	// ActiveJobs counts the tenant's unfinished admitted jobs.
	ActiveJobs int
	// RunningTasks counts the tenant's task attempts occupying slots.
	RunningTasks int
	// PendingTasks counts the tenant's launchable-but-unlaunched tasks
	// (pending maps plus pending reduces of admitted jobs).
	PendingTasks int
	// Demand = RunningTasks + PendingTasks: the most the tenant could
	// use right now.
	Demand int
	// Cap is the currently applied task cap, or -1 when uncapped.
	Cap int
}

// TenantAllocation is one tenant's share of a capacity decision.
type TenantAllocation struct {
	Tenant string
	// TaskCap is the maximum number of concurrently running task
	// attempts the tenant may hold cluster-wide. Negative lifts the cap.
	// Enforcement reserves the last unit for maps while maps are pending
	// and lets a single map overshoot a reduce-saturated cap, so a
	// tenant can never deadlock against its own cap (reduces waiting at
	// the shuffle barrier for maps the cap would refuse to launch).
	TaskCap int
	// Share is the fraction of total capacity the policy granted, for
	// explainability (what the integer cap was rounded from).
	Share float64
	// Reason explains the grant ("guaranteed", "water-fill", ...).
	Reason string
}

// CapacityDecision is one applied capacity tick, kept on the cluster's
// decision log so every rebalance stays explainable. Its rows are
// read-only: they live in per-run arenas, and a decision whose rows
// equal the previous decision's shares them.
type CapacityDecision struct {
	At      float64
	Total   int // task capacity divided at this tick
	Tenants []TenantSnapshot
	Allocs  []TenantAllocation
}

// String renders the decision as one line per tenant.
func (d CapacityDecision) String() string {
	s := fmt.Sprintf("t=%.1f total=%d", d.At, d.Total)
	for _, a := range d.Allocs {
		s += fmt.Sprintf(" %s=%d(%.2f,%s)", a.Tenant, a.TaskCap, a.Share, a.Reason)
	}
	return s
}

// CapacityPolicy decides per-tenant task caps each control period.
// Implementations must be pure functions of their inputs and their own
// immutable configuration: Allocate may run concurrently for different
// clusters (the fleet runner shares one policy instance across
// workers), so it must not retain or mutate state between calls, and
// its output order must be deterministic for identical inputs.
type CapacityPolicy interface {
	// Name identifies the policy in logs and experiment tables.
	Name() string
	// Allocate divides total task capacity among the given tenants
	// (sorted by name), appends one allocation per tenant to dst and
	// returns the extended slice. It must leave dst's existing elements
	// and the tenants slice unchanged and retain neither.
	Allocate(now float64, total int, tenants []TenantSnapshot, dst []TenantAllocation) []TenantAllocation
}

// SetCapacityPolicy attaches a capacity policy to the cluster, which
// rebalances every controlPeriod. Unlike SetController it composes with
// every slot Policy. Call before Run.
func (c *Cluster) SetCapacityPolicy(p CapacityPolicy) {
	c.capacity = p
}

// CapacityDecisions returns a copy of the applied capacity decisions in
// tick order.
func (c *Cluster) CapacityDecisions() []CapacityDecision {
	out := make([]CapacityDecision, len(c.capLog))
	copy(out, c.capLog)
	return out
}

// TenantNames returns the tenants seen so far, sorted by name.
func (c *Cluster) TenantNames() []string {
	out := make([]string, len(c.tenantNames))
	copy(out, c.tenantNames)
	return out
}

// TenantRunning reports a tenant's currently running task attempts.
func (c *Cluster) TenantRunning(tenant string) int { return c.tenantRunning[tenant] }

// registerTenant records a job's tenant on first sight, keeping the
// name list sorted so snapshots and telemetry registration order never
// depend on submission interleaving across tenants.
func (c *Cluster) registerTenant(j *Job) {
	name := j.Tenant()
	if c.tenantRunning == nil {
		c.tenantRunning = make(map[string]int)
		c.tenantRunningMaps = make(map[string]int)
		c.tenantCaps = make(map[string]int)
		c.tenantIndex = make(map[string]int)
	}
	if _, ok := c.tenantRunning[name]; ok {
		return
	}
	c.tenantRunning[name] = 0
	c.tenantRunningMaps[name] = 0
	i, _ := slices.BinarySearch(c.tenantNames, name)
	c.tenantNames = slices.Insert(c.tenantNames, i, name)
	for k, n := range c.tenantNames[i:] {
		c.tenantIndex[n] = i + k
	}
	if c.telem != nil {
		// Register-after-Tick backfills earlier samples with NaN, so
		// tenants appearing mid-run slot into the existing table.
		tenant := name
		c.telem.Register("tenant/"+tenant+"/running-tasks", func() float64 {
			return float64(c.tenantRunning[tenant])
		})
		c.telem.Register("tenant/"+tenant+"/task-cap", func() float64 {
			cap, ok := c.tenantCaps[tenant]
			if !ok {
				return -1
			}
			return float64(cap)
		})
	}
}

// tenantAtCap reports whether launching one more task for j's tenant
// would exceed its cap. Uncapped tenants always schedule. This is the
// strict check used for optional work (speculative attempts); required
// map and reduce launches go through tenantMapBlocked and
// tenantReduceBlocked, which carve out the liveness exceptions below.
func (c *Cluster) tenantAtCap(j *Job) bool {
	if c.capacity == nil {
		return false
	}
	cap, ok := c.tenantCaps[j.Tenant()]
	if !ok {
		return false
	}
	return c.tenantRunning[j.Tenant()] >= cap
}

// tenantMapBlocked gates map launches. A cap saturated entirely by
// reduce attempts would deadlock the tenant against itself: the
// reduces sit at the shuffle barrier waiting for maps the cap refuses
// to launch (reachable even with the reduce-side reserve, e.g. when a
// tracker failure re-queues a completed map after the reduces have
// filled the cap). The carve-out lets one map overshoot the cap while
// the tenant has no running maps, which bounds the overshoot at one
// attempt and guarantees map progress.
func (c *Cluster) tenantMapBlocked(j *Job) bool {
	if !c.tenantAtCap(j) {
		return false
	}
	return c.tenantRunningMaps[j.Tenant()] > 0
}

// tenantReduceBlocked gates reduce launches: strict at the cap, and one
// unit short of it while the tenant still has pending maps — a reduce
// taking the last unit would wait at the shuffle barrier for maps that
// the full cap could then never launch.
func (c *Cluster) tenantReduceBlocked(j *Job) bool {
	if c.capacity == nil {
		return false
	}
	cap, ok := c.tenantCaps[j.Tenant()]
	if !ok {
		return false
	}
	running := c.tenantRunning[j.Tenant()]
	if running >= cap {
		return true
	}
	return running == cap-1 && c.tenantHasPendingMaps(j.Tenant())
}

// tenantHasPendingMaps reports whether any admitted job of the tenant
// still has unlaunched map tasks.
func (c *Cluster) tenantHasPendingMaps(tenant string) bool {
	for _, j := range c.jt.queue {
		if j.Tenant() == tenant && len(c.jt.pendingMaps[j]) > 0 {
			return true
		}
	}
	return false
}

// tenantTaskStarted / tenantTaskStopped maintain the per-tenant running
// counters at the same choke points that maintain the trackers' running
// sets, so the two views can never drift. isMap also maintains the
// map-attempt counter the deadlock carve-out in tenantMapBlocked reads.
func (c *Cluster) tenantTaskStarted(j *Job, isMap bool) {
	if c.tenantRunning != nil {
		c.tenantRunning[j.Tenant()]++
		if isMap {
			c.tenantRunningMaps[j.Tenant()]++
		}
	}
}

func (c *Cluster) tenantTaskStopped(j *Job, isMap bool) {
	if c.tenantRunning != nil {
		c.tenantRunning[j.Tenant()]--
		if isMap {
			c.tenantRunningMaps[j.Tenant()]--
		}
	}
}

// totalTaskCapacity is the task-slot capacity a capacity policy divides:
// the configured map+reduce slots of every schedulable tracker. The
// equivalent-slot view is used for YARN too, matching how the paper
// configures container memory ("equivalently able to run 3 map and
// 2 reduce containers").
func (c *Cluster) totalTaskCapacity() int {
	total := 0
	for _, tt := range c.trackers {
		if !tt.schedulable() {
			continue
		}
		if c.cfg.Policy == YARN {
			total += c.cfg.MapSlots + c.cfg.ReduceSlots
		} else {
			total += tt.mapTarget + tt.reduceTarget
		}
	}
	return total
}

// tenantSnapshots builds the policy input into dst's storage, one
// snapshot per known tenant in name order.
func (c *Cluster) tenantSnapshots(dst []TenantSnapshot) []TenantSnapshot {
	snaps := dst[:0]
	for _, name := range c.tenantNames {
		cap, ok := c.tenantCaps[name]
		if !ok {
			cap = -1
		}
		snaps = append(snaps, TenantSnapshot{Tenant: name, RunningTasks: c.tenantRunning[name], Cap: cap})
	}
	for _, j := range c.jt.queue {
		s := &snaps[c.tenantIndex[j.Tenant()]]
		s.ActiveJobs++
		s.PendingTasks += len(c.jt.pendingMaps[j])
		for _, r := range j.reduces {
			if r.state == TaskPending {
				s.PendingTasks++
			}
		}
	}
	for i := range snaps {
		snaps[i].Demand = snaps[i].RunningTasks + snaps[i].PendingTasks
	}
	return snaps
}

// rowArena backs a run's decision-log rows with shared chunks, so a
// tick allocates per chunk rather than per decision. Rows it hands out
// are read-only, and rows equal to the previous ones are handed out
// again rather than copied.
type rowArena[T any] struct {
	chunk []T
	last  []T
}

// arenaChunkMax bounds a rowArena chunk, in rows; chunks start small
// and double up to it, so a short run pays for a few rows only.
const arenaChunkMax = 1024

// keep returns an arena-backed copy of rows, or the previous result
// when its rows equal these under equal; nil for no rows.
func (a *rowArena[T]) keep(rows []T, equal func(a, b T) bool) []T {
	if len(rows) == 0 {
		return nil
	}
	if slices.EqualFunc(a.last, rows, equal) {
		return a.last
	}
	if cap(a.chunk)-len(a.chunk) < len(rows) {
		a.chunk = make([]T, 0, max(len(rows), min(2*cap(a.chunk), arenaChunkMax), 16))
	}
	start := len(a.chunk)
	a.chunk = append(a.chunk, rows...)
	a.last = a.chunk[start:len(a.chunk):len(a.chunk)]
	return a.last
}

// sameSnapshot and sameAllocation compare log rows exactly: floats by
// their bits, so sharing a row never changes the log's content.
func sameSnapshot(a, b TenantSnapshot) bool { return a == b }

func sameAllocation(a, b TenantAllocation) bool {
	return a.Tenant == b.Tenant && a.TaskCap == b.TaskCap &&
		math.Float64bits(a.Share) == math.Float64bits(b.Share) && a.Reason == b.Reason
}

// scheduleCapacity arms the periodic capacity tick; like the sampler
// and controller it is one self-re-arming periodic event, so
// steady-state rebalancing allocates nothing and shutdown's Cancel
// stops the chain.
func (c *Cluster) scheduleCapacity() {
	if c.capFn == nil {
		c.capFn = c.capTick
	}
	c.capEvent = c.clock.SchedulePeriodic(c.clock.Now()+controlPeriod, controlPeriod, "capacity", c.capFn)
}

func (c *Cluster) capTick() {
	c.Mutate(func() { c.applyCapacity() })
	// The periodic event re-arms itself unless shutdown cancelled it.
}

// applyCapacity runs one rebalance: snapshot tenants, ask the policy,
// apply and log the caps, then kick assignment so raised caps take
// effect immediately rather than on the next heartbeat. Snapshot and
// allocation rows are built in scratch reused tick to tick and logged
// through the arenas, so an unchanged decision allocates nothing.
func (c *Cluster) applyCapacity() {
	tenants := c.tenantSnapshots(c.snapScratch)
	c.snapScratch = tenants
	if len(tenants) == 0 {
		return
	}
	now := c.clock.Now()
	total := c.totalTaskCapacity()
	allocs := c.capacity.Allocate(now, total, tenants, c.allocScratch[:0])
	c.allocScratch = allocs
	// Defensive total order: a policy returning tenants in a different
	// order must not perturb the event log. Names are unique per
	// decision, so any correct sort yields this one order.
	slices.SortFunc(allocs, func(a, b TenantAllocation) int { return strings.Compare(a.Tenant, b.Tenant) })
	changed := false
	for _, a := range allocs {
		old, had := c.tenantCaps[a.Tenant]
		if had && old == a.TaskCap || !had && a.TaskCap < 0 {
			continue // unchanged; a negative cap means uncapped
		}
		if a.TaskCap < 0 {
			delete(c.tenantCaps, a.Tenant)
		} else {
			c.tenantCaps[a.Tenant] = a.TaskCap
		}
		changed = true
		c.note(transition{kind: EvTenantCap, tracker: -1, x: float64(a.TaskCap), text: a.Tenant})
	}
	c.capLog = append(c.capLog, CapacityDecision{
		At:      now,
		Total:   total,
		Tenants: c.capSnaps.keep(tenants, sameSnapshot),
		Allocs:  c.capAllocs.keep(allocs, sameAllocation),
	})
	if changed {
		for _, tt := range c.trackers {
			c.jt.assign(tt)
		}
	}
}
