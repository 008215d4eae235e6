// Package resource models the compute resources of one worker node in
// the simulated cluster: CPU cores under processor sharing with a
// multiprogramming (thrashing) penalty, a shared disk, and memory
// accounting with a paging-collapse term.
//
// The model is fluid: at any instant every registered activity has a
// rate (work units per second). Rates change only when the activity set
// changes, so the simulation recomputes them on membership events and
// integrates linearly in between.
//
// Thrashing model. A node running a set of task threads delivers total
// CPU throughput
//
//	Θ = CoreSpeed · min(nCPU, Cores) · contention(P) · paging(mem)
//
// where P = Σ pressure_i over all threads (each job type contributes a
// calibrated per-task pressure capturing its disk/GC/memory-bandwidth
// appetite), contention(P) = 1 / (1 + P^Beta), and paging(mem) decays
// exponentially once resident footprints exceed usable RAM. For a
// single job with per-task pressure π this yields the classic rise-
// then-fall throughput curve of Fig. 1 with its peak near
// n* = (Beta−1)^(−1/Beta) / π.
package resource

import (
	"fmt"
	"math"
)

// Kind classifies what an activity consumes.
type Kind int

const (
	// CPU activities consume an equal share of the node's effective
	// CPU throughput. Remaining work is in core-seconds.
	CPU Kind = iota
	// Disk activities consume an equal share of disk bandwidth.
	// Remaining work is in MB.
	Disk
	// Phantom activities consume no CPU or disk share but still count
	// toward the multiprogramming level, pressure and memory footprint.
	// Shuffle fetcher threads are phantoms: their payload moves through
	// netsim, but their thread weight degrades the node.
	Phantom
)

func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Disk:
		return "disk"
	case Phantom:
		return "phantom"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec describes the hardware of one node. The defaults (see
// DefaultSpec) mirror the paper's workbench machines.
type Spec struct {
	Cores      int     // schedulable cores
	CoreSpeed  float64 // CPU work units (core-seconds) retired per second per core; 1.0 by construction
	RAMMB      float64 // physical memory
	ReservedMB float64 // OS + DataNode + TaskTracker daemons
	DiskMBps   float64 // aggregate disk bandwidth
	Beta       float64 // contention curve exponent (sharpness of the thrashing knee)
	PagingK    float64 // paging collapse severity once footprints exceed RAM
	// ContentionScale multiplies task pressure on this node: a machine
	// with fewer cores or less memory bandwidth feels the same task mix
	// as proportionally more contention, moving its thrashing point
	// earlier. 1.0 is the reference (paper workbench) machine.
	ContentionScale float64
}

// DefaultSpec models one paper workbench node: 4×quad-core 2.53 GHz,
// 32 GB DDR3, a local SATA disk array, GbE NIC (network lives in
// netsim). CoreSpeed is 1.0 so CPU work is measured in core-seconds.
func DefaultSpec() Spec {
	return Spec{
		Cores:           16,
		CoreSpeed:       1.0,
		RAMMB:           32 * 1024,
		ReservedMB:      4 * 1024,
		DiskMBps:        300,
		Beta:            6,
		PagingK:         8,
		ContentionScale: 1,
	}
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	switch {
	case s.Cores <= 0:
		return fmt.Errorf("resource: Cores = %d, must be positive", s.Cores)
	case s.CoreSpeed <= 0:
		return fmt.Errorf("resource: CoreSpeed = %v, must be positive", s.CoreSpeed)
	case s.RAMMB <= 0:
		return fmt.Errorf("resource: RAMMB = %v, must be positive", s.RAMMB)
	case s.ReservedMB < 0 || s.ReservedMB >= s.RAMMB:
		return fmt.Errorf("resource: ReservedMB = %v, must be in [0, RAMMB)", s.ReservedMB)
	case s.DiskMBps <= 0:
		return fmt.Errorf("resource: DiskMBps = %v, must be positive", s.DiskMBps)
	case s.Beta < 1:
		return fmt.Errorf("resource: Beta = %v, must be >= 1", s.Beta)
	case s.PagingK < 0:
		return fmt.Errorf("resource: PagingK = %v, must be >= 0", s.PagingK)
	case s.ContentionScale <= 0:
		return fmt.Errorf("resource: ContentionScale = %v, must be positive", s.ContentionScale)
	}
	return nil
}

// Activity is one resource-consuming piece of work on a node.
// Create it with fields set, then register via Node.Add.
type Activity struct {
	Kind        Kind
	Remaining   float64 // core-seconds (CPU) or MB (Disk); ignored for Phantom
	Weight      float64 // thread weight toward the multiprogramming level (usually 1, fetchers <1)
	Pressure    float64 // contention pressure contribution (job-calibrated)
	FootprintMB float64 // resident memory while active
	Label       string  // diagnostics; optional, see String

	node *Node
	rate float64
	slot int // position in node.acts while registered
}

// String names the activity for diagnostics: its Label when set,
// otherwise its kind and the node it is registered on (callers that
// identify their work elsewhere leave Label empty so registering an
// activity never formats a string).
func (a *Activity) String() string {
	if a.Label != "" {
		return a.Label
	}
	if a.node == nil {
		return a.Kind.String() + " activity"
	}
	return fmt.Sprintf("%v activity on node %d", a.Kind, a.node.id)
}

// Rate returns the activity's current work rate, valid until the next
// membership change on its node. Zero for unregistered activities.
func (a *Activity) Rate() float64 { return a.rate }

// Node tracks the activity set of one worker and computes fluid rates.
type Node struct {
	spec Spec
	id   int

	// acts is the registered set in insertion order; each activity
	// records its own position (slot) so removal is a swap-remove.
	acts []*Activity

	// Cached aggregates, maintained incrementally.
	nCPU, nDisk int
	weight      float64
	pressure    float64
	footprintMB float64

	// Transient service-rate degradation (fault injection): effective
	// CPU throughput and disk bandwidth are multiplied by these factors.
	// 1.0 is the healthy node; a failing disk or a thermally throttled
	// CPU scales its factor down mid-run.
	cpuScale  float64
	diskScale float64

	// onChange, when set, runs after every membership change has
	// recomputed rates. The mr runtime uses it to mark the node's fluid
	// ops dirty instead of re-reading every op in the cluster.
	onChange func()
}

// NewNode builds a node from spec. Invalid specs panic: node specs are
// static configuration, so failing fast at construction is correct.
func NewNode(id int, spec Spec) *Node {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Node{spec: spec, id: id, cpuScale: 1, diskScale: 1}
}

// ID returns the node's cluster-wide identifier.
func (n *Node) ID() int { return n.id }

// SetChangeHook registers fn to run after every Add or Remove, once the
// node's activity rates have been recomputed. Pass nil to disable.
func (n *Node) SetChangeHook(fn func()) { n.onChange = fn }

// Spec returns the node's hardware description.
func (n *Node) Spec() Spec { return n.spec }

// Len reports how many activities are registered.
func (n *Node) Len() int { return len(n.acts) }

// Threads returns the current multiprogramming level (sum of weights).
func (n *Node) Threads() float64 { return n.weight }

// PressureLevel returns the current total contention pressure.
func (n *Node) PressureLevel() float64 { return n.pressure }

// FootprintMB returns the total resident memory of active work.
func (n *Node) FootprintMB() float64 { return n.footprintMB }

// Add registers a and recomputes rates for every activity on the node.
// Adding the same activity twice or an activity owned elsewhere panics.
func (n *Node) Add(a *Activity) {
	if a.node != nil {
		panic(fmt.Sprintf("resource: activity %q already registered", a))
	}
	if a.Kind != Phantom && a.Remaining < 0 {
		panic(fmt.Sprintf("resource: activity %q on node %d has negative remaining work", a, n.id))
	}
	if a.Weight < 0 || a.Pressure < 0 || a.FootprintMB < 0 {
		panic(fmt.Sprintf("resource: activity %q on node %d has negative weight/pressure/footprint", a, n.id))
	}
	a.node = n
	a.slot = len(n.acts)
	n.acts = append(n.acts, a)
	switch a.Kind {
	case CPU:
		n.nCPU++
	case Disk:
		n.nDisk++
	}
	n.weight += a.Weight
	n.pressure += a.Pressure
	n.footprintMB += a.FootprintMB
	n.recompute()
	if n.onChange != nil {
		n.onChange()
	}
}

// Remove unregisters a and recomputes remaining rates. Removing an
// activity that is not on this node is a no-op, so teardown paths can
// remove unconditionally.
func (n *Node) Remove(a *Activity) {
	if a.node != n {
		return
	}
	last := len(n.acts) - 1
	n.acts[a.slot] = n.acts[last]
	n.acts[a.slot].slot = a.slot
	n.acts[last] = nil
	n.acts = n.acts[:last]
	a.node = nil
	a.rate = 0
	switch a.Kind {
	case CPU:
		n.nCPU--
	case Disk:
		n.nDisk--
	}
	n.weight -= a.Weight
	n.pressure -= a.Pressure
	n.footprintMB -= a.FootprintMB
	// Guard against drift from float accumulation on empty nodes.
	if len(n.acts) == 0 {
		n.weight, n.pressure, n.footprintMB = 0, 0, 0
	}
	n.recompute()
	if n.onChange != nil {
		n.onChange()
	}
}

// Efficiency returns the combined contention×paging factor at the
// node's current load, in (0, 1].
func (n *Node) Efficiency() float64 {
	return n.efficiencyAt(n.pressure, n.footprintMB)
}

func (n *Node) efficiencyAt(pressure, footprintMB float64) float64 {
	contention := 1 / (1 + math.Pow(pressure*n.spec.ContentionScale, n.spec.Beta))
	avail := n.spec.RAMMB - n.spec.ReservedMB
	over := (footprintMB - avail) / avail
	paging := 1.0
	if over > 0 {
		paging = math.Exp(-n.spec.PagingK * over)
	}
	return contention * paging
}

// CPUThroughput returns the node's total effective CPU throughput
// (core-seconds per second) at the current load.
func (n *Node) CPUThroughput() float64 {
	if n.nCPU == 0 {
		return 0
	}
	parallel := float64(n.nCPU)
	if parallel > float64(n.spec.Cores) {
		parallel = float64(n.spec.Cores)
	}
	return n.spec.CoreSpeed * parallel * n.Efficiency() * n.cpuScale
}

// SetServiceScale applies a transient service-rate degradation: cpu
// scales the node's effective CPU throughput, disk its disk bandwidth.
// Both must be in (0, 1] — a fully dead node is a tracker failure, not
// a degradation. Rates recompute immediately and the change hook fires
// so bound fluid ops reschedule.
func (n *Node) SetServiceScale(cpu, disk float64) {
	if !(cpu > 0 && cpu <= 1) || !(disk > 0 && disk <= 1) { // negated form rejects NaN too
		panic(fmt.Sprintf("resource: SetServiceScale(%v, %v): scales must be in (0,1]", cpu, disk))
	}
	if cpu == n.cpuScale && disk == n.diskScale {
		return
	}
	n.cpuScale, n.diskScale = cpu, disk
	n.recompute()
	if n.onChange != nil {
		n.onChange()
	}
}

// ServiceScale returns the node's current (cpu, disk) degradation
// factors; (1, 1) when healthy.
func (n *Node) ServiceScale() (cpu, disk float64) { return n.cpuScale, n.diskScale }

// Utilisation returns the fraction of the node's nominal peak CPU
// throughput (Cores × CoreSpeed) currently being delivered, in [0, 1].
// Contention and paging push effective throughput below nominal, so a
// thrashing node reads as *less* utilised — exactly the signal the
// paper's Fig. 1 curves plot.
func (n *Node) Utilisation() float64 {
	return n.CPUThroughput() / (float64(n.spec.Cores) * n.spec.CoreSpeed)
}

// ThroughputCurve predicts the total CPU throughput the node would
// deliver running exactly k identical tasks with the given per-task
// pressure and footprint. This is the analytic curve of Fig. 1 and is
// used by tests and the thrashing-point calibration.
func (n *Node) ThroughputCurve(k int, perTaskPressure, perTaskFootprintMB float64) float64 {
	if k <= 0 {
		return 0
	}
	parallel := float64(k)
	if parallel > float64(n.spec.Cores) {
		parallel = float64(n.spec.Cores)
	}
	eff := n.efficiencyAt(float64(k)*perTaskPressure, float64(k)*perTaskFootprintMB)
	return n.spec.CoreSpeed * parallel * eff
}

// PeakSlots returns the slot count (1..max) maximising ThroughputCurve
// for a task with the given pressure and footprint.
func (n *Node) PeakSlots(perTaskPressure, perTaskFootprintMB float64, max int) int {
	best, bestv := 1, 0.0
	for k := 1; k <= max; k++ {
		v := n.ThroughputCurve(k, perTaskPressure, perTaskFootprintMB)
		if v > bestv {
			best, bestv = k, v
		}
	}
	return best
}

// recompute refreshes every activity's rate from the current load.
func (n *Node) recompute() {
	cpuShare := 0.0
	if n.nCPU > 0 {
		cpuShare = n.CPUThroughput() / float64(n.nCPU)
	}
	diskShare := 0.0
	if n.nDisk > 0 {
		diskShare = n.spec.DiskMBps * n.diskScale / float64(n.nDisk)
	}
	for _, a := range n.acts {
		switch a.Kind {
		case CPU:
			a.rate = cpuShare
		case Disk:
			a.rate = diskShare
		case Phantom:
			a.rate = 0
		}
	}
}

// PressureForPeak returns the per-task pressure that places the
// single-job thrashing point (peak of the throughput curve) at
// peakSlots under exponent beta: π = (beta−1)^(−1/beta) / peakSlots.
// Job profiles are calibrated with this helper.
func PressureForPeak(peakSlots float64, beta float64) float64 {
	if peakSlots <= 0 {
		panic(fmt.Sprintf("resource: peakSlots %v must be positive", peakSlots))
	}
	if beta <= 1 {
		panic(fmt.Sprintf("resource: beta %v must be > 1", beta))
	}
	return math.Pow(beta-1, -1/beta) / peakSlots
}
