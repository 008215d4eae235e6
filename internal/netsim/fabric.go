// Package netsim models the cluster network as a fluid-flow fabric.
//
// Every node has a NIC with an egress and an ingress capacity; the
// switch core is assumed non-blocking (the paper's 16-port GbE switch).
// Active flows receive the max-min fair allocation computed by
// progressive water-filling over the per-NIC link constraints.
//
// TCP incast: when many senders converge on one receiver, synchronised
// losses and retransmission timeouts collapse goodput. The paper tunes
// RTOmin from 200 ms to 1 ms to tame this; we model the residual effect
// by shrinking a receiver's effective ingress capacity once its
// concurrent flow count exceeds IncastThreshold. IncastSeverity ≈ 0
// corresponds to the tuned cluster, larger values to an untuned one.
//
// Rate resolution is incremental and batched. Add and Remove record the
// links they perturb in a dirty set and resolve nothing: the caller
// resolves once per batch of changes with ResolveDirty, and rates are
// stale in between. Per-link flow lists (maintained on every
// membership change) let ResolveDirty walk only the connected
// components reachable from dirty links: water-filling re-runs on those
// components and every other flow keeps its cached rate. This is exact,
// not approximate — max-min water-filling decomposes over link-disjoint
// components, so a component whose flow set and link capacities are
// unchanged resolves to the same rates. The walk costs O(size of the
// perturbed components), independent of total fabric population.
// Recompute still performs a full resolve, and SetFullResolve arms a
// verification mode that runs both paths and panics on divergence.
package netsim

import (
	"fmt"
	"math"
	"slices"
)

// Config describes the fabric.
type Config struct {
	Nodes           int
	EgressMBps      float64 // per-node NIC send capacity
	IngressMBps     float64 // per-node NIC receive capacity
	IncastThreshold int     // concurrent flows per receiver before goodput degrades
	IncastSeverity  float64 // per-extra-flow degradation factor (0 disables)

	// Rack oversubscription. When RackUplinkMBps > 0, nodes are grouped
	// into racks of NodesPerRack and every inter-rack flow additionally
	// crosses the source rack's uplink and the destination rack's
	// downlink, each capped at RackUplinkMBps. Zero models the paper's
	// single non-blocking switch.
	NodesPerRack   int
	RackUplinkMBps float64
}

// DefaultConfig mirrors the paper's GbE workbench with RTOmin tuned to
// 1 ms: ≈117 MB/s TCP goodput on a 1 GbE NIC, mild residual incast.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		EgressMBps:      117,
		IngressMBps:     117,
		IncastThreshold: 24,
		IncastSeverity:  0.01,
	}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("netsim: Nodes = %d, must be positive", c.Nodes)
	case c.EgressMBps <= 0:
		return fmt.Errorf("netsim: EgressMBps = %v, must be positive", c.EgressMBps)
	case c.IngressMBps <= 0:
		return fmt.Errorf("netsim: IngressMBps = %v, must be positive", c.IngressMBps)
	case c.IncastThreshold < 0:
		return fmt.Errorf("netsim: IncastThreshold = %d, must be >= 0", c.IncastThreshold)
	case c.IncastSeverity < 0:
		return fmt.Errorf("netsim: IncastSeverity = %v, must be >= 0", c.IncastSeverity)
	case c.RackUplinkMBps < 0:
		return fmt.Errorf("netsim: RackUplinkMBps = %v, must be >= 0", c.RackUplinkMBps)
	case c.RackUplinkMBps > 0 && c.NodesPerRack <= 0:
		return fmt.Errorf("netsim: RackUplinkMBps set but NodesPerRack = %d", c.NodesPerRack)
	}
	return nil
}

// racks returns the rack count, or 0 when rack modelling is off.
func (c Config) racks() int {
	if c.RackUplinkMBps <= 0 {
		return 0
	}
	return (c.Nodes + c.NodesPerRack - 1) / c.NodesPerRack
}

// rackOf returns a node's rack index (only meaningful when racks are on).
func (c Config) rackOf(node int) int { return node / c.NodesPerRack }

// Flow is one fluid transfer between two nodes. RemainingMB may be
// topped up while the flow is active (a shuffle fetch gains bytes every
// time another map output commits).
type Flow struct {
	Src, Dst    int
	RemainingMB float64
	// CapMBps, when positive, bounds the flow's rate regardless of NIC
	// headroom. Shuffle fetches use it to model the slow per-copier
	// HTTP transfers of Hadoop's shuffle (disk seeks at the server,
	// segment-at-a-time requests). Zero means uncapped.
	CapMBps float64
	Label   string

	// Userdata is an opaque slot for the embedding simulation (the mr
	// runtime stores the fluid op driven by this flow here, so the rate
	// listener needs no side lookup table). The fabric never reads it.
	Userdata any

	fabric *Fabric
	rate   float64

	// Fabric bookkeeping, valid while registered. idx is the flow's
	// position in Fabric.flows (registration order — the water-filling
	// tie-break order). links holds the nlinks link indices the flow
	// crosses (egress, ingress, and a rack uplink/downlink pair when it
	// crosses racks; loopbacks cross none) and slots the flow's
	// positions in those links' flow lists. visit marks BFS traversal.
	idx    int
	nlinks int8
	links  [4]int32
	slots  [4]int32
	visit  uint32

	// pooled marks a flow sitting on its fabric's free list. It guards
	// against double-release and use-after-release: Add and ReleaseFlow
	// panic on a pooled flow.
	pooled bool
}

// String names the flow for diagnostics: its Label when set, otherwise
// its endpoints (callers that identify their flows elsewhere leave
// Label empty so starting a flow never formats a string).
func (f *Flow) String() string {
	if f.Label != "" {
		return f.Label
	}
	return fmt.Sprintf("flow %d->%d", f.Src, f.Dst)
}

// Rate returns the flow's current allocation in MB/s, valid until the
// next membership change.
func (f *Flow) Rate() float64 { return f.rate }

// Fabric owns the set of active flows and allocates rates.
//
// Flows are kept in a slice in registration order so the water-filling
// tie-breaks are deterministic run-to-run (map iteration order is not).
// Links are indexed 0..n-1 for node egress, n..2n-1 for node ingress,
// then 2n..2n+R-1 for rack uplinks and 2n+R..2n+2R-1 for rack
// downlinks.
type Fabric struct {
	cfg   Config
	flows []*Flow

	inCount []int // active flows per receiver

	// onRateChange, when set, is invoked for every flow whose allocated
	// rate actually changed value during a resolve. The mr runtime uses
	// it to mark only the affected fluid ops dirty.
	onRateChange func(*Flow)

	// onFlowAdd/onFlowRemove, when set, observe flow registration and
	// removal — the tracing layer's hook for flow lifecycle spans.
	// onFlowAdd fires after the flow is fully registered; onFlowRemove
	// fires on real removals only (not the foreign-flow no-op), before
	// the flow's state is torn down.
	onFlowAdd    func(*Flow)
	onFlowRemove func(*Flow)

	// fullResolve arms the verification mode: every incremental resolve
	// is followed by a from-scratch full resolve and the two rate
	// vectors are compared (panic on divergence > fullResolveTol).
	fullResolve bool

	// Per-link flow lists, maintained by Add/Remove, so component
	// discovery can walk outward from a dirty link without touching the
	// rest of the flow population.
	linkFlows [][]*Flow

	// Dirty-link set, filled by Add/Remove and drained by resolve.
	dirtyMark  []bool
	dirtyLinks []int32

	// linkScale multiplies each link's capacity — the fault-injection
	// hook for degraded or severed links. 1.0 everywhere on a healthy
	// fabric; 0 severs the link (its flows drop to rate zero until the
	// scale is restored and the dirty-set resolve reruns).
	linkScale []float64

	// linkSlack is each link's remaining capacity after the last
	// water-fill touching it, kept current across the O(1) fast paths
	// (which move flows at exactly their caps, so the updates cancel
	// exactly). It gates those fast paths: a link with slack is binding
	// for no flow, so cap-bottlenecked churn on it cannot perturb
	// anyone else's rate.
	linkSlack []float64

	// BFS state for component discovery. linkVisit is versioned by
	// visitSeq (bumped once per resolve) so links are walked at most
	// once per resolve; flow visit marks are versioned by compSeq
	// (bumped once per component) so a component's flows can be
	// re-identified by stamp after the walk.
	linkVisit []uint32
	visitSeq  uint32
	compSeq   uint32
	bfsQ      []int32
	comp      []*Flow

	// Water-filling scratch: lazily stamped per-link capacity and
	// unfixed-count buffers plus the active-link list of the component
	// being filled.
	capBuf     []float64
	cntBuf     []int
	linkStamp  []uint32
	stampCur   uint32
	scopeLinks []int32
	rateSnap   []float64

	// flowPool is the free list behind AcquireFlow/ReleaseFlow. Flows
	// are reset on release, so steady-state churn (the dominant
	// allocation source in long runs) recycles instead of allocating.
	flowPool []*Flow
}

// NewFabric builds a fabric. Invalid configs panic (static configuration).
func NewFabric(cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	links := 2*cfg.Nodes + 2*cfg.racks()
	fb := &Fabric{
		cfg:       cfg,
		inCount:   make([]int, cfg.Nodes),
		linkFlows: make([][]*Flow, links),
		dirtyMark: make([]bool, links),
		linkVisit: make([]uint32, links),
		linkScale: make([]float64, links),
		linkSlack: make([]float64, links),
		capBuf:    make([]float64, links),
		cntBuf:    make([]int, links),
		linkStamp: make([]uint32, links),
	}
	for l := range fb.linkSlack {
		fb.linkScale[l] = 1
		fb.linkSlack[l] = fb.linkCapacity(l)
	}
	return fb
}

// Reset returns the fabric to the freshly constructed state for the
// given config (which may change the geometry), retaining every backing
// allocation that fits — per-link slices, flow lists, BFS and
// water-filling scratch, and the flow free list — so a pooled worker
// can drive consecutive simulations without re-growing them. Listeners
// are dropped (they close over the previous owner) and the
// verification mode disarmed. All registered flows are discarded
// without notification: the caller owns their lifecycle and must be
// done with them. Invalid configs panic, as in NewFabric.
//
// A reset fabric is observationally identical to NewFabric(cfg): every
// counter and stamp restarts, so a simulation driven on it computes
// bit-identical rates to one driven on a fresh fabric.
func (fb *Fabric) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	links := 2*cfg.Nodes + 2*cfg.racks()
	fb.cfg = cfg
	clear(fb.flows)
	fb.flows = fb.flows[:0]
	fb.inCount = resize(fb.inCount, cfg.Nodes)
	fb.onRateChange, fb.onFlowAdd, fb.onFlowRemove = nil, nil, nil
	fb.fullResolve = false
	// Empty the inner flow lists before resizing the outer slice, so
	// lists hidden by a shrink are already empty if a later Reset grows
	// the geometry back.
	for i := range fb.linkFlows {
		clear(fb.linkFlows[i])
		fb.linkFlows[i] = fb.linkFlows[i][:0]
	}
	if cap(fb.linkFlows) < links {
		grown := make([][]*Flow, links)
		copy(grown, fb.linkFlows)
		fb.linkFlows = grown
	} else {
		fb.linkFlows = fb.linkFlows[:links]
	}
	fb.dirtyMark = resize(fb.dirtyMark, links)
	fb.dirtyLinks = fb.dirtyLinks[:0]
	fb.linkScale = resize(fb.linkScale, links)
	fb.linkSlack = resize(fb.linkSlack, links)
	fb.linkVisit = resize(fb.linkVisit, links)
	fb.visitSeq, fb.compSeq, fb.stampCur = 0, 0, 0
	fb.bfsQ = fb.bfsQ[:0]
	clear(fb.comp)
	fb.comp = fb.comp[:0]
	fb.capBuf = resize(fb.capBuf, links)
	fb.cntBuf = resize(fb.cntBuf, links)
	fb.linkStamp = resize(fb.linkStamp, links)
	fb.scopeLinks = fb.scopeLinks[:0]
	fb.rateSnap = fb.rateSnap[:0]
	for l := range fb.linkSlack {
		fb.linkScale[l] = 1
		fb.linkSlack[l] = fb.linkCapacity(l)
	}
}

// resize returns s with length n and all elements zeroed, reusing the
// backing array when it is large enough.
func resize[T bool | int | int32 | uint32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetRateListener registers fn to be called for every flow whose rate
// changes value during a resolve. Pass nil to disable.
func (fb *Fabric) SetRateListener(fn func(*Flow)) { fb.onRateChange = fn }

// SetFlowObserver registers lifecycle callbacks: onAdd after a flow is
// registered, onRemove when a registered flow is removed. Either may be
// nil.
func (fb *Fabric) SetFlowObserver(onAdd, onRemove func(*Flow)) {
	fb.onFlowAdd, fb.onFlowRemove = onAdd, onRemove
}

// fullResolveTol is the maximum per-flow rate divergence (MB/s) the
// verification mode tolerates between the incremental and the full
// resolve. The two paths perform identical arithmetic per component, so
// any real staleness bug exceeds this immediately; sub-ULP noise from
// flow-order changes after swap-removes stays far below it.
const fullResolveTol = 1e-9

// SetFullResolve arms (or disarms) the verification mode: every
// ResolveDirty additionally runs a from-scratch resolve and panics if
// any flow's rate diverges by more than fullResolveTol.
func (fb *Fabric) SetFullResolve(on bool) { fb.fullResolve = on }

// FullResolve reports whether the verification mode is armed.
func (fb *Fabric) FullResolve() bool { return fb.fullResolve }

// Config returns the fabric configuration.
func (fb *Fabric) Config() Config { return fb.cfg }

// Len reports the number of active flows.
func (fb *Fabric) Len() int { return len(fb.flows) }

// DirtyLinks reports how many links are currently marked dirty —
// pending incremental work. Diagnostics and tests only.
func (fb *Fabric) DirtyLinks() int { return len(fb.dirtyLinks) }

// markLinkDirty records one perturbed link for the next resolve.
func (fb *Fabric) markLinkDirty(l int32) {
	if !fb.dirtyMark[l] {
		fb.dirtyMark[l] = true
		fb.dirtyLinks = append(fb.dirtyLinks, l)
	}
}

// setFlowLinks computes the link set a non-loopback flow crosses.
func (fb *Fabric) setFlowLinks(f *Flow) {
	n := fb.cfg.Nodes
	f.links[0] = int32(f.Src)
	f.links[1] = int32(n + f.Dst)
	f.nlinks = 2
	if racks := fb.cfg.racks(); racks > 0 {
		if rs, rd := fb.cfg.rackOf(f.Src), fb.cfg.rackOf(f.Dst); rs != rd {
			f.links[2] = int32(2*n + rs)
			f.links[3] = int32(2*n + racks + rd)
			f.nlinks = 4
		}
	}
}

// attach inserts f into the flow list of every link it crosses.
func (fb *Fabric) attach(f *Flow) {
	for i := 0; i < int(f.nlinks); i++ {
		l := f.links[i]
		f.slots[i] = int32(len(fb.linkFlows[l]))
		fb.linkFlows[l] = append(fb.linkFlows[l], f)
	}
}

// detach removes f from its links' flow lists (swap-remove, fixing the
// moved flow's slot).
func (fb *Fabric) detach(f *Flow) {
	for i := 0; i < int(f.nlinks); i++ {
		l := f.links[i]
		list := fb.linkFlows[l]
		s := f.slots[i]
		last := len(list) - 1
		moved := list[last]
		list[s] = moved
		for j := 0; j < int(moved.nlinks); j++ {
			if moved.links[j] == l {
				moved.slots[j] = s
				break
			}
		}
		list[last] = nil
		fb.linkFlows[l] = list[:last]
	}
}

// markFlowLinksDirty queues every link of f for the next resolve.
func (fb *Fabric) markFlowLinksDirty(f *Flow) {
	for i := 0; i < int(f.nlinks); i++ {
		fb.markLinkDirty(f.links[i])
	}
}

// slackMargin is the per-link slack (MB/s) the O(1) churn fast paths
// require beyond the moved flow's own cap. It keeps the saturation
// test far above floating-point noise: near-saturated links simply
// take the component re-fill path instead.
const slackMargin = 1e-3

// fastAdd handles the dominant churn event in O(1): a new flow that is
// bottlenecked by its own cap on links that all keep slack beyond it.
// Such a flow changes nobody else's allocation — every other flow's
// bottleneck link is saturated, hence disjoint from these links, so
// the old rates plus the new flow at its cap satisfy the max-min
// conditions, and the max-min allocation is unique. The receiver's
// incast state must not shift, since that would change the ingress
// capacity under everyone already converging there. Returns false to
// send the add down the dirty-resolve path.
func (fb *Fabric) fastAdd(f *Flow) bool {
	if f.CapMBps <= 0 {
		return false
	}
	if fb.cfg.IncastSeverity > 0 && fb.inCount[f.Dst] > fb.cfg.IncastThreshold {
		return false // this add shrinks the receiver's ingress capacity
	}
	for i := 0; i < int(f.nlinks); i++ {
		if fb.linkSlack[f.links[i]] < f.CapMBps+slackMargin {
			return false
		}
	}
	for i := 0; i < int(f.nlinks); i++ {
		fb.linkSlack[f.links[i]] -= f.CapMBps
	}
	return true
}

// fastRemove is fastAdd's mirror: a flow sitting exactly at its cap on
// links that all retain slack binds nobody, so removing it releases
// capacity no other flow was waiting for. The slack updates restore
// exactly what fastAdd (or a cap-fix round) deducted, so repeated
// fast churn cannot drift the slack accounting.
func (fb *Fabric) fastRemove(f *Flow) bool {
	if f.CapMBps <= 0 || f.rate != f.CapMBps {
		return false
	}
	if fb.cfg.IncastSeverity > 0 && fb.inCount[f.Dst] > fb.cfg.IncastThreshold {
		return false // this remove grows the receiver's ingress capacity
	}
	for i := 0; i < int(f.nlinks); i++ {
		if fb.linkSlack[f.links[i]] < slackMargin {
			return false
		}
	}
	for i := 0; i < int(f.nlinks); i++ {
		fb.linkSlack[f.links[i]] += f.CapMBps
	}
	return true
}

// Add registers a flow and marks the links it perturbs dirty; the
// caller's next ResolveDirty resolves its component.
// Loopback transfers (Src == Dst) are legal and treated as local copies
// bounded only by the NIC loopback, modelled as unconstrained: they get
// rate +Inf and callers should complete them with their own local-copy
// cost; most callers simply never create them (local shuffle partitions
// are read from disk).
func (fb *Fabric) Add(f *Flow) {
	if f.fabric != nil {
		panic(fmt.Sprintf("netsim: flow %q already registered", f))
	}
	if f.pooled {
		panic(fmt.Sprintf("netsim: flow %q used after release to pool", f))
	}
	if f.Src < 0 || f.Src >= fb.cfg.Nodes || f.Dst < 0 || f.Dst >= fb.cfg.Nodes {
		panic(fmt.Sprintf("netsim: flow %q endpoints (%d,%d) out of range", f, f.Src, f.Dst))
	}
	if f.RemainingMB < 0 {
		panic(fmt.Sprintf("netsim: flow %q negative remaining", f))
	}
	if f.CapMBps < 0 {
		panic(fmt.Sprintf("netsim: flow %q negative cap", f))
	}
	f.fabric = fb
	f.idx = len(fb.flows)
	f.visit = 0
	fb.flows = append(fb.flows, f)
	if f.Src != f.Dst {
		fb.inCount[f.Dst]++
		fb.setFlowLinks(f)
		fb.attach(f)
		if fb.fastAdd(f) {
			fb.setRate(f, f.CapMBps)
		} else {
			fb.markFlowLinksDirty(f)
		}
	} else {
		f.nlinks = 0
		f.rate = math.Inf(1)
	}
	if fb.onFlowAdd != nil {
		fb.onFlowAdd(f)
	}
}

// Remove unregisters a flow. Removing a foreign or already-removed
// flow is a no-op.
func (fb *Fabric) Remove(f *Flow) {
	if f.fabric != fb {
		return
	}
	if fb.onFlowRemove != nil {
		fb.onFlowRemove(f)
	}
	last := len(fb.flows) - 1
	fb.flows[f.idx] = fb.flows[last]
	fb.flows[f.idx].idx = f.idx
	fb.flows[last] = nil
	fb.flows = fb.flows[:last]
	if f.Src != f.Dst {
		fast := fb.fastRemove(f)
		fb.inCount[f.Dst]--
		fb.detach(f)
		if !fast {
			fb.markFlowLinksDirty(f)
		}
	}
	f.fabric = nil
	f.rate = 0
}

// AcquireFlow returns a zeroed Flow, recycled from the fabric's free
// list when one is available. Callers fill the public fields and pass
// it to Add as usual; a flow obtained here must eventually go back via
// ReleaseFlow (or be dropped to the GC — the pool never requires
// return, it only rewards it).
func (fb *Fabric) AcquireFlow() *Flow {
	if n := len(fb.flowPool); n > 0 {
		f := fb.flowPool[n-1]
		fb.flowPool[n-1] = nil
		fb.flowPool = fb.flowPool[:n-1]
		f.pooled = false
		return f
	}
	return &Flow{}
}

// ReleaseFlow resets f and pushes it onto the free list. The flow must
// be unregistered (Remove it first) and must not be released twice;
// both misuses panic because a recycled-while-live flow corrupts rate
// state in ways that surface far from the bug. The reset clears every
// field including Userdata, so no caller state leaks across reuse.
func (fb *Fabric) ReleaseFlow(f *Flow) {
	if f.fabric != nil {
		panic(fmt.Sprintf("netsim: release of still-registered flow %q", f))
	}
	if f.pooled {
		panic(fmt.Sprintf("netsim: double release of flow %q", f))
	}
	*f = Flow{pooled: true}
	fb.flowPool = append(fb.flowPool, f)
}

// ingressCap returns node dst's effective receive capacity under the
// incast model given its current converging flow count.
func (fb *Fabric) ingressCap(dst int) float64 {
	k := fb.inCount[dst]
	cap := fb.cfg.IngressMBps
	if extra := k - fb.cfg.IncastThreshold; extra > 0 && fb.cfg.IncastSeverity > 0 {
		cap /= 1 + fb.cfg.IncastSeverity*float64(extra)
	}
	return cap
}

// linkCapacity returns link l's current capacity. Ingress capacities
// vary with the receiver's live incast state, so they are read at
// water-filling time, never cached.
func (fb *Fabric) linkCapacity(l int) float64 {
	n := fb.cfg.Nodes
	switch {
	case l < n:
		return fb.cfg.EgressMBps * fb.linkScale[l]
	case l < 2*n:
		return fb.ingressCap(l-n) * fb.linkScale[l]
	default:
		return fb.cfg.RackUplinkMBps * fb.linkScale[l]
	}
}

// SetNodeLinkScale degrades (or restores) one node's access links:
// egress and ingress capacities are multiplied by the given factors in
// [0, 1]. A factor of 0 severs the direction — its flows stall at rate
// zero until the scale is restored. The affected links enter the dirty
// set and the resolve folds into the caller's next ResolveDirty,
// exactly like flow churn.
// Loopback traffic (src == dst) never crosses the fabric and is
// unaffected, matching a NIC/ToR fault that leaves the host alive.
func (fb *Fabric) SetNodeLinkScale(node int, egress, ingress float64) {
	if node < 0 || node >= fb.cfg.Nodes {
		panic(fmt.Sprintf("netsim: SetNodeLinkScale(%d): no such node", node))
	}
	if !(egress >= 0 && egress <= 1) || !(ingress >= 0 && ingress <= 1) { // negated form rejects NaN too
		panic(fmt.Sprintf("netsim: SetNodeLinkScale(%d, %v, %v): scales must be in [0,1]", node, egress, ingress))
	}
	eg, in := int32(node), int32(fb.cfg.Nodes+node)
	if fb.linkScale[eg] == egress && fb.linkScale[in] == ingress {
		return
	}
	fb.linkScale[eg] = egress
	fb.linkScale[in] = ingress
	fb.markLinkDirty(eg)
	fb.markLinkDirty(in)
}

// NodeLinkScale returns node's current (egress, ingress) capacity
// factors; (1, 1) when healthy.
func (fb *Fabric) NodeLinkScale(node int) (egress, ingress float64) {
	return fb.linkScale[node], fb.linkScale[fb.cfg.Nodes+node]
}

// Recompute reruns water-filling over every active flow, ignoring the
// dirty set. It is the full-resolve path: callers that mutate
// IncastThreshold or flow endpoints directly (tests) must call it
// explicitly, since those edits bypass the dirty tracking.
func (fb *Fabric) Recompute() {
	// One global water-fill over every link-crossing flow, already in
	// registration order. Component discovery is skipped: disjoint
	// components share no links, so a joint pass performs exactly the
	// per-component arithmetic. Idle links reset their slack to full
	// capacity so stale post-waterfill leftovers (whose flows have
	// since departed) cannot depress the fast-path saturation test;
	// active links get theirs from the water-fill itself.
	for l := range fb.linkFlows {
		if len(fb.linkFlows[l]) == 0 {
			fb.linkSlack[l] = fb.linkCapacity(l)
		}
	}
	comp := fb.comp[:0]
	for _, f := range fb.flows {
		if f.nlinks > 0 {
			comp = append(comp, f)
		}
	}
	fb.waterfill(comp)
	fb.comp = comp[:0]
	fb.clearDirty()
}

// ResolveDirty reruns water-filling only on connected components
// reachable from a dirty link, keeping cached rates everywhere else.
// With an empty dirty set it is a no-op. Under SetFullResolve it
// additionally runs a full resolve and panics if any rate diverges.
func (fb *Fabric) ResolveDirty() {
	if len(fb.dirtyLinks) > 0 {
		fb.visitSeq++
		for _, l := range fb.dirtyLinks {
			fb.resolveComponentAt(l)
		}
		fb.clearDirty()
	}
	if fb.fullResolve {
		fb.verifyAgainstFull()
	}
}

// verifyAgainstFull snapshots the incrementally resolved rates, reruns
// a full resolve, and panics on any divergence beyond fullResolveTol.
func (fb *Fabric) verifyAgainstFull() {
	snap := fb.rateSnap[:0]
	for _, f := range fb.flows {
		snap = append(snap, f.rate)
	}
	fb.rateSnap = snap
	fb.Recompute()
	for i, f := range fb.flows {
		d := f.rate - snap[i]
		if d > fullResolveTol || d < -fullResolveTol {
			panic(fmt.Sprintf("netsim: incremental resolve diverged on flow %q (%d->%d): incremental %v, full %v",
				f, f.Src, f.Dst, snap[i], f.rate))
		}
	}
}

// resolveComponentAt water-fills the connected component containing
// link l, unless it is empty or already visited this resolve (the
// caller advances visitSeq once per resolve). Component discovery is a
// BFS over the per-link flow lists; the collected flows are then
// ordered by registration index so tie-breaks and floating-point
// accumulation are independent of which link seeded the walk — an
// incremental resolve performs arithmetic identical to a full one.
func (fb *Fabric) resolveComponentAt(l int32) {
	seq := fb.visitSeq
	if fb.linkVisit[l] == seq || len(fb.linkFlows[l]) == 0 {
		if len(fb.linkFlows[l]) == 0 {
			// An idle link's slack is its full capacity; reset it here
			// so stale post-waterfill leftovers (whose flows have since
			// departed) cannot depress the fast-path saturation test.
			fb.linkSlack[l] = fb.linkCapacity(int(l))
		}
		fb.linkVisit[l] = seq
		return
	}
	fb.linkVisit[l] = seq
	fb.compSeq++
	cseq := fb.compSeq
	comp := fb.comp[:0]
	q := append(fb.bfsQ[:0], l)
	for len(q) > 0 {
		cur := q[len(q)-1]
		q = q[:len(q)-1]
		for _, f := range fb.linkFlows[cur] {
			if f.visit == cseq {
				continue
			}
			f.visit = cseq
			comp = append(comp, f)
			for i := 0; i < int(f.nlinks); i++ {
				nl := f.links[i]
				if fb.linkVisit[nl] != seq {
					fb.linkVisit[nl] = seq
					q = append(q, nl)
				}
			}
		}
	}
	// Order the component by registration index. A dense component
	// covering most of the fabric (the all-to-all shuffle graph) is
	// rebuilt by a stamp-filtered scan of the registration-ordered flow
	// list — O(fabric) with a tiny constant, cheaper than re-sorting
	// hundreds of pointers every event. Sparse components sort locally
	// so the scan cost stays off the many-small-components fast path.
	if k := len(comp); k > 16 && len(fb.flows) < 8*k {
		comp = comp[:0]
		for _, f := range fb.flows {
			if f.visit == cseq {
				comp = append(comp, f)
				if len(comp) == k {
					break
				}
			}
		}
	} else {
		sortFlowsByIdx(comp)
	}
	fb.waterfill(comp)
	fb.comp = comp[:0]
	fb.bfsQ = q[:0]
}

// sortFlowsByIdx orders a component's flows by registration index.
// Small components (the churn fast path) use insertion sort to skip
// the generic sort's indirection; anything larger goes through the
// stdlib's pdqsort — a dense shuffle graph can be one component with
// hundreds of flows, where quadratic insertion would dominate the
// whole resolve.
func sortFlowsByIdx(comp []*Flow) {
	if len(comp) > 16 {
		slices.SortFunc(comp, func(a, b *Flow) int { return a.idx - b.idx })
		return
	}
	for i := 1; i < len(comp); i++ {
		f := comp[i]
		j := i - 1
		if comp[j].idx <= f.idx {
			continue
		}
		for j >= 0 && comp[j].idx > f.idx {
			comp[j+1] = comp[j]
			j--
		}
		comp[j+1] = f
	}
}

// clearDirty resets the dirty-link set after a resolve.
func (fb *Fabric) clearDirty() {
	for _, l := range fb.dirtyLinks {
		fb.dirtyMark[l] = false
	}
	fb.dirtyLinks = fb.dirtyLinks[:0]
}

// setRate records a flow's allocation, notifying the listener when the
// value actually changed.
func (fb *Fabric) setRate(f *Flow, rate float64) {
	if f.rate != rate {
		f.rate = rate
		if fb.onRateChange != nil {
			fb.onRateChange(f)
		}
	}
}

// waterfill runs progressive max-min water-filling over the flows of
// one connected component. Only the component's own links are touched:
// their remaining capacity and unfixed-flow count live in capBuf/cntBuf
// entries stamped for this call, and every round scans the component's
// active-link list instead of all 2n+2R fabric links.
func (fb *Fabric) waterfill(flows []*Flow) {
	caps := fb.capBuf
	cnts := fb.cntBuf
	fb.stampCur++
	stamp := fb.stampCur
	scope := fb.scopeLinks[:0]
	for _, f := range flows {
		for i := 0; i < int(f.nlinks); i++ {
			l := f.links[i]
			if fb.linkStamp[l] != stamp {
				fb.linkStamp[l] = stamp
				caps[l] = fb.linkCapacity(int(l))
				cnts[l] = 0
				scope = append(scope, l)
			}
			cnts[l]++
		}
	}

	// waterfill owns the flows slice: the round loop compacts it in
	// place as flows get fixed. Callers pass scratch they reuse after.
	unfixed := flows
	for len(unfixed) > 0 {
		// Find the tightest link: min fair share among the component's
		// links with unfixed flows, lowest index breaking ties.
		var best int32 = -1
		bestShare := math.Inf(1)
		for _, l := range scope {
			if cnts[l] == 0 {
				continue
			}
			share := caps[l] / float64(cnts[l])
			if share < bestShare || (share == bestShare && l < best) {
				best, bestShare = l, share
			}
		}
		if best < 0 {
			break
		}
		// Flows whose own cap is below the tightest fair share are
		// bottlenecked by their caps, not by any link: fix ALL of them
		// this round (each deduction only loosens the remaining links)
		// and water-fill the rest with the leftover.
		fixedCapped := false
		next := unfixed[:0]
		for _, f := range unfixed {
			if f.CapMBps > 0 && f.CapMBps < bestShare {
				fb.setRate(f, f.CapMBps)
				fb.deduct(caps, cnts, f, f.CapMBps)
				fixedCapped = true
			} else {
				next = append(next, f)
			}
		}
		if fixedCapped {
			unfixed = next
			continue
		}
		// Fix every unfixed flow crossing the tightest link at the
		// fair share; deduct from all its links.
		next = unfixed[:0]
		for _, f := range unfixed {
			if f.crossesLink(best) {
				fb.setRate(f, bestShare)
				fb.deduct(caps, cnts, f, bestShare)
			} else {
				next = append(next, f)
			}
		}
		// Numerical guard, restricted to the component's links (the
		// only ones a round can touch): capacities must never go
		// (meaningfully) negative.
		for _, l := range scope {
			if caps[l] < 0 {
				if caps[l] < -1e-6 {
					panic(fmt.Sprintf("netsim: link %d capacity went negative: %v", l, caps[l]))
				}
				caps[l] = 0
			}
		}
		unfixed = next
	}
	// Persist each touched link's leftover capacity for the churn fast
	// paths' saturation test.
	for _, l := range scope {
		fb.linkSlack[l] = caps[l]
	}
	fb.scopeLinks = scope[:0]
}

// TopUp adds mb to the flow's remaining volume. The caller is
// responsible for settling elapsed transfer first (the mr runtime does
// this inside its mutation scope). Volume does not enter the rate
// allocation, so TopUp never dirties any link. Negative mb panics.
func (fb *Fabric) TopUp(f *Flow, mb float64) {
	if mb < 0 {
		panic(fmt.Sprintf("netsim: TopUp %q with negative volume %v", f, mb))
	}
	if f.fabric != fb {
		panic(fmt.Sprintf("netsim: TopUp on foreign flow %q", f))
	}
	f.RemainingMB += mb
}

// crossesLink reports whether the flow uses link l.
func (f *Flow) crossesLink(l int32) bool {
	for i := 0; i < int(f.nlinks); i++ {
		if f.links[i] == l {
			return true
		}
	}
	return false
}

// deduct removes a fixed flow's rate and presence from all its links.
func (fb *Fabric) deduct(caps []float64, cnts []int, f *Flow, rate float64) {
	for i := 0; i < int(f.nlinks); i++ {
		l := f.links[i]
		caps[l] -= rate
		cnts[l]--
	}
}

// TotalIngress returns the sum of rates currently converging on dst,
// a diagnostic used by the shuffle-rate statistics.
func (fb *Fabric) TotalIngress(dst int) float64 {
	s := 0.0
	for _, f := range fb.flows {
		if f.Dst == dst && f.Src != f.Dst {
			s += f.rate
		}
	}
	return s
}

// TotalRate returns the sum of all flow rates (MB/s) in the fabric.
func (fb *Fabric) TotalRate() float64 {
	s := 0.0
	for _, f := range fb.flows {
		if f.Src != f.Dst {
			s += f.rate
		}
	}
	return s
}
