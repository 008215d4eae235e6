package mr

import (
	"smapreduce/internal/netsim"
	"smapreduce/internal/sim"
)

// SimState bundles the allocation-heavy simulation substrate — the
// event arena, the network fabric (with its flow free list) and the
// fluid-op free list — for reuse across consecutive cluster runs on one
// fleet worker. The first cluster built on a SimState allocates the
// substrate; every later one resets it in place, so steady-state fleet
// execution re-grows neither the event slab nor the per-link fabric
// state, and starts its tasks and fetches on recycled ops.
//
// What deliberately stays out: everything bound to a specific cluster.
// Telemetry probes close over trackers and the DFS layout is seeded per
// run, so each run rebuilds them. Pooled ops are retired and reset, and
// their handlers reach the cluster through the op (fluidOp.c, rebound
// when the op is reused), so they carry nothing across runs.
//
// A SimState may serve one cluster at a time: building a new cluster
// on it resets the substrate under the previous one, so the caller
// must be completely done (including reads of event logs or stats)
// with the prior cluster first. The zero value is ready to use.
type SimState struct {
	clock  *sim.Clock
	fabric *netsim.Fabric
	ops    []*fluidOp // retired ops, see releaseOp
}

// NewSimState returns an empty SimState ready for its first cluster.
func NewSimState() *SimState { return &SimState{} }

// NewClusterReusing is NewCluster on recycled substrate: the state's
// clock, fabric and op pool are reset and adopted instead of freshly
// allocated (a nil st, or any st under Config.Reference, is exactly
// NewCluster). Reset substrate is observationally identical to fresh
// substrate — the reset paths restart every counter and generation —
// so a run on a reused SimState produces bit-identical results to a
// run on a fresh one; the fleet determinism suite pins this.
func NewClusterReusing(cfg Config, st *SimState) (*Cluster, error) {
	return newCluster(cfg, st)
}
