package core

import (
	"fmt"
	"strings"
)

// Decision reason vocabulary. These strings are the stable contract
// the CLIs, tests and the audit trail key on; change them only with a
// deliberate schema bump (see DESIGN.md trace schema).
const (
	ReasonMapHeavy    = "map-heavy: shuffle ahead of maps"
	ReasonReduceHeavy = "reduce-heavy: shuffle lagging"
	ReasonTailRelease = "tail: releasing map slots"
	ReasonTailBoost   = "tail: small shuffle, boosting reduce slots"
	// ReasonThrashingPrefix starts every thrashing-confirmation reason;
	// the full string carries the rolled-back slot count.
	ReasonThrashingPrefix = "thrashing confirmed at "
)

// ReasonThrashing renders the thrashing-confirmation reason for the
// slot count the manager is rolling back from.
func ReasonThrashing(mapSlots int) string {
	return fmt.Sprintf("%s%d map slots", ReasonThrashingPrefix, mapSlots)
}

// AuditRecord carries the complete inputs and outputs of one kernel
// decision, so any slot move can be replayed and explained
// after the run: the windowed rates the balance factor was computed
// from, the factor itself against its bounds, the thrashing-detector
// state, and the job progress snapshot the manager saw.
type AuditRecord struct {
	At float64

	// Targets before and after the decision.
	PrevMapTarget    int
	PrevReduceTarget int
	MapTarget        int
	ReduceTarget     int

	// The decision itself.
	Factor float64 // balance factor f (NaN for thrash/tail decisions)
	Reason string

	// Windowed rates (MB/s) feeding the balance factor.
	InRate   float64 // map input processing rate Rt proxy
	OutRate  float64 // map output production rate Rt
	ShufRate float64 // shuffle movement rate over the window

	// Instantaneous shuffle signals from the cluster snapshot.
	ShuffleMBps          float64
	PotentialShuffleMBps float64

	// Config bounds the factor was judged against.
	LowerBound float64
	UpperBound float64

	// Thrashing-detector state at decision time.
	Suspects int
	Ceiling  int
	InTail   bool

	// Job progress snapshot.
	DoneMaps            int
	TotalMaps           int
	PendingMaps         int
	RunningMaps         int
	FrontJob            int
	FrontRunningReduces int
	FrontTotalReduces   int
}

// Decision projects the record onto its compact Decision log entry;
// SlotManager.Decisions is this projection of the audit trail, so
// Explain()[i].Decision() == Decisions()[i] by construction.
func (a AuditRecord) Decision() Decision {
	return Decision{At: a.At, MapTarget: a.MapTarget, ReduceTarget: a.ReduceTarget,
		Factor: a.Factor, Reason: a.Reason}
}

// String renders the record as the multi-line block the -explain flag
// prints: the decision line followed by indented input lines.
func (a AuditRecord) String() string {
	var b strings.Builder
	b.WriteString(a.Decision().String())
	fmt.Fprintf(&b, "\n    targets %d/%d -> %d/%d  bounds [%.2f,%.2f]",
		a.PrevMapTarget, a.PrevReduceTarget, a.MapTarget, a.ReduceTarget,
		a.LowerBound, a.UpperBound)
	fmt.Fprintf(&b, "\n    window  in=%.1f out=%.1f shuf=%.1f MB/s  shuffle now=%.1f potential=%.1f MB/s",
		a.InRate, a.OutRate, a.ShufRate, a.ShuffleMBps, a.PotentialShuffleMBps)
	fmt.Fprintf(&b, "\n    state   suspects=%d ceiling=%d tail=%v  maps done=%d/%d pending=%d running=%d  front=j%d reduces=%d/%d",
		a.Suspects, a.Ceiling, a.InTail, a.DoneMaps, a.TotalMaps, a.PendingMaps,
		a.RunningMaps, a.FrontJob, a.FrontRunningReduces, a.FrontTotalReduces)
	b.WriteByte('\n')
	return b.String()
}

// Explain returns a copy of the audit trail: one record per decision,
// index-aligned with Decisions().
func (m *SlotManager) Explain() []AuditRecord {
	out := make([]AuditRecord, len(m.audits))
	copy(out, m.audits)
	return out
}
