package mr

import "strconv"

// opKind says what a fluid op does for its task. It selects the op's
// trace category and name format, and is the constant label its
// completion events are scheduled under.
type opKind uint8

const (
	opLoose   opKind = iota // rate from a closure, no task (tests)
	opMap                   // map function CPU
	opRead                  // remote split read (flow)
	opSort                  // map-side sort and combine CPU
	opSpill                 // map-side spill write
	opShuffle               // shuffle fetch from one source (flow)
	opRSort                 // reduce-side merge CPU
	opRMerge                // reduce-side merge disk
	opReduce                // reduce function CPU
	opROut                  // reduce output write
)

var opKindNames = [...]string{
	opLoose:   "op",
	opMap:     "map",
	opRead:    "read",
	opSort:    "sort",
	opSpill:   "spill",
	opShuffle: "shuffle",
	opRSort:   "rsort",
	opRMerge:  "rmerge",
	opReduce:  "reduce",
	opROut:    "rout",
}

func (k opKind) String() string { return opKindNames[k] }

// opID is the typed identity of an op and of the flow or activity that
// drives it: its kind, the task attempt it serves (which names the job
// and the map id or reduce partition), and the remote node of a
// transfer. Building one costs nothing; it is formatted only when a
// trace span the verbosity admits or a panic message needs the name.
type opID struct {
	kind opKind
	m    *mapTask    // attempt served by map-side kinds
	r    *reduceTask // attempt served by reduce-side kinds
	peer int         // shuffle source node
}

// String formats the identity as "kind job/task", with reduce tasks
// written rN and shuffle transfers naming their source:
// "shuffle job/rN<-src".
func (id opID) String() string {
	switch {
	case id.m != nil:
		return id.kind.String() + " " + id.m.job.Spec.Name + "/" + strconv.Itoa(id.m.id)
	case id.r != nil:
		s := id.kind.String() + " " + id.r.job.Spec.Name + "/r" + strconv.Itoa(id.r.partition)
		if id.kind == opShuffle {
			s += "<-" + strconv.Itoa(id.peer)
		}
		return s
	}
	return id.kind.String()
}
