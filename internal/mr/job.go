package mr

import (
	"fmt"
	"math"

	"smapreduce/internal/dfs"
	"smapreduce/internal/netsim"
	"smapreduce/internal/puma"
	"smapreduce/internal/resource"
	"smapreduce/internal/trace"
)

// JobSpec describes one MapReduce job submission.
type JobSpec struct {
	Name     string
	Profile  puma.Profile
	InputMB  float64
	Reduces  int
	SubmitAt float64 // virtual submission time

	// Tenant names the queue/organisation this job belongs to. Empty
	// means the shared default tenant. Capacity policies allocate task
	// caps per tenant; jobs of uncapped tenants schedule freely.
	Tenant string

	// SLOSeconds is the job's latency objective: it should finish within
	// this many seconds of submission. 0 means no SLO. The runtime does
	// not act on it — experiments count misses per tenant and policy.
	SLOSeconds float64

	// Priority orders jobs under the Priority scheduler; higher runs
	// first. Ignored by FIFO and Fair.
	Priority int

	// PartitionSkew makes reduce partition r receive a share
	// proportional to 1/(r+1)^PartitionSkew — the classic hot-key
	// pathology. 0 (the default) is the uniform split the paper
	// assumes ("the data are random in distribution", §VII).
	PartitionSkew float64
}

// Validate reports the first problem with the spec, or nil.
func (s JobSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("mr: job has empty name")
	case !(s.InputMB > 0) || math.IsInf(s.InputMB, 0):
		return fmt.Errorf("mr: job %s: InputMB = %v, must be positive and finite", s.Name, s.InputMB)
	case s.Reduces <= 0:
		return fmt.Errorf("mr: job %s: Reduces = %d, must be positive", s.Name, s.Reduces)
	case !(s.SubmitAt >= 0) || math.IsInf(s.SubmitAt, 0):
		return fmt.Errorf("mr: job %s: SubmitAt = %v, must be >= 0 and finite", s.Name, s.SubmitAt)
	case !(s.PartitionSkew >= 0 && s.PartitionSkew <= 4):
		return fmt.Errorf("mr: job %s: PartitionSkew = %v, must be in [0,4]", s.Name, s.PartitionSkew)
	case !(s.SLOSeconds >= 0) || math.IsInf(s.SLOSeconds, 0):
		return fmt.Errorf("mr: job %s: SLOSeconds = %v, must be >= 0 and finite", s.Name, s.SLOSeconds)
	}
	return s.Profile.Validate()
}

// TaskState is the lifecycle of one task attempt.
type TaskState int

const (
	TaskPending TaskState = iota
	TaskRunning
	TaskDone
)

func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// Job is one submitted job and its runtime state.
type Job struct {
	ID   int
	Spec JobSpec

	file    *dfs.File
	maps    []*mapTask
	reduces []*reduceTask

	mapsDone    int
	reducesDone int

	// Milestones (virtual seconds). Negative means "not yet" (zero is
	// a legitimate time for jobs submitted at simulation start).
	Submitted  float64
	Started    float64 // first task launched
	BarrierAt  float64 // last map committed
	FinishedAt float64

	// ShuffledMB accumulates the exact bytes committed for shuffling,
	// known in full at the barrier.
	ShuffledMB float64

	// Speculation counters (maps only; reduce speculation is not
	// implemented, matching common Hadoop practice of disabling it).
	SpeculativeLaunched int
	SpeculativeWins     int

	mapPressure float64   // derived from Profile.MapPeakSlots
	partWeights []float64 // per-partition share of each map output, sums to 1

	span trace.SpanRef // open lifecycle span when tracing
}

// newJob materialises tasks for a spec whose input file already exists.
// workers sizes the per-source shuffle bookkeeping on each reducer.
func newJob(id int, spec JobSpec, file *dfs.File, beta float64, workers int) *Job {
	j := &Job{
		ID:          id,
		Spec:        spec,
		file:        file,
		Submitted:   -1,
		Started:     -1,
		BarrierAt:   -1,
		FinishedAt:  -1,
		mapPressure: resource.PressureForPeak(spec.Profile.MapPeakSlots, beta),
	}
	// Tasks and their per-reducer bookkeeping are carved out of a few
	// job-sized arrays rather than allocated one by one; the full slice
	// expressions cap each window at its own length, so a list that
	// outgrows its room moves out instead of overwriting its neighbour.
	splits := file.Splits()
	nm := len(splits)
	maps := make([]mapTask, nm)
	j.maps = make([]*mapTask, nm)
	for i, split := range splits {
		maps[i] = mapTask{job: j, id: i, split: split, outputHost: -1}
		j.maps[i] = &maps[i]
	}
	j.partWeights = partitionWeights(spec.Reduces, spec.PartitionSkew)
	reduces := make([]reduceTask, spec.Reduces)
	j.reduces = make([]*reduceTask, spec.Reduces)
	srcs := make([]fetchSource, spec.Reduces*workers)
	k := min(sourceListCap, nm)
	lists := make([]*mapTask, len(srcs)*k)
	for i := range srcs {
		srcs[i].maps = lists[i*k : i*k : (i+1)*k]
	}
	got := make([]bool, spec.Reduces*nm)
	for p := range reduces {
		reduces[p] = reduceTask{
			job:       j,
			partition: p,
			srcs:      srcs[p*workers : (p+1)*workers : (p+1)*workers],
			got:       got[p*nm : (p+1)*nm : (p+1)*nm],
		}
		j.reduces[p] = &reduces[p]
	}
	return j
}

// sourceListCap is the room each fetch source's map list starts with:
// enough for the outputs a source typically commits while one fetch
// from it is queued or in flight, so lists rarely grow.
const sourceListCap = 4

// partitionWeights returns the Zipf(s) share vector over n partitions.
func partitionWeights(n int, skew float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -skew)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Tenant returns the job's tenant, normalising the empty spec value to
// the shared "default" tenant that capacity policies see.
func (j *Job) Tenant() string {
	if j.Spec.Tenant == "" {
		return "default"
	}
	return j.Spec.Tenant
}

// SLOMissed reports whether the job finished after its SLO deadline.
// Jobs without an SLO (or unfinished jobs) never count as missed.
func (j *Job) SLOMissed() bool {
	return j.Spec.SLOSeconds > 0 && j.Finished() && j.ExecutionTime() > j.Spec.SLOSeconds
}

// NumMaps returns the job's map task count (one per input split).
func (j *Job) NumMaps() int { return len(j.maps) }

// NumReduces returns the job's reduce task count.
func (j *Job) NumReduces() int { return len(j.reduces) }

// MapsDone returns how many map tasks have committed.
func (j *Job) MapsDone() int { return j.mapsDone }

// ReducesDone returns how many reduce tasks have finished.
func (j *Job) ReducesDone() int { return j.reducesDone }

// Finished reports whether every reduce task has completed.
func (j *Job) Finished() bool { return j.reducesDone == len(j.reduces) }

// BarrierReached reports whether all map tasks have committed.
func (j *Job) BarrierReached() bool { return j.mapsDone == len(j.maps) }

// MapTime returns the paper's "map time": job start to barrier. NaN
// until the barrier is reached.
func (j *Job) MapTime() float64 {
	if !j.BarrierReached() || j.Started < 0 {
		return math.NaN()
	}
	return j.BarrierAt - j.Started
}

// ReduceTime returns the paper's "reduce time": barrier to completion.
// NaN until the job finishes.
func (j *Job) ReduceTime() float64 {
	if !j.Finished() {
		return math.NaN()
	}
	return j.FinishedAt - j.BarrierAt
}

// ExecutionTime returns submission to completion. NaN until finished.
func (j *Job) ExecutionTime() float64 {
	if !j.Finished() {
		return math.NaN()
	}
	return j.FinishedAt - j.Submitted
}

// ThroughputMBps returns input MB per second of execution time.
func (j *Job) ThroughputMBps() float64 {
	et := j.ExecutionTime()
	if math.IsNaN(et) || et <= 0 {
		return math.NaN()
	}
	return j.Spec.InputMB / et
}

// mapProgressPct returns completed map work in [0,100].
func (j *Job) mapProgressPct() float64 {
	if len(j.maps) == 0 {
		return 100
	}
	sum := 0.0
	for _, m := range j.maps {
		sum += m.progressFraction()
	}
	return 100 * sum / float64(len(j.maps))
}

// reduceProgressPct returns completed reduce work in [0,100], weighting
// shuffle, sort and reduce each 1/3 as Hadoop reports it.
func (j *Job) reduceProgressPct() float64 {
	if len(j.reduces) == 0 {
		return 100
	}
	sum := 0.0
	for _, r := range j.reduces {
		sum += r.progressFraction()
	}
	return 100 * sum / float64(len(j.reduces))
}

// expectedShufflePerReduceMB estimates the shuffle volume the busiest
// reducer will receive, used for progress display and the tail-stretch
// guard (which must respect the hottest partition, not the mean).
func (j *Job) expectedShufflePerReduceMB() float64 {
	maxW := 0.0
	for _, w := range j.partWeights {
		if w > maxW {
			maxW = w
		}
	}
	return j.Spec.InputMB * j.Spec.Profile.ShuffleRatio() * maxW
}

// mapTask is one map task attempt.
type mapTask struct {
	job   *Job
	id    int
	split dfs.Split
	state TaskState

	tracker *TaskTracker

	// Costs drawn at launch (jittered).
	preCombineMB float64 // map output before the combiner
	shuffleMB    float64 // bytes that will cross the network
	outputHost   int     // node holding the committed output (-1 before)
	outputLost   bool    // committed output died with a crashed host that later rejoined

	// Phase ops. Phase 0 (map): compute plus an optional remote read;
	// phase 1 (spill): sort CPU plus disk write.
	phase      int
	pendingOps int
	computeOp  *fluidOp
	readOp     *fluidOp
	sortOp     *fluidOp
	spillOp    *fluidOp

	readFlow *netsim.Flow // live remote read, for abort on failure

	runSlot int // position in tracker.runningMaps while running

	// Speculative execution: an original task may have one backup
	// attempt racing it on another node; the first to commit wins and
	// the loser is killed. backupOf points from the clone to the
	// original; backup from the original to its clone.
	backupOf *mapTask
	backup   *mapTask

	started  float64 // launch time of this attempt, for straggler scoring
	finished float64 // commit time of the logical task (-1 until then)

	span trace.SpanRef // open attempt span when tracing
}

// original returns the logical task this attempt belongs to.
func (m *mapTask) original() *mapTask {
	if m.backupOf != nil {
		return m.backupOf
	}
	return m
}

// progressFraction reports this task's completed work in [0,1] with the
// map phase weighted 0.85 and the spill phase 0.15.
func (m *mapTask) progressFraction() float64 {
	switch m.state {
	case TaskPending:
		return 0
	case TaskDone:
		return 1
	}
	const mapWeight, spillWeight = 0.85, 0.15
	if m.phase == 0 {
		f := 1.0
		if m.computeOp != nil {
			f = m.computeOp.fraction()
		}
		if m.readOp != nil && m.readOp.fraction() < f {
			f = m.readOp.fraction()
		}
		return mapWeight * f
	}
	f := 1.0
	if m.sortOp != nil {
		f = m.sortOp.fraction()
	}
	if m.spillOp != nil && m.spillOp.fraction() < f {
		f = m.spillOp.fraction()
	}
	return mapWeight + spillWeight*f
}

// fetchSource is a reducer's shuffle state for one source node. Shares
// from the source queue (pendingMB) only while no flow from it is open:
// a live flow absorbs every later share as a top-up, so queued bytes
// and a live flow never coexist, and maps lists the map outputs
// covered by whichever of the two holds. The list is truncated, not
// dropped, when its bytes land, so steady-state shuffling reuses it.
type fetchSource struct {
	pendingMB float64
	maps      []*mapTask
	flow      *netsim.Flow // live transfer, nil when none
	op        *fluidOp     // the op flow drives
}

// reduceTask is one reduce task attempt.
type reduceTask struct {
	job       *Job
	partition int
	state     TaskState

	tracker *TaskTracker

	// Phase: 0 shuffle, 1 sort, 2 reduce.
	phase      int
	pendingOps int

	// Shuffle bookkeeping: srcs[src] is the fetch state for source
	// node src, sized to the cluster once per job (nflows counts the
	// live flows, kept ≤ fetchers). got marks map outputs fully
	// received, by logical map id (durable at the reducer — fetched
	// segments survive the source tracker's death, so only un-received
	// outputs force map re-execution). Dense slices rather than maps:
	// sources are small integers and these are the hottest structures
	// in the shuffle path.
	srcs      []fetchSource
	nflows    int
	got       []bool
	fetchedMB float64

	// phantom stands for the fetcher threads on the node during the
	// shuffle; the later phases' activities belong to their ops.
	phantom resource.Activity
	sortOp  *fluidOp
	mergeOp *fluidOp
	redOp   *fluidOp
	writeOp *fluidOp

	runSlot int // position in tracker.runningReduces while running

	started  float64 // launch time of the surviving attempt
	finished float64 // completion time (0 until finished)

	span trace.SpanRef // open attempt span when tracing
}

// pendingTotal sums committed bytes not yet transferred.
func (r *reduceTask) pendingTotal() float64 {
	s := 0.0
	for i := range r.srcs {
		s += r.srcs[i].pendingMB
	}
	return s
}

// shuffleSettled reports whether every committed byte has been fetched.
func (r *reduceTask) shuffleSettled() bool {
	return r.nflows == 0 && r.pendingTotal() <= opEpsilon
}

// progressFraction reports completed work in [0,1], one third per phase.
func (r *reduceTask) progressFraction() float64 {
	switch r.state {
	case TaskPending:
		return 0
	case TaskDone:
		return 1
	}
	expected := r.job.expectedShufflePerReduceMB()
	switch r.phase {
	case 0:
		if expected <= 0 {
			return 0
		}
		f := r.fetchedMB / expected
		if f > 1 {
			f = 1
		}
		return f / 3
	case 1:
		f := 1.0
		if r.sortOp != nil {
			f = r.sortOp.fraction()
		}
		if r.mergeOp != nil && r.mergeOp.fraction() < f {
			f = r.mergeOp.fraction()
		}
		return 1.0/3 + f/3
	default:
		f := 1.0
		if r.redOp != nil {
			f = r.redOp.fraction()
		}
		if r.writeOp != nil && r.writeOp.fraction() < f {
			f = r.writeOp.fraction()
		}
		return 2.0/3 + f/3
	}
}
