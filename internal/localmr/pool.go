package localmr

import (
	"sync"
	"sync/atomic"
	"time"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
)

// PoolDecision records one dynamic sizing action: one decision of the
// slot manager's kernel, applied to a worker pool.
type PoolDecision struct {
	Stage   string // "map" or "reduce"
	Workers int    // new worker target
	Reason  string
}

// pool is a goroutine pool whose size can be retuned while it runs.
// Workers claim task indices from a shared counter, so no dispatcher
// sits between them. Shrinking is lazy: a worker only exits after
// finishing its current task (the engine-level analogue of §III-D's
// lazy slot changing), and growth spawns fresh workers immediately. A
// pool with a manager resizes to the manager's map target as tasks
// complete.
type pool struct {
	mgr *manager // nil for a fixed-size pool

	mu       sync.Mutex
	target   int
	alive    int
	peakSeen int          // highest concurrent worker count; read it after run
	started  atomic.Int64 // task indices claimed; may pass n at the end

	n  int
	fn func(int) (inBytes, outBytes int)
	wg sync.WaitGroup
}

// run executes fn(i) for i in [0, n) on the pool and blocks until all
// tasks finish. fn reports the input and output bytes of its task for
// the manager's rate counters.
func (p *pool) run(n int, fn func(int) (inBytes, outBytes int)) {
	if n <= 0 {
		return
	}
	p.n = n
	p.fn = fn
	p.wg.Add(n)

	p.mu.Lock()
	for i := 0; i < min(p.target, n); i++ {
		p.spawnLocked()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// spawnLocked starts one worker. Caller holds p.mu.
func (p *pool) spawnLocked() {
	p.alive++
	if p.alive > p.peakSeen {
		p.peakSeen = p.alive
	}
	go p.worker()
}

// worker claims and runs tasks until none is left or the pool shrinks
// below it.
func (p *pool) worker() {
	for {
		i := int(p.started.Add(1) - 1)
		if i >= p.n {
			return
		}
		if p.afterTask(p.fn(i)) {
			return // lazy shrink: exit only between tasks
		}
	}
}

// afterTask counts a finished task, lets the manager resize the pool,
// and reports whether this worker should retire.
func (p *pool) afterTask(inBytes, outBytes int) bool {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mgr != nil {
		started := min(int(p.started.Load()), p.n)
		p.target = p.mgr.mapTaskDone(started, inBytes, outBytes)
		for p.alive < p.target {
			p.spawnLocked()
		}
	}
	if p.alive > p.target {
		p.alive--
		return true
	}
	return false
}

// The kernel's time constants are in its caller's clock, here wall
// seconds since the map stage started, and tied to one decision window
// (ManagerTasksPerDecision completions). With no stabilise delay a
// resize is judged from the next window, the first measured wholly
// after it. The rate window must outlast any one decision window, or
// the kernel collapses it and reads zero rates: 10 s covers tasks of up
// to about 2 s at 8 tasks per decision, and on a shorter stage the
// rates are the stage's running averages.
const (
	stageStabilizeDelay = 0
	stageRateWindow     = 10
)

// manager feeds the slot manager's kernel (internal/core) a map stage
// as a one-tracker cluster whose map slots are the map pool's workers.
// The reducers run after the barrier, so the stage has no front-job
// reducers (FrontTotalReduces = 0) and is trivially map-heavy
// (f = +Inf): growth stops at a confirmed-thrashing ceiling or at
// MaxWorkers. At the barrier the kernel's tail stretch sizes the
// reduce pool from the measured intermediate bytes per partition.
type manager struct {
	k           *core.Kernel
	bounds      core.Bounds
	cfg         Config
	job         string
	maps, done  int
	start       time.Time
	sinceDec    int
	inMB, outMB float64
	log         []PoolDecision
}

// newManager opens the clock of a map stage of maps tasks.
func newManager(cfg Config, job string, maps int) *manager {
	kcfg := core.DefaultSlotManagerConfig()
	kcfg.StabilizeDelay = stageStabilizeDelay
	kcfg.RateWindow = stageRateWindow
	k, err := core.NewKernel(kcfg)
	if err != nil {
		panic(err) // the paper's defaults with the constants above are valid
	}
	b := core.Bounds{InitMaps: cfg.MapWorkers, InitReduces: cfg.ReduceWorkers,
		MaxMaps: cfg.MaxWorkers, MaxReduces: cfg.MaxWorkers, Workers: 1}
	m := &manager{k: k, bounds: b, cfg: cfg, job: job, maps: maps, start: time.Now()}
	if maps > 0 {
		// The stage opens with nothing done: this step adopts the initial
		// pool sizes and anchors the rate window at t = 0, so the first
		// decision window already yields rates.
		m.step("map", mr.Stats{TotalMaps: maps, PendingMaps: maps})
	}
	return m
}

// mapTaskDone folds one finished map task into the counters, steps the
// kernel every ManagerTasksPerDecision completions, and returns the map
// pool's target. Caller holds the pool's lock.
func (m *manager) mapTaskDone(started, inBytes, outBytes int) int {
	m.done++
	m.inMB += float64(inBytes) / 1e6
	m.outMB += float64(outBytes) / 1e6
	if m.sinceDec++; m.sinceDec >= m.cfg.ManagerTasksPerDecision {
		m.sinceDec = 0
		m.step("map", mr.Stats{TotalMaps: m.maps, DoneMaps: m.done,
			RunningMaps: started - m.done, PendingMaps: m.maps - started})
	}
	return m.k.MapTarget()
}

// reduceWorkers steps the kernel once at the barrier, with every map
// done, and returns the reduce pool's size.
func (m *manager) reduceWorkers() int {
	m.step("reduce", mr.Stats{TotalMaps: m.maps, DoneMaps: m.maps,
		ShufflePerReduceMB: m.outMB / float64(m.cfg.Partitions)})
	return m.k.ReduceTarget()
}

// step completes s with the stage's clock and counters and logs the
// kernel's decision, if any, against stage.
func (m *manager) step(stage string, s mr.Stats) {
	s.Now = time.Since(m.start).Seconds()
	s.FrontJobName = m.job
	s.MapInputProcessedMB, s.MapOutputProducedMB = m.inMB, m.outMB
	st := m.k.Step(s, m.bounds)
	if !st.Changed {
		return
	}
	workers := st.Audit.MapTarget
	if stage == "reduce" {
		workers = st.Audit.ReduceTarget
	}
	m.log = append(m.log, PoolDecision{Stage: stage, Workers: workers, Reason: st.Audit.Reason})
}
