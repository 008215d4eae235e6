package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// ErrSaturated is returned by submit when the queue is full: the
// service answers 429 with Retry-After rather than queueing unbounded.
var ErrSaturated = errors.New("serve: run queue saturated")

// ErrDraining is returned by submit once shutdown has begun.
var ErrDraining = errors.New("serve: server draining, not accepting runs")

// pool executes queued runs on a fixed set of workers, each owning
// recycled simulation substrate (mr.SimState, telemetry collector,
// tracer) in the fleet runner's reuse pattern — steady-state service
// throughput allocates no per-run arenas.
type pool struct {
	queue chan *Run
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool

	// finish runs after a run reaches a terminal state (artifact
	// persistence + ledger append live behind it, supplied by Server).
	finish func(r *Run, arts map[string][]byte) error

	// hold, when non-nil, gates every execution start: each worker
	// receives one token before running. Tests use it to pin workers
	// mid-run and drive the queue into saturation deterministically.
	hold chan struct{}
}

// worker is one executor's recycled substrate.
type worker struct {
	sim       *mr.SimState
	col       *telemetry.Collector
	tracer    *trace.Tracer
	verbosity int
}

func newPool(workers, queueDepth int, finish func(*Run, map[string][]byte) error) *pool {
	if workers <= 0 {
		workers = 2
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &pool{
		queue:  make(chan *Run, queueDepth),
		finish: finish,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.loop()
	}
	return p
}

// submit enqueues a run without blocking: a full queue sheds the run
// with ErrSaturated, a draining pool with ErrDraining.
func (p *pool) submit(r *Run) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrDraining
	}
	select {
	case p.queue <- r:
		return nil
	default:
		return ErrSaturated
	}
}

// drain stops intake and blocks until every queued and running run has
// finished. Idempotent.
func (p *pool) drain() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *pool) loop() {
	defer p.wg.Done()
	w := &worker{
		sim: mr.NewSimState(),
		col: telemetry.NewCollector(0),
	}
	for r := range p.queue {
		p.execute(w, r)
	}
}

// execute runs one scenario on the worker's substrate and drives the
// run to a terminal state — StateDone with artifacts and a ledger
// entry, or StateFailed. Panics in the engine become failures; the
// worker survives because its substrate is rebuilt from Reset on the
// next run anyway.
func (p *pool) execute(w *worker, r *Run) {
	r.setState(StateRunning)
	if p.hold != nil {
		// StateRunning is already visible, so tests can wait for a
		// worker to be pinned here before driving the queue full.
		<-p.hold
	}
	defer func() {
		if v := recover(); v != nil {
			err := fmt.Sprintf("panic: %v\n%s", v, debug.Stack())
			r.fail(err)
			r.hub.terminate("failed", failedEvent{Error: fmt.Sprintf("panic: %v", v)})
		}
	}()

	arts, err := p.runScenario(w, r)
	if err != nil {
		r.fail(err.Error())
		r.hub.terminate("failed", failedEvent{Error: err.Error()})
		return
	}
	if err := p.finish(r, arts); err != nil {
		r.fail(err.Error())
		r.hub.terminate("failed", failedEvent{Error: err.Error()})
		return
	}
	entry := r.LedgerEntry()
	done := doneEvent{Artifacts: ArtifactNames()}
	if entry != nil {
		done.LedgerIndex = entry.Index
		done.MerkleRoot = entry.Root
		done.EntryHash = entry.Hash
	}
	r.hub.terminate("done", done)
}

// runScenario executes the simulation and assembles the artifact set.
func (p *pool) runScenario(w *worker, r *Run) (map[string][]byte, error) {
	plan, err := r.Scenario.Plan()
	if err != nil {
		return nil, err
	}

	// Recycle the tracer across runs; only a verbosity change forces a
	// rebuild (verbosity is fixed at construction).
	if w.tracer == nil || w.verbosity != r.Scenario.TraceVerbosity {
		w.tracer = trace.New(trace.Options{Verbosity: r.Scenario.TraceVerbosity})
		w.verbosity = r.Scenario.TraceVerbosity
	} else {
		w.tracer.Reset()
	}
	w.col.Reset()

	r.hub.publish("started", startedEvent{
		Engine:  r.Scenario.EngineName(),
		Seed:    plan.Options.Cluster.Seed,
		Workers: plan.Options.Cluster.Workers,
		Jobs:    len(plan.Specs),
	})

	plan.Options.Telemetry = w.col
	plan.Options.Tracer = w.tracer
	plan.Options.Sim = w.sim
	plan.Options.Events = true
	armChaos := plan.Options.Prepare
	plan.Options.Prepare = func(c *mr.Cluster) error {
		if armChaos != nil {
			if err := armChaos(c); err != nil {
				return err
			}
		}
		c.SetOnProgress(func(pr mr.Progress) {
			// The sampler ticks the collector just before its sample
			// milestone, so each telemetry row goes out ahead of the
			// progress frame at the same t.
			if pr.Milestone == mr.MilestoneSample {
				row := w.col.Latest()
				r.hub.publish("telemetry", telemetryEvent{
					Seq:    row.Seq,
					T:      row.T,
					Names:  row.Names,
					Values: jsonFloats(row.Values),
				})
			}
			r.hub.publish("progress", progressEvent{
				T:             pr.At,
				Milestone:     pr.Milestone,
				Job:           pr.Job,
				JobsSubmitted: pr.JobsSubmitted,
				JobsFinished:  pr.JobsFinished,
				JobsActive:    pr.JobsActive,
				MapPct:        jsonFloat(pr.MapPct),
				ReducePct:     jsonFloat(pr.ReducePct),
			})
		})
		return nil
	}
	res, err := core.Run(plan.Engine, plan.Options, plan.Specs...)
	if err != nil {
		return nil, err
	}
	return assembleArtifacts(r, res, w.col, w.tracer)
}
