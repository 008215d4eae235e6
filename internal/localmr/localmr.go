// Package localmr is a real, executing MapReduce engine for a single
// machine: goroutine worker pools run user map and reduce functions
// over in-memory records, with hash partitioning, per-partition sort,
// an optional combiner, and the same map→shuffle→reduce structure as
// the simulated runtime.
//
// Its distinguishing feature is the paper's contribution itself: with
// Config.Dynamic the worker pools are sized at runtime by the slot
// manager's kernel (internal/core), the decision that drives the
// simulated cluster (pool.go). Pools shrink lazily — no worker is ever
// interrupted mid-task.
package localmr

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// KV is one key/value record.
type KV struct {
	Key, Value string
}

// Mapper transforms one input record into any number of intermediate
// records via emit. Implementations must be safe for concurrent use.
type Mapper func(key, value string, emit func(k, v string))

// Reducer folds all values of one key into any number of output
// records via emit. Implementations must be safe for concurrent use.
type Reducer func(key string, values []string, emit func(k, v string))

// Job describes one MapReduce computation.
type Job struct {
	Name    string
	Input   []KV
	Map     Mapper
	Reduce  Reducer
	Combine Reducer // optional map-side pre-aggregation
}

// Config tunes the engine.
type Config struct {
	// MapWorkers and ReduceWorkers size the pools; with Dynamic set
	// they are only the starting sizes.
	MapWorkers    int
	ReduceWorkers int
	// MaxWorkers bounds dynamic growth.
	MaxWorkers int
	// Partitions is the number of reduce partitions (the "reduce task
	// count"). Defaults to ReduceWorkers when zero.
	Partitions int
	// ChunkSize is records per map task. Defaults to 512.
	ChunkSize int
	// Dynamic enables the runtime pool manager.
	Dynamic bool
	// ManagerTasksPerDecision is how many completed map tasks the pool
	// manager waits for between sizing decisions. Defaults to 8.
	ManagerTasksPerDecision int
}

// DefaultConfig returns a sensible local setup.
func DefaultConfig() Config {
	return Config{
		MapWorkers:    2,
		ReduceWorkers: 2,
		MaxWorkers:    16,
		ChunkSize:     512,
		Dynamic:       true,
	}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.MapWorkers <= 0:
		return fmt.Errorf("localmr: MapWorkers = %d, must be positive", c.MapWorkers)
	case c.ReduceWorkers <= 0:
		return fmt.Errorf("localmr: ReduceWorkers = %d, must be positive", c.ReduceWorkers)
	case c.MaxWorkers < c.MapWorkers || c.MaxWorkers < c.ReduceWorkers:
		return fmt.Errorf("localmr: MaxWorkers = %d below initial pool sizes", c.MaxWorkers)
	case c.Partitions < 0:
		return fmt.Errorf("localmr: Partitions = %d, must be >= 0", c.Partitions)
	case c.ChunkSize < 0:
		return fmt.Errorf("localmr: ChunkSize = %d, must be >= 0", c.ChunkSize)
	case c.ManagerTasksPerDecision < 0:
		return fmt.Errorf("localmr: ManagerTasksPerDecision = %d, must be >= 0", c.ManagerTasksPerDecision)
	}
	return nil
}

// Stats reports what the engine did.
type Stats struct {
	MapTasks       int
	ReduceTasks    int
	Intermediate   int // records entering the shuffle (post-combine)
	Output         int // records emitted by reducers
	MapPoolPeak    int
	ReducePoolPeak int
	PoolDecisions  []PoolDecision
}

// Result is the job output: pairs sorted by key (then value), plus
// execution statistics.
type Result struct {
	Pairs []KV
	Stats Stats
}

// Run executes the job. The result is deterministic for a given job:
// output order is fully sorted and combiner application is per map
// task, regardless of worker counts or scheduling.
func Run(cfg Config, job Job) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("localmr: job %q needs both Map and Reduce", job.Name)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = cfg.ReduceWorkers
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 512
	}
	if cfg.ManagerTasksPerDecision == 0 {
		cfg.ManagerTasksPerDecision = 8
	}

	res := &Result{}

	// ---- Map stage -----------------------------------------------------
	chunks := chunkInput(job.Input, cfg.ChunkSize)
	res.Stats.MapTasks = len(chunks)

	parts := make([][]KV, cfg.Partitions)
	var partMu sync.Mutex

	var runErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
	}

	mapPool := &pool{target: cfg.MapWorkers}
	if cfg.Dynamic {
		mapPool.mgr = newManager(cfg, job.Name, len(chunks))
	}
	mapPool.run(len(chunks), func(i int) (inBytes, outBytes int) {
		defer func() {
			if r := recover(); r != nil {
				fail(fmt.Errorf("localmr: map task %d panicked: %v", i, r))
			}
		}()
		local := make([][]KV, cfg.Partitions)
		emit := func(k, v string) {
			p := partitionOf(k, cfg.Partitions)
			local[p] = append(local[p], KV{k, v})
		}
		for _, kv := range chunks[i] {
			inBytes += len(kv.Key) + len(kv.Value)
			job.Map(kv.Key, kv.Value, emit)
		}
		if job.Combine != nil {
			for p := range local {
				local[p] = combineBucket(local[p], job.Combine)
			}
		}
		for p := range local {
			for _, kv := range local[p] {
				outBytes += len(kv.Key) + len(kv.Value)
			}
		}
		partMu.Lock()
		for p := range local {
			parts[p] = append(parts[p], local[p]...)
		}
		partMu.Unlock()
		return inBytes, outBytes
	})
	if runErr != nil {
		return nil, runErr
	}
	res.Stats.MapPoolPeak = mapPool.peakSeen
	for p := range parts {
		res.Stats.Intermediate += len(parts[p])
	}

	// ---- Barrier + reduce stage ----------------------------------------
	outs := make([][]KV, cfg.Partitions)
	res.Stats.ReduceTasks = cfg.Partitions
	reducePool := &pool{target: cfg.ReduceWorkers}
	if mgr := mapPool.mgr; mgr != nil {
		reducePool.target = mgr.reduceWorkers()
		res.Stats.PoolDecisions = mgr.log
	}
	reducePool.run(cfg.Partitions, func(p int) (int, int) {
		defer func() {
			if r := recover(); r != nil {
				fail(fmt.Errorf("localmr: reduce partition %d panicked: %v", p, r))
			}
		}()
		outs[p] = reducePartition(parts[p], job.Reduce)
		return 0, 0
	})
	if runErr != nil {
		return nil, runErr
	}
	res.Stats.ReducePoolPeak = reducePool.peakSeen

	for _, out := range outs {
		res.Pairs = append(res.Pairs, out...)
	}
	sortKVs(res.Pairs)
	res.Stats.Output = len(res.Pairs)
	return res, nil
}

// chunkInput slices the input into map tasks.
func chunkInput(in []KV, chunk int) [][]KV {
	if len(in) == 0 {
		return nil
	}
	var chunks [][]KV
	for start := 0; start < len(in); start += chunk {
		end := start + chunk
		if end > len(in) {
			end = len(in)
		}
		chunks = append(chunks, in[start:end])
	}
	return chunks
}

// partitionOf assigns a key to a reduce partition by FNV hash, the same
// scheme as Hadoop's default HashPartitioner.
func partitionOf(key string, partitions int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(partitions))
}

// combineBucket sorts one map task's bucket and applies the combiner
// per key group — exactly Hadoop's map-side combine semantics.
func combineBucket(kvs []KV, combine Reducer) []KV {
	if len(kvs) == 0 {
		return kvs
	}
	sortKVs(kvs)
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	forEachGroup(kvs, func(key string, values []string) {
		combine(key, values, emit)
	})
	return out
}

// reducePartition sorts a partition by key, groups by key and reduces.
func reducePartition(kvs []KV, reduce Reducer) []KV {
	if len(kvs) == 0 {
		return nil
	}
	sorted := append([]KV(nil), kvs...)
	sortKVs(sorted)
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	forEachGroup(sorted, func(key string, values []string) {
		reduce(key, values, emit)
	})
	return out
}

// forEachGroup walks the key groups of a sorted slice.
func forEachGroup(sorted []KV, fn func(key string, values []string)) {
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Key == sorted[i].Key {
			j++
		}
		values := make([]string, 0, j-i)
		for _, kv := range sorted[i:j] {
			values = append(values, kv.Value)
		}
		fn(sorted[i].Key, values)
		i = j
	}
}

// sortKVs orders by key then value, the engine's canonical order.
func sortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].Key != kvs[j].Key {
			return kvs[i].Key < kvs[j].Key
		}
		return kvs[i].Value < kvs[j].Value
	})
}
