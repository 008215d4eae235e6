package localmr

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func staticConfig() Config {
	return Config{MapWorkers: 2, ReduceWorkers: 2, MaxWorkers: 4, Partitions: 3, ChunkSize: 4, Dynamic: false}
}

func mustRun(t *testing.T, cfg Config, job Job) *Result {
	t.Helper()
	res, err := Run(cfg, job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func pairsToMap(t *testing.T, pairs []KV) map[string]string {
	t.Helper()
	m := make(map[string]string, len(pairs))
	for _, kv := range pairs {
		if _, dup := m[kv.Key]; dup {
			t.Fatalf("duplicate key %q in output", kv.Key)
		}
		m[kv.Key] = kv.Value
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []Config{
		{MapWorkers: 0, ReduceWorkers: 1, MaxWorkers: 1},
		{MapWorkers: 1, ReduceWorkers: 0, MaxWorkers: 1},
		{MapWorkers: 4, ReduceWorkers: 1, MaxWorkers: 2},
		{MapWorkers: 1, ReduceWorkers: 1, MaxWorkers: 1, Partitions: -1},
		{MapWorkers: 1, ReduceWorkers: 1, MaxWorkers: 1, ChunkSize: -1},
		{MapWorkers: 1, ReduceWorkers: 1, MaxWorkers: 1, ManagerTasksPerDecision: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d passed", i)
		}
	}
}

func TestRunRejectsIncompleteJob(t *testing.T) {
	if _, err := Run(staticConfig(), Job{Name: "x"}); err == nil {
		t.Fatal("job without map/reduce accepted")
	}
	if _, err := Run(Config{}, WordCount("a")); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestWordCountCorrect(t *testing.T) {
	text := "the quick brown fox\nthe lazy dog\nthe fox"
	res := mustRun(t, staticConfig(), WordCount(text))
	got := pairsToMap(t, res.Pairs)
	want := map[string]string{
		"the": "3", "quick": "1", "brown": "1", "fox": "2", "lazy": "1", "dog": "1",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %s, want %s", k, got[k], v)
		}
	}
}

func TestOutputSorted(t *testing.T) {
	res := mustRun(t, staticConfig(), WordCount("b a c b a"))
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i-1].Key > res.Pairs[i].Key {
			t.Fatalf("output unsorted at %d: %v", i, res.Pairs)
		}
	}
}

func TestCombinerMatchesNoCombiner(t *testing.T) {
	text := strings.Repeat("alpha beta beta gamma\n", 50)
	with := mustRun(t, staticConfig(), WordCount(text))
	job := WordCount(text)
	job.Combine = nil
	without := mustRun(t, staticConfig(), job)
	if len(with.Pairs) != len(without.Pairs) {
		t.Fatalf("combiner changed results: %d vs %d pairs", len(with.Pairs), len(without.Pairs))
	}
	for i := range with.Pairs {
		if with.Pairs[i] != without.Pairs[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, with.Pairs[i], without.Pairs[i])
		}
	}
	if with.Stats.Intermediate >= without.Stats.Intermediate {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d",
			with.Stats.Intermediate, without.Stats.Intermediate)
	}
}

func TestGrep(t *testing.T) {
	text := "error: disk full\nok\nerror: cpu melted\nfine"
	res := mustRun(t, staticConfig(), Grep(text, "error"))
	if len(res.Pairs) != 2 {
		t.Fatalf("grep found %d lines, want 2: %v", len(res.Pairs), res.Pairs)
	}
	for _, kv := range res.Pairs {
		if !strings.Contains(kv.Value, "error") {
			t.Fatalf("non-matching line in output: %v", kv)
		}
	}
}

func TestInvertedIndex(t *testing.T) {
	docs := map[string]string{
		"d1": "apple banana",
		"d2": "banana cherry banana",
		"d3": "apple",
	}
	res := mustRun(t, staticConfig(), InvertedIndex(docs))
	got := pairsToMap(t, res.Pairs)
	want := map[string]string{
		"apple":  "d1,d3",
		"banana": "d1,d2",
		"cherry": "d2",
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("index[%s] = %s, want %s", k, got[k], v)
		}
	}
}

func TestHistogramRatings(t *testing.T) {
	lines := "m1\t5\nm2\t3\nm3\t5\nm4\t1\nbadline"
	res := mustRun(t, staticConfig(), HistogramRatings(lines))
	got := pairsToMap(t, res.Pairs)
	if got["5"] != "2" || got["3"] != "1" || got["1"] != "1" {
		t.Fatalf("histogram wrong: %v", got)
	}
}

func TestEmptyInput(t *testing.T) {
	res := mustRun(t, staticConfig(), WordCount(""))
	if len(res.Pairs) != 0 || res.Stats.MapTasks != 0 {
		t.Fatalf("empty input produced output: %+v", res)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	text := strings.Repeat("x y z w v u t s r q p\n", 200)
	var outputs [][]KV
	for _, workers := range []int{1, 2, 7} {
		cfg := staticConfig()
		cfg.MapWorkers, cfg.ReduceWorkers, cfg.MaxWorkers = workers, workers, workers
		res := mustRun(t, cfg, WordCount(text))
		outputs = append(outputs, res.Pairs)
	}
	for i := 1; i < len(outputs); i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatal("worker count changed output size")
		}
		for j := range outputs[i] {
			if outputs[i][j] != outputs[0][j] {
				t.Fatalf("worker count changed output at %d", j)
			}
		}
	}
}

func TestPartitionCoverage(t *testing.T) {
	// Every key must land in [0, partitions) and identical keys in the
	// same partition.
	for _, parts := range []int{1, 2, 7, 32} {
		for _, key := range []string{"a", "b", "zebra", "", "日本語"} {
			p1 := partitionOf(key, parts)
			p2 := partitionOf(key, parts)
			if p1 != p2 || p1 < 0 || p1 >= parts {
				t.Fatalf("partitionOf(%q,%d) = %d/%d", key, parts, p1, p2)
			}
		}
	}
}

func TestDynamicPoolGrows(t *testing.T) {
	text := strings.Repeat("count these words again and again\n", 3000)
	cfg := Config{MapWorkers: 1, ReduceWorkers: 1, MaxWorkers: 8, Partitions: 8,
		ChunkSize: 64, Dynamic: true, ManagerTasksPerDecision: 4}
	res := mustRun(t, cfg, WordCount(text))
	if res.Stats.MapPoolPeak <= 1 {
		t.Fatalf("dynamic map pool never grew: peak %d", res.Stats.MapPoolPeak)
	}
	if len(res.Stats.PoolDecisions) == 0 {
		t.Fatal("no pool decisions logged")
	}
	got := pairsToMap(t, res.Pairs)
	if got["words"] != "3000" {
		t.Fatalf("dynamic run wrong: words=%s", got["words"])
	}
}

func TestDynamicRespectsMax(t *testing.T) {
	text := strings.Repeat("a b c d e f\n", 2000)
	cfg := Config{MapWorkers: 1, ReduceWorkers: 1, MaxWorkers: 3, Partitions: 4,
		ChunkSize: 16, Dynamic: true, ManagerTasksPerDecision: 2}
	res := mustRun(t, cfg, WordCount(text))
	if res.Stats.MapPoolPeak > 3 {
		t.Fatalf("pool exceeded max: %d", res.Stats.MapPoolPeak)
	}
}

// TestDynamicReducePoolFromTail pins the barrier step: the kernel's
// tail stretch sees a small measured shuffle per partition and boosts
// the reduce pool to MaxWorkers.
func TestDynamicReducePoolFromTail(t *testing.T) {
	text := strings.Repeat("a b c d e f\n", 500)
	cfg := Config{MapWorkers: 1, ReduceWorkers: 1, MaxWorkers: 4, Partitions: 8,
		ChunkSize: 50, Dynamic: true, ManagerTasksPerDecision: 2}
	res := mustRun(t, cfg, WordCount(text))
	if res.Stats.ReducePoolPeak != 4 {
		t.Fatalf("reduce pool peak = %d, want MaxWorkers 4", res.Stats.ReducePoolPeak)
	}
	ds := res.Stats.PoolDecisions
	want := PoolDecision{Stage: "reduce", Workers: 4, Reason: "tail: small shuffle, boosting reduce slots"}
	if len(ds) == 0 || ds[len(ds)-1] != want {
		t.Fatalf("decisions %+v do not end with %+v", ds, want)
	}
}

// TestPoolShrinksLazily lowers a running pool's target and checks that
// the surplus workers retire between tasks while every task finishes.
func TestPoolShrinksLazily(t *testing.T) {
	p := &pool{target: 4}
	var finished atomic.Int64
	p.run(64, func(i int) (int, int) {
		if i == 0 {
			p.mu.Lock()
			p.target = 1
			p.mu.Unlock()
		}
		time.Sleep(100 * time.Microsecond)
		finished.Add(1)
		return 0, 0
	})
	if finished.Load() != 64 {
		t.Fatalf("%d of 64 tasks finished", finished.Load())
	}
	if p.peakSeen != 4 || p.alive != 1 {
		t.Fatalf("peak %d, alive %d after shrinking to 1; want 4 and 1", p.peakSeen, p.alive)
	}
}

// TestPoolResizeRunsEveryIndexOnce grows and shrinks a running pool
// (targets 1, 3, 5, 7 in turn) and checks that every task index runs
// exactly once.
func TestPoolResizeRunsEveryIndexOnce(t *testing.T) {
	const n = 500
	p := &pool{target: 2}
	var runs [n]atomic.Int32
	p.run(n, func(i int) (int, int) {
		runs[i].Add(1)
		if i%50 == 0 {
			p.mu.Lock()
			p.target = 1 + 2*(i/50%4)
			for p.alive < p.target {
				p.spawnLocked()
			}
			p.mu.Unlock()
		}
		return 0, 0
	})
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
	if p.peakSeen != 7 {
		t.Fatalf("peak %d, want 7", p.peakSeen)
	}
}

func TestStatsAccounting(t *testing.T) {
	text := strings.Repeat("k v\n", 100)
	cfg := staticConfig()
	cfg.ChunkSize = 10
	res := mustRun(t, cfg, WordCount(text))
	if res.Stats.MapTasks != 10 {
		t.Fatalf("MapTasks = %d, want 10", res.Stats.MapTasks)
	}
	if res.Stats.ReduceTasks != cfg.Partitions {
		t.Fatalf("ReduceTasks = %d, want %d", res.Stats.ReduceTasks, cfg.Partitions)
	}
	if res.Stats.Output != len(res.Pairs) {
		t.Fatal("Output count mismatch")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 42 foo-bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestLinesInputSkipsEmpty(t *testing.T) {
	kvs := LinesInput("a\n\nb\n")
	if len(kvs) != 2 {
		t.Fatalf("LinesInput kept empty lines: %v", kvs)
	}
}

func TestSumReducerPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sum reducer accepted garbage")
		}
	}()
	sumReducer("k", []string{"not-a-number"}, func(k, v string) {})
}

// Property: word counts from the engine equal a straightforward
// sequential count, for arbitrary word soups.
func TestQuickWordCountMatchesReference(t *testing.T) {
	f := func(wordsRaw []uint8) bool {
		var b strings.Builder
		ref := make(map[string]int)
		for i, w := range wordsRaw {
			word := fmt.Sprintf("w%d", w%17)
			ref[word]++
			b.WriteString(word)
			if i%5 == 4 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		res, err := Run(staticConfig(), WordCount(b.String()))
		if err != nil {
			return false
		}
		if len(res.Pairs) != len(ref) {
			return false
		}
		for _, kv := range res.Pairs {
			if strconv.Itoa(ref[kv.Key]) != kv.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: partitioning is a function (stable) and total across keys.
func TestQuickPartitionStable(t *testing.T) {
	f := func(key string, parts uint8) bool {
		p := int(parts%16) + 1
		v := partitionOf(key, p)
		return v >= 0 && v < p && v == partitionOf(key, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteOutputLines(t *testing.T) {
	pairs := []KV{{"a", "1"}, {"key with space", "v\twith tab? no: value"}, {"z", ""}}
	var buf strings.Builder
	if err := WriteOutput(&buf, pairs); err != nil {
		t.Fatal(err)
	}
	// One "key<TAB>value" line per pair, in order; a value's own tabs
	// and an empty value are written as they are.
	want := "a\t1\nkey with space\tv\twith tab? no: value\nz\t\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteOutput wrote %q, want %q", got, want)
	}
}

func TestReaderPipelineEndToEnd(t *testing.T) {
	// Line input → engine → writer output.
	job := Job{
		Name:  "wc",
		Input: LinesInput("x y\ny z\n"),
		Map: func(_, line string, emit func(k, v string)) {
			for _, w := range Tokenize(line) {
				emit(w, "1")
			}
		},
		Reduce: sumReducer,
	}
	res := mustRun(t, staticConfig(), job)
	var buf strings.Builder
	if err := WriteOutput(&buf, res.Pairs); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "x\t1\ny\t2\nz\t1\n"; got != want {
		t.Fatalf("pipeline output = %q, want %q", got, want)
	}
}

func TestSequenceCount(t *testing.T) {
	docs := map[string]string{"d": "a b c a b c a"}
	// Trigrams: abc bca cab abc bca → "a b c":2, "b c a":2, "c a b":1.
	res := mustRun(t, staticConfig(), SequenceCount(docs))
	got := pairsToMap(t, res.Pairs)
	if got["a b c"] != "2" || got["b c a"] != "2" || got["c a b"] != "1" {
		t.Fatalf("trigram counts wrong: %v", got)
	}
}

func TestAdjacencyList(t *testing.T) {
	edges := "1 2\n1 3\n2 3\n1 2\nmalformed-line"
	res := mustRun(t, staticConfig(), AdjacencyList(edges))
	got := pairsToMap(t, res.Pairs)
	if got["1"] != "2,3" || got["2"] != "3" {
		t.Fatalf("adjacency = %v", got)
	}
}

func TestMapperPanicSurfacesAsError(t *testing.T) {
	job := Job{
		Name:  "boom",
		Input: LinesInput("a\nb"),
		Map: func(_, v string, emit func(k, v string)) {
			if v == "b" {
				panic("map exploded")
			}
			emit(v, "1")
		},
		Reduce: sumReducer,
	}
	_, err := Run(staticConfig(), job)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("mapper panic not surfaced: %v", err)
	}
}

func TestReducerPanicSurfacesAsError(t *testing.T) {
	job := WordCount("a b c")
	job.Reduce = func(key string, _ []string, _ func(k, v string)) {
		panic("reduce exploded: " + key)
	}
	_, err := Run(staticConfig(), job)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("reducer panic not surfaced: %v", err)
	}
}
