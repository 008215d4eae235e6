package localmr

import (
	"fmt"
	"strings"
	"testing"
)

// benchCorpus builds a deterministic text corpus of roughly n words.
func benchCorpus(n int) string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(words[i%len(words)])
		if i%12 == 11 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// BenchmarkWordCountWorkers measures real map/reduce parallelism across
// static pool sizes.
func BenchmarkWordCountWorkers(b *testing.B) {
	text := benchCorpus(200_000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{MapWorkers: workers, ReduceWorkers: workers,
				MaxWorkers: workers, Partitions: workers, ChunkSize: 256}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, WordCount(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWordCountDynamic measures the dynamic pool manager against a
// fixed pool of the same maximum size.
func BenchmarkWordCountDynamic(b *testing.B) {
	text := benchCorpus(200_000)
	for _, dynamic := range []bool{false, true} {
		name := "static"
		if dynamic {
			name = "dynamic"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{MapWorkers: 2, ReduceWorkers: 2, MaxWorkers: 8,
				Partitions: 8, ChunkSize: 256, Dynamic: dynamic, ManagerTasksPerDecision: 8}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, WordCount(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInvertedIndex measures the document-indexing job.
func BenchmarkInvertedIndex(b *testing.B) {
	docs := make(map[string]string, 64)
	for i := 0; i < 64; i++ {
		docs[fmt.Sprintf("doc-%02d", i)] = benchCorpus(2_000)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, InvertedIndex(docs)); err != nil {
			b.Fatal(err)
		}
	}
}
