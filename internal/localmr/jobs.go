package localmr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// LinesInput turns raw text into one KV per line, keyed by line number
// — the analogue of Hadoop's TextInputFormat.
func LinesInput(text string) []KV {
	lines := strings.Split(text, "\n")
	kvs := make([]KV, 0, len(lines))
	for i, line := range lines {
		if line == "" {
			continue
		}
		kvs = append(kvs, KV{Key: strconv.Itoa(i), Value: line})
	}
	return kvs
}

// DocsInput keys each document by its name, for jobs that need document
// identity (inverted index).
func DocsInput(docs map[string]string) []KV {
	kvs := make([]KV, 0, len(docs))
	for name, body := range docs {
		kvs = append(kvs, KV{Key: name, Value: body})
	}
	sortKVs(kvs)
	return kvs
}

// Tokenize splits text into lower-case word tokens, dropping
// punctuation — shared by the text-processing jobs.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
}

// WordCount builds the canonical word-count job over text lines.
func WordCount(text string) Job {
	return Job{
		Name:  "wordcount",
		Input: LinesInput(text),
		Map: func(_, line string, emit func(k, v string)) {
			for _, w := range Tokenize(line) {
				emit(w, "1")
			}
		},
		Combine: sumReducer,
		Reduce:  sumReducer,
	}
}

// sumReducer adds up integer values per key.
func sumReducer(key string, values []string, emit func(k, v string)) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			// Malformed intermediate data is an engine bug, not user
			// input; surface it loudly.
			panic(fmt.Sprintf("localmr: sum reducer got non-integer %q for key %q", v, key))
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
}

// Grep builds a distributed-grep job: lines containing the pattern are
// emitted keyed by line number.
func Grep(text, pattern string) Job {
	return Job{
		Name:  "grep",
		Input: LinesInput(text),
		Map: func(lineNo, line string, emit func(k, v string)) {
			if strings.Contains(line, pattern) {
				emit(lineNo, line)
			}
		},
		Reduce: func(key string, values []string, emit func(k, v string)) {
			for _, v := range values {
				emit(key, v)
			}
		},
	}
}

// InvertedIndex builds a document → posting-list job: each word maps to
// the sorted, de-duplicated list of documents containing it.
func InvertedIndex(docs map[string]string) Job {
	return Job{
		Name:  "inverted-index",
		Input: DocsInput(docs),
		Map: func(doc, body string, emit func(k, v string)) {
			seen := make(map[string]bool)
			for _, w := range Tokenize(body) {
				if !seen[w] {
					seen[w] = true
					emit(w, doc)
				}
			}
		},
		Reduce: func(word string, docs []string, emit func(k, v string)) {
			uniq := make(map[string]bool, len(docs))
			var list []string
			for _, d := range docs {
				if !uniq[d] {
					uniq[d] = true
					list = append(list, d)
				}
			}
			sort.Strings(list)
			emit(word, strings.Join(list, ","))
		},
	}
}

// HistogramRatings mirrors PUMA's histogram-ratings: inputs are
// "movieID<TAB>rating" lines; output is the count per rating bucket.
func HistogramRatings(lines string) Job {
	return Job{
		Name:  "histogram-ratings",
		Input: LinesInput(lines),
		Map: func(_, line string, emit func(k, v string)) {
			fields := strings.Split(line, "\t")
			if len(fields) < 2 {
				return
			}
			emit(fields[1], "1")
		},
		Combine: sumReducer,
		Reduce:  sumReducer,
	}
}

// SequenceCount counts distinct word trigrams per document corpus —
// PUMA's sequence-count.
func SequenceCount(docs map[string]string) Job {
	return Job{
		Name:  "sequence-count",
		Input: DocsInput(docs),
		Map: func(_, body string, emit func(k, v string)) {
			words := Tokenize(body)
			for i := 0; i+2 < len(words); i++ {
				emit(words[i]+" "+words[i+1]+" "+words[i+2], "1")
			}
		},
		Combine: sumReducer,
		Reduce:  sumReducer,
	}
}

// AdjacencyList turns directed edges ("src dst" lines) into each
// vertex's sorted, de-duplicated out-neighbour list — PUMA's
// adjacency-list.
func AdjacencyList(edges string) Job {
	return Job{
		Name:  "adjacency-list",
		Input: LinesInput(edges),
		Map: func(_, line string, emit func(k, v string)) {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return
			}
			emit(fields[0], fields[1])
		},
		Reduce: func(src string, dsts []string, emit func(k, v string)) {
			uniq := make(map[string]bool)
			var out []string
			for _, d := range dsts {
				if !uniq[d] {
					uniq[d] = true
					out = append(out, d)
				}
			}
			sort.Strings(out)
			emit(src, strings.Join(out, ","))
		},
	}
}
