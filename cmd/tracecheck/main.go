// Command tracecheck validates a Chrome trace-event JSON file as
// produced by smrsim -trace: it must parse, contain at least
// one event, and every event must carry a phase. Used by the CI smoke
// job; prints a per-phase count summary on success.
//
// Usage:
//
//	tracecheck run.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json>")
		os.Exit(2)
	}
	path := os.Args[1]
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		fatal(fmt.Errorf("%s: not valid trace JSON: %w", path, err))
	}
	if len(doc.TraceEvents) == 0 {
		fatal(fmt.Errorf("%s: trace holds no events", path))
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			fatal(fmt.Errorf("%s: event %d has no phase", path, i))
		}
		if ev.Ph != "M" && ev.Ts == nil {
			fatal(fmt.Errorf("%s: event %d (%q) has no timestamp", path, i, ev.Name))
		}
		if ev.Ph == "X" && ev.Dur == nil {
			fatal(fmt.Errorf("%s: complete event %d (%q) has no duration", path, i, ev.Name))
		}
		phases[ev.Ph]++
	}
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s: %d events ok", path, len(doc.TraceEvents))
	for _, k := range keys {
		fmt.Printf("  %s=%d", k, phases[k])
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
