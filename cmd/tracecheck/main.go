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
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams. It returns the
// exit status: 0 valid, 1 invalid trace, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: tracecheck <trace.json>")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tracecheck:", err)
		return 1
	}
	path := args[0]
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fail(fmt.Errorf("%s: not valid trace JSON: %w", path, err))
	}
	if len(doc.TraceEvents) == 0 {
		return fail(fmt.Errorf("%s: trace holds no events", path))
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			return fail(fmt.Errorf("%s: event %d has no phase", path, i))
		}
		if ev.Ph != "M" && ev.Ts == nil {
			return fail(fmt.Errorf("%s: event %d (%q) has no timestamp", path, i, ev.Name))
		}
		if ev.Ph == "X" && ev.Dur == nil {
			return fail(fmt.Errorf("%s: complete event %d (%q) has no duration", path, i, ev.Name))
		}
		phases[ev.Ph]++
	}
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "%s: %d events ok", path, len(doc.TraceEvents))
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %s=%d", k, phases[k])
	}
	fmt.Fprintln(stdout)
	return 0
}
