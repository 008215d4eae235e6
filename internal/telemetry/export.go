package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"smapreduce/internal/metrics"
)

// WriteFile exports the collector to path, picking the format from the
// file extension (case-insensitive): CSV for .csv, JSONL otherwise.
func WriteFile(col *Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.EqualFold(filepath.Ext(path), ".csv") {
		err = col.WriteCSV(f)
	} else {
		err = col.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WritePrometheus renders the newest sample of every series in the
// Prometheus text exposition format, one gauge per series named
// smr_<series> with characters outside [a-zA-Z0-9_] folded to '_',
// each preceded by its # HELP and # TYPE metadata lines. A constant
// smr_build_info gauge carries the module version and platform as
// labels, the convention dashboards join on. Non-finite values keep
// their text spellings (NaN, +Inf), which the format admits.
func (c *Collector) WritePrometheus(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw,
		"# HELP smr_build_info Build metadata of the serving binary (value is always 1).\n"+
			"# TYPE smr_build_info gauge\n"+
			"smr_build_info{version=%q,goversion=%q,goos=%q,goarch=%q} 1\n",
		BuildVersion(), runtime.Version(), runtime.GOOS, runtime.GOARCH); err != nil {
		return err
	}
	for _, p := range c.probes {
		if p.s.Len() == 0 {
			continue
		}
		name := promName(p.s.name)
		if _, err := fmt.Fprintf(bw, "# HELP %s Newest sample of telemetry series %q.\n# TYPE %s gauge\n%s %s\n",
			name, p.s.name, name, name, formatValue(p.s.Last().V)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// timelineSeries is the subset of series TimelineChart plots: the slot
// targets and occupancy of the paper's Fig. 5 and the rate/balance
// trajectories of Fig. 6, in plot order.
var timelineSeries = []string{
	"slotmgr/map-target",
	"slotmgr/reduce-target",
	"cluster/running-maps",
	"cluster/running-reduces",
	"slotmgr/in-MBps",
	"slotmgr/out-MBps",
	"slotmgr/shuffle-MBps",
	"slotmgr/balance-f",
	"net/total-MBps",
	"cluster/map-input-MB",
}

// TimelineChart renders the Figure-5/6-style slot and rate timelines:
// one 40-column sparkline per series with its final value. Series the
// collector does not carry are skipped, so the chart also renders
// baseline-engine captures.
func (c *Collector) TimelineChart() string {
	var b strings.Builder
	for _, name := range timelineSeries {
		s := c.Get(name)
		if s == nil || s.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-22s %s  last %.4g\n",
			name, metrics.Sparkline(s.Points(), 40), s.Last().V)
	}
	return b.String()
}

// BuildVersion reports the main module's version as recorded in the
// binary's build info: a tag for released builds, a pseudo-version for
// module builds, "devel" when built from a source tree.
func BuildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// promName maps a series name to a valid Prometheus metric name.
func promName(series string) string {
	var b strings.Builder
	b.Grow(len(series) + 4)
	b.WriteString("smr_")
	for _, r := range series {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
