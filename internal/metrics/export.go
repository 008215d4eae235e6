package metrics

import (
	"fmt"
	"math"
	"strings"
)

// CSV renders the table as RFC-4180-ish CSV (quotes only where needed),
// for piping figure data into external plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// csvEscape quotes a cell when it contains a comma, quote or newline.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Bars renders a horizontal ASCII bar chart: one row per label, bars
// scaled to the maximum value, annotated with the numeric value. It is
// the quick-look rendering smrbench prints next to each figure table.
func Bars(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("metrics: Bars %q with %d labels and %d values", title, len(labels), len(values)))
	}
	if width < 8 {
		width = 8
	}
	maxV := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, v := range values {
		n := 0
		if maxV > 0 && v > 0 {
			n = int(math.Round(v / maxV * float64(width)))
			if n == 0 {
				n = 1
			}
		}
		fmt.Fprintf(&b, "%-*s  %s%s %.4g\n", maxLabel, labels[i],
			strings.Repeat("█", n), strings.Repeat(" ", width-n), v)
	}
	return b.String()
}

// Sparkline renders a series as a one-line unicode sparkline resampled
// to width points.
func Sparkline(points []Point, width int) string {
	if len(points) == 0 || width <= 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	// Non-finite samples (a NaN balance factor, an +Inf ratio) are left
	// out of the scale and rendered at the bottom of the ramp; letting
	// them into lo/hi would make the index arithmetic non-finite and
	// int() of that is out of range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			continue
		}
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	t0 := points[0].T
	t1 := points[len(points)-1].T
	out := make([]rune, width)
	for i := range out {
		// Step-interpolate at the i-th resample instant.
		x := t0
		if width > 1 {
			x = t0 + (t1-t0)*float64(i)/float64(width-1)
		}
		v := points[0].V
		for _, p := range points {
			if p.T <= x {
				v = p.V
			}
		}
		idx := 0
		if hi > lo && !math.IsNaN(v) && !math.IsInf(v, 0) {
			idx = int((v - lo) / (hi - lo) * float64(len(ramp)-1))
		}
		out[i] = ramp[idx]
	}
	return string(out)
}
