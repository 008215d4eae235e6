// Package metrics provides the time-series recorders used to plot the
// paper's figures: sampled job progress (Fig. 4), rate series, and
// labelled counters.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one sample of a time series.
type Point struct {
	T Time
	V float64
}

// Time aliases the simulation time unit (seconds).
type Time = float64

// Series is an append-only time series. Samples must be appended in
// non-decreasing time order; Add panics otherwise, because out-of-order
// samples always indicate a recorder wiring bug.
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(t Time, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("metrics: series %q sample at %v before last %v", s.Name, t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples (not a copy; callers must not
// mutate).
func (s *Series) Points() []Point { return s.points }

// Last returns the most recent sample, or a zero Point if empty.
func (s *Series) Last() Point {
	if len(s.points) == 0 {
		return Point{}
	}
	return s.points[len(s.points)-1]
}

// At returns the value at time t by step interpolation (the value of
// the latest sample at or before t). Before the first sample it
// returns 0.
func (s *Series) At(t Time) float64 {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.points[i-1].V
}

// MaxV returns the maximum sampled value, or 0 if empty.
func (s *Series) MaxV() float64 {
	m := math.Inf(-1)
	for _, p := range s.points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// CrossingTime returns the earliest sample time whose value is >= v, or
// NaN if the series never reaches v. Used to read "time to X% progress"
// off progress curves.
func (s *Series) CrossingTime(v float64) Time {
	for _, p := range s.points {
		if p.V >= v {
			return p.T
		}
	}
	return math.NaN()
}

// Progress records a job's progress curve. Following the paper, total
// progress runs to 200%: 100 for the map tasks plus 100 for the
// reduce tasks.
type Progress struct {
	Map    *Series // 0..100
	Reduce *Series // 0..100
	Total  *Series // 0..200
}

// NewProgress returns empty progress curves for the named job.
func NewProgress(job string) *Progress {
	return &Progress{
		Map:    NewSeries(job + "/map%"),
		Reduce: NewSeries(job + "/reduce%"),
		Total:  NewSeries(job + "/total%"),
	}
}

// Sample records the map and reduce completion percentages at t.
func (p *Progress) Sample(t Time, mapPct, reducePct float64) {
	p.Map.Add(t, mapPct)
	p.Reduce.Add(t, reducePct)
	p.Total.Add(t, mapPct+reducePct)
}

// Table renders aligned rows of named columns — the printer used by
// the experiment harnesses so every figure prints consistently.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; the cell count must match the columns.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: table %q row has %d cells, want %d", t.Title, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends one row of formatted values: strings pass through,
// float64s format with %.4g, ints with %d.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				// No padding after the last column: keeps lines free of
				// trailing whitespace.
				b.WriteString(cell)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
