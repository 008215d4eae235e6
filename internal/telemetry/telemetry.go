// Package telemetry provides the tick-sampled time-series layer the
// runtime exposes for inspection: a Collector of named probe series
// sampled on the cluster's progress cadence into one bounded ring,
// exportable as JSONL or CSV, plus the runtime invariant checker
// (invariants.go) built on the same observation points.
//
// The collector is pull-based: components register probe closures once
// during setup, and every Tick samples all of them at the same virtual
// instant into one row of the shared ring. All series are therefore
// row-aligned — equal lengths, equal timestamps — by construction,
// which makes the wide-table exports trivially correct.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"smapreduce/internal/metrics"
)

// ringRows is the ring's row capacity. At the 2 s sampling cadence it
// retains over four virtual hours.
const ringRows = 8192

// Series is a read-only view of one value column of a Collector's
// ring. Its rows are the collector's: the same length, the same tick
// instants and the same eviction count as every other series.
type Series struct {
	c    *Collector
	name string
	vals []float64 // indexed like the collector's times column
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.vals) }

// Dropped returns how many old rows the collector's ring has evicted.
func (s *Series) Dropped() int { return s.c.dropped }

// At returns the i-th oldest retained sample, 0 <= i < Len.
func (s *Series) At(i int) metrics.Point {
	if i < 0 || i >= len(s.vals) {
		panic(fmt.Sprintf("telemetry: series %q index %d out of range [0,%d)", s.name, i, len(s.vals)))
	}
	j := s.c.row(i)
	return metrics.Point{T: s.c.times[j], V: s.vals[j]}
}

// Last returns the newest sample, or a zero Point when empty.
func (s *Series) Last() metrics.Point {
	if len(s.vals) == 0 {
		return metrics.Point{}
	}
	return s.At(len(s.vals) - 1)
}

// Points returns the retained samples oldest-first, as a copy the
// caller may keep across further ticks.
func (s *Series) Points() []metrics.Point {
	out := make([]metrics.Point, len(s.vals))
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// probe pairs a registered series with the closure that samples it.
type probe struct {
	s  *Series
	fn func() float64
}

// Collector samples a set of named probes on every Tick into one ring:
// a column of tick instants and one value column per series, sharing a
// single head, length and eviction count, so every series is
// row-aligned by construction. The columns grow by append up to
// ringRows and then wrap, evicting the oldest row. Late registration
// (after ticks have already run) backfills the new column with NaN at
// every retained row.
//
// Collector methods are safe for concurrent use (the serve mode reads
// exports while the simulation goroutine ticks). Series handles
// obtained from Register or Get are not independently synchronised:
// read them through the Collector's exports, or only once ticking has
// stopped.
type Collector struct {
	mu      sync.Mutex
	rows    int       // row capacity: ringRows
	times   []float64 // tick instants, one per retained row
	head    int       // index of the oldest row once the ring wraps
	dropped int
	ticks   int
	// probes holds the registered series in registration order. Reset
	// truncates it but keeps the entries past its length, whose series
	// handles and columns Register recycles.
	probes []probe
	byName map[string]*Series
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{rows: ringRows, byName: make(map[string]*Series)}
}

// Register adds a named probe and returns its series. A series
// registered after ticks have already run is backfilled with NaN at
// every retained row. Panics on a duplicate name.
func (c *Collector) Register(name string, fn func() float64) *Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %q", name))
	}
	// Entries past len(c.probes) hold the handles Reset retired, or
	// are zero where append grew the slice.
	n := len(c.probes)
	if n == cap(c.probes) {
		c.probes = append(c.probes, probe{})
	}
	c.probes = c.probes[:n+1]
	p := &c.probes[n]
	if p.s == nil {
		p.s = &Series{c: c}
	}
	p.fn = fn
	p.s.name = name
	p.s.vals = p.s.vals[:0]
	for range c.times {
		p.s.vals = append(p.s.vals, math.NaN())
	}
	c.byName[name] = p.s
	return p.s
}

// Reset discards every registered probe and all retained rows so a
// pooled worker can recycle the collector across consecutive runs. The
// probe closures are dropped (they close over the previous run's
// cluster), but the series handles and their columns stay for Register
// to recycle, so once the collector is warm a reset-and-re-register
// cycle allocates nothing. A reset collector is observationally
// identical to a fresh NewCollector.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.probes {
		c.probes[i].fn = nil
	}
	c.probes = c.probes[:0]
	clear(c.byName)
	c.times = c.times[:0]
	c.head, c.dropped, c.ticks = 0, 0, 0
}

// Tick samples every registered probe at virtual time now, in
// registration order. Panics if now precedes the previous tick, which
// always indicates a wiring bug.
func (c *Collector) Tick(now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.times); n > 0 && now < c.times[c.row(n-1)] {
		panic(fmt.Sprintf("telemetry: tick at %v before last %v", now, c.times[c.row(n-1)]))
	}
	c.ticks++
	if len(c.times) < c.rows {
		c.times = append(c.times, now)
		for _, p := range c.probes {
			p.s.vals = append(p.s.vals, p.fn())
		}
		return
	}
	c.times[c.head] = now
	for _, p := range c.probes {
		p.s.vals[c.head] = p.fn()
	}
	c.head = (c.head + 1) % c.rows
	c.dropped++
}

// row returns the column index of the i-th oldest retained row.
func (c *Collector) row(i int) int { return (c.head + i) % len(c.times) }

// Ticks returns how many times Tick has run.
func (c *Collector) Ticks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// TickSample is one Tick's snapshot across all registered series,
// row-aligned like every other collector export: Names[i] sampled
// Values[i] at virtual time T. Both slices are private copies the
// receiver may retain.
type TickSample struct {
	Seq    int // tick ordinal: 1 for the first Tick after NewCollector or Reset
	T      float64
	Names  []string
	Values []float64
}

// Latest returns the most recent Tick's row, names in registration
// order; its Seq is 0 before the first Tick.
func (c *Collector) Latest() TickSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := TickSample{
		Seq:    c.ticks,
		Names:  make([]string, len(c.probes)),
		Values: make([]float64, len(c.probes)),
	}
	if n := len(c.times); n > 0 {
		s.T = c.times[c.row(n-1)]
	}
	for i, p := range c.probes {
		s.Names[i] = p.s.name
		s.Values[i] = p.s.Last().V
	}
	return s
}

// Names returns the series names in registration order.
func (c *Collector) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.probes))
	for i, p := range c.probes {
		out[i] = p.s.name
	}
	return out
}

// Get returns the named series, or nil if not registered.
func (c *Collector) Get(name string) *Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byName[name]
}

// Table renders the retained samples as a wide table: one row per
// tick, a "t" column plus one column per series. All series are
// row-aligned by construction.
func (c *Collector) Table() *metrics.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table()
}

func (c *Collector) table() *metrics.Table {
	cols := make([]string, 0, len(c.probes)+1)
	cols = append(cols, "t")
	for _, p := range c.probes {
		cols = append(cols, p.s.name)
	}
	t := metrics.NewTable("telemetry", cols...)
	if len(c.probes) == 0 {
		return t
	}
	for i := range c.times {
		row := make([]string, 0, len(cols))
		row = append(row, formatValue(c.times[c.row(i)]))
		for _, p := range c.probes {
			row = append(row, formatValue(p.s.At(i).V))
		}
		t.AddRow(row...)
	}
	return t
}

// WriteCSV writes the wide table as CSV.
func (c *Collector) WriteCSV(w io.Writer) error {
	_, err := io.WriteString(w, c.Table().CSV())
	return err
}

// WriteJSONL writes one JSON object per retained sample, grouped by
// series and time-ordered within each:
//
//	{"series":"slotmgr/map-target","t":42,"v":3}
//
// Non-finite values (the balance factor is NaN before any map output
// and +Inf for map-only jobs) are emitted as null, since JSON cannot
// encode them.
func (c *Collector) WriteJSONL(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, p := range c.probes {
		name := strconv.Quote(p.s.name)
		for i := 0; i < p.s.Len(); i++ {
			pt := p.s.At(i)
			if _, err := fmt.Fprintf(bw, "{\"series\":%s,\"t\":%s,\"v\":%s}\n",
				name, jsonNumber(pt.T), jsonNumber(pt.V)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// jsonNumber formats v as a JSON value, mapping non-finite to null.
func jsonNumber(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatValue renders a float for the table/CSV exports. Non-finite
// values keep their Go spelling (NaN, +Inf), which plotting tools
// commonly accept as missing data.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
