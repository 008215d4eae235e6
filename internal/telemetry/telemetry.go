// Package telemetry provides the tick-sampled time-series layer the
// runtime exposes for inspection: a Collector of named probe series
// sampled on the cluster's progress cadence, ring-buffered so long
// runs stay bounded, exportable as JSONL or CSV, plus the runtime
// invariant checker (invariants.go) built on the same observation
// points.
//
// The collector is pull-based: components register probe closures once
// during setup, and every Tick samples all of them at the same virtual
// instant. All series therefore stay row-aligned — equal lengths, equal
// timestamps — which makes the wide-table exports trivially correct.
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

// DefaultCapacity is the per-series ring capacity used when the caller
// passes a non-positive capacity to NewCollector. At the default 2 s
// sampling cadence it retains over four virtual hours.
const DefaultCapacity = 8192

// Series is a fixed-capacity ring buffer of time samples. Once full,
// each append evicts the oldest sample and counts it in Dropped.
// Timestamps must be non-decreasing; Append panics otherwise, because
// an out-of-order sample always indicates a probe wiring bug.
type Series struct {
	name    string
	buf     []metrics.Point
	head    int // index of the oldest retained sample
	n       int
	dropped int
	lastT   float64
	primed  bool
}

// NewSeries returns an empty ring series with the given capacity
// (non-positive means DefaultCapacity).
func NewSeries(name string, capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Series{name: name, buf: make([]metrics.Point, capacity)}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Len returns the number of retained samples.
func (s *Series) Len() int { return s.n }

// Cap returns the ring capacity.
func (s *Series) Cap() int { return len(s.buf) }

// Dropped returns how many old samples the ring has evicted.
func (s *Series) Dropped() int { return s.dropped }

// Append records one sample. Panics if t precedes the previous sample.
func (s *Series) Append(t, v float64) {
	if s.primed && t < s.lastT {
		panic(fmt.Sprintf("telemetry: series %q sample at %v before last %v", s.name, t, s.lastT))
	}
	s.lastT, s.primed = t, true
	if s.n == len(s.buf) {
		s.buf[s.head] = metrics.Point{T: t, V: v}
		s.head = (s.head + 1) % len(s.buf)
		s.dropped++
		return
	}
	s.buf[(s.head+s.n)%len(s.buf)] = metrics.Point{T: t, V: v}
	s.n++
}

// At returns the i-th oldest retained sample, 0 <= i < Len.
func (s *Series) At(i int) metrics.Point {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("telemetry: series %q index %d out of range [0,%d)", s.name, i, s.n))
	}
	return s.buf[(s.head+i)%len(s.buf)]
}

// Last returns the newest sample, or a zero Point when empty.
func (s *Series) Last() metrics.Point {
	if s.n == 0 {
		return metrics.Point{}
	}
	return s.At(s.n - 1)
}

// Points returns the retained samples oldest-first, as a copy the
// caller may keep across further appends.
func (s *Series) Points() []metrics.Point {
	out := make([]metrics.Point, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.At(i)
	}
	return out
}

// reset empties the series for reuse under a new name, keeping the
// ring buffer. Stale samples beyond the (now zero) length are
// unreachable through the accessors, so they are left in place.
func (s *Series) reset(name string) {
	s.name = name
	s.head, s.n, s.dropped = 0, 0, 0
	s.lastT, s.primed = 0, false
}

// probe pairs a registered series with the closure that samples it.
type probe struct {
	s  *Series
	fn func() float64
}

// Collector samples a set of named probes on every Tick. Late
// registration (after ticks have already run) backfills the new series
// with NaN samples at the earlier tick instants, so all series always
// stay row-aligned.
//
// Collector methods are safe for concurrent use (the serve mode reads
// exports while the simulation goroutine ticks). Series handles
// obtained from Register or Get are not independently synchronised:
// read them through the Collector's exports, or only once ticking has
// stopped.
type Collector struct {
	mu       sync.Mutex
	capacity int
	probes   []probe
	byName   map[string]*Series
	times    *Series // tick instants, for late-registration backfill
	ticks    int
	free     []*Series // retired rings recycled by Register after Reset
}

// NewCollector returns an empty collector whose series each retain up
// to capacity samples (non-positive means DefaultCapacity).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{
		capacity: capacity,
		byName:   make(map[string]*Series),
		times:    NewSeries("t", capacity),
	}
}

// Register adds a named probe and returns its series. A series
// registered after ticks have already run is backfilled with NaN at
// every retained tick instant, keeping all series row-aligned. Panics
// on a duplicate name.
func (c *Collector) Register(name string, fn func() float64) *Series {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %q", name))
	}
	var s *Series
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		s.reset(name)
	} else {
		s = NewSeries(name, c.capacity)
	}
	for i := 0; i < c.times.Len(); i++ {
		s.Append(c.times.At(i).T, math.NaN())
	}
	c.byName[name] = s
	c.probes = append(c.probes, probe{s: s, fn: fn})
	return s
}

// Reset discards every registered probe and all retained samples so a
// pooled worker can recycle the collector across consecutive runs. The
// probe closures are dropped (they close over the previous run's
// cluster), but their ring buffers move to a free list that Register
// consumes, so a reset-and-re-register cycle performs no large
// allocations. A reset collector is observationally identical to a
// fresh NewCollector with the same capacity.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.probes {
		c.free = append(c.free, p.s)
	}
	c.probes = c.probes[:0]
	clear(c.byName)
	c.times.reset("t")
	c.ticks = 0
}

// Tick samples every registered probe at virtual time now.
func (c *Collector) Tick(now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++
	c.times.Append(now, 0)
	for _, p := range c.probes {
		p.s.Append(now, p.fn())
	}
}

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
		T:      c.times.Last().T,
		Names:  make([]string, len(c.probes)),
		Values: make([]float64, len(c.probes)),
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
	first := c.probes[0].s
	for i := 0; i < first.Len(); i++ {
		row := make([]string, 0, len(cols))
		row = append(row, formatValue(first.At(i).T))
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
