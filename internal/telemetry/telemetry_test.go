package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesRingEviction(t *testing.T) {
	col := NewCollector(4)
	k := 0.0
	s := col.Register("counter", func() float64 { k++; return k })
	for i := 0; i < 10; i++ {
		col.Tick(float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped())
	}
	pts := s.Points()
	for i, p := range pts {
		wantT := float64(6 + i)
		wantV := float64(7 + i)
		if p.T != wantT || p.V != wantV {
			t.Fatalf("point %d = (%v,%v), want (%v,%v)", i, p.T, p.V, wantT, wantV)
		}
	}
	if last := s.Last(); last.T != 9 || last.V != 10 {
		t.Fatalf("Last = %+v, want (9,10)", last)
	}
}

func TestSeriesAppendOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x", 8)
	s.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order append")
		}
	}()
	s.Append(4, 1)
}

// TestRegisterAfterTickBackfills pins the late-registration contract:
// a series registered mid-run gets NaN samples at every earlier tick
// instant, so it stays row-aligned with the rest.
func TestRegisterAfterTickBackfills(t *testing.T) {
	col := NewCollector(8)
	a := col.Register("a", func() float64 { return 1 })
	col.Tick(2)
	col.Tick(4)
	b := col.Register("b", func() float64 { return 9 })
	col.Tick(6)

	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("lens = %d/%d, want 3/3", a.Len(), b.Len())
	}
	for i := 0; i < 3; i++ {
		if at, bt := a.At(i).T, b.At(i).T; at != bt {
			t.Fatalf("row %d misaligned: t=%v vs %v", i, at, bt)
		}
	}
	if !math.IsNaN(b.At(0).V) || !math.IsNaN(b.At(1).V) {
		t.Fatalf("backfill not NaN: %v, %v", b.At(0).V, b.At(1).V)
	}
	if b.At(2).V != 9 {
		t.Fatalf("post-registration sample = %v, want 9", b.At(2).V)
	}

	// The wide table stays rectangular across the registration.
	tbl := col.Table()
	if len(tbl.Columns) != 3 || len(tbl.Rows) != 3 {
		t.Fatalf("table %dx%d, want 3x3", len(tbl.Columns), len(tbl.Rows))
	}
}

// TestRegisterBackfillAfterEviction registers late when the tick ring
// has already wrapped; the backfill must cover exactly the retained
// window.
func TestRegisterBackfillAfterEviction(t *testing.T) {
	col := NewCollector(4)
	a := col.Register("a", func() float64 { return 1 })
	for i := 0; i < 10; i++ {
		col.Tick(float64(i))
	}
	b := col.Register("b", func() float64 { return 2 })
	if b.Len() != a.Len() {
		t.Fatalf("late series len = %d, want %d", b.Len(), a.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if a.At(i).T != b.At(i).T {
			t.Fatalf("row %d misaligned after eviction", i)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	col := NewCollector(8)
	col.Register("a", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate series name")
		}
	}()
	col.Register("a", func() float64 { return 1 })
}

func TestCollectorTableAligned(t *testing.T) {
	col := NewCollector(16)
	col.Register("a", func() float64 { return 1 })
	col.Register("b", func() float64 { return 2 })
	for i := 0; i < 3; i++ {
		col.Tick(float64(i) * 2)
	}
	tbl := col.Table()
	wantCols := []string{"t", "a", "b"}
	if len(tbl.Columns) != len(wantCols) {
		t.Fatalf("columns = %v, want %v", tbl.Columns, wantCols)
	}
	for i, c := range wantCols {
		if tbl.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", tbl.Columns, wantCols)
		}
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	if tbl.Rows[1][0] != "2" || tbl.Rows[1][1] != "1" || tbl.Rows[1][2] != "2" {
		t.Fatalf("row 1 = %v", tbl.Rows[1])
	}
}

func TestWriteJSONLNonFiniteAsNull(t *testing.T) {
	col := NewCollector(8)
	vals := []float64{1.5, math.NaN(), math.Inf(1)}
	i := 0
	col.Register("f", func() float64 { v := vals[i]; i++; return v })
	for k := range vals {
		col.Tick(float64(k))
	}
	var b strings.Builder
	if err := col.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), b.String())
	}
	want := []string{
		`{"series":"f","t":0,"v":1.5}`,
		`{"series":"f","t":1,"v":null}`,
		`{"series":"f","t":2,"v":null}`,
	}
	for k, line := range lines {
		if line != want[k] {
			t.Fatalf("line %d = %s, want %s", k, line, want[k])
		}
	}
}

func TestWriteCSV(t *testing.T) {
	col := NewCollector(8)
	col.Register("v", func() float64 { return 7 })
	col.Tick(1)
	var b strings.Builder
	if err := col.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "t,v\n1,7\n"; got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestInvariantsDisabledIsNil(t *testing.T) {
	prev := SetInvariantsEnabled(false)
	defer SetInvariantsEnabled(prev)
	if v := NewInvariants(); v != nil {
		t.Fatal("NewInvariants should return nil when disabled")
	}
	// Every check must be a no-op on the nil receiver.
	var v *Invariants
	v.CheckSlotTargets(0, 99, 99, 1, 1)
	v.CheckMapLaunch(0, 99, 1)
	v.CheckReduceLaunch(0, 99, 1)
	v.CheckCounters(0, -1, -1, -1)
	v.CheckSample(-1)
	v.CheckEventAppend(-1, 99, 1)
}

func TestInvariantsEnabledInTests(t *testing.T) {
	// Test binaries end in .test, so detection should have fired.
	if !InvariantsEnabled() {
		t.Fatal("invariants should auto-enable inside test binaries")
	}
	if NewInvariants() == nil {
		t.Fatal("NewInvariants should be active inside test binaries")
	}
}

// expectPanic runs fn and fails the test unless it panics with a
// message containing want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want it to contain %q", r, want)
		}
	}()
	fn()
}

func TestInvariantViolationsPanic(t *testing.T) {
	prev := SetInvariantsEnabled(true)
	defer SetInvariantsEnabled(prev)

	expectPanic(t, "map target", func() {
		NewInvariants().CheckSlotTargets(3, 0, 2, 16, 6)
	})
	expectPanic(t, "map target", func() {
		NewInvariants().CheckSlotTargets(3, 17, 2, 16, 6)
	})
	expectPanic(t, "reduce target", func() {
		NewInvariants().CheckSlotTargets(3, 4, 7, 16, 6)
	})
	expectPanic(t, "beyond target", func() {
		NewInvariants().CheckMapLaunch(1, 5, 4)
	})
	expectPanic(t, "beyond target", func() {
		NewInvariants().CheckReduceLaunch(1, 3, 2)
	})
	expectPanic(t, "counters regressed", func() {
		v := NewInvariants()
		v.CheckCounters(0, 10, 10, 10)
		v.CheckCounters(0, 9, 10, 10)
	})
	expectPanic(t, "sample at", func() {
		v := NewInvariants()
		v.CheckSample(10)
		v.CheckSample(9)
	})
	expectPanic(t, "exceeds limit", func() {
		NewInvariants().CheckEventAppend(0, 5, 4)
	})
	expectPanic(t, "event at", func() {
		v := NewInvariants()
		v.CheckEventAppend(10, 1, 8)
		v.CheckEventAppend(9, 2, 8)
	})

	// The happy path must not panic.
	v := NewInvariants()
	v.CheckSlotTargets(0, 1, 1, 16, 6)
	v.CheckSlotTargets(0, 16, 6, 16, 6)
	v.CheckMapLaunch(0, 4, 4)
	v.CheckReduceLaunch(0, 2, 2)
	v.CheckCounters(0, 1, 2, 3)
	v.CheckCounters(0, 1, 2, 3)
	v.CheckCounters(0, 2, 3, 4)
	v.CheckSample(1)
	v.CheckSample(1)
	v.CheckSample(2)
	v.CheckEventAppend(1, 1, 8)
	v.CheckEventAppend(1, 2, 8)
}

// TestLatestRowAligned pins the live row the serve stream publishes:
// the last Tick's values, names in registration order, the tick
// ordinal restarting after Reset, and slices the caller owns.
func TestLatestRowAligned(t *testing.T) {
	col := NewCollector(16)
	if s := col.Latest(); s.Seq != 0 || len(s.Names) != 0 {
		t.Fatalf("empty collector: %+v", s)
	}
	v := 1.0
	col.Register("a", func() float64 { return v })
	col.Register("b", func() float64 { return 2 * v })
	col.Tick(1)
	first := col.Latest()
	v = 5
	col.Tick(2)
	second := col.Latest()
	if first.Seq != 1 || first.T != 1 || second.Seq != 2 || second.T != 2 {
		t.Errorf("seq/t wrong: %+v then %+v", first, second)
	}
	for i, s := range []TickSample{first, second} {
		if len(s.Names) != 2 || s.Names[0] != "a" || s.Names[1] != "b" || len(s.Values) != 2 {
			t.Fatalf("sample %d not row-aligned: %+v", i, s)
		}
	}
	if first.Values[0] != 1 || first.Values[1] != 2 {
		t.Errorf("first row values = %v, want [1 2]", first.Values)
	}
	if second.Values[0] != 5 || second.Values[1] != 10 {
		t.Errorf("second row values = %v, want [5 10]", second.Values)
	}
	col.Reset()
	col.Register("c", func() float64 { return 7 })
	col.Tick(3)
	if s := col.Latest(); s.Seq != 1 || s.T != 3 || len(s.Names) != 1 || s.Names[0] != "c" || s.Values[0] != 7 {
		t.Errorf("after Reset: %+v", s)
	}
	if first.Values[0] != 1 || first.Names[0] != "a" {
		t.Errorf("an earlier row changed under later ticks: %+v", first)
	}
}
