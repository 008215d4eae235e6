package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAddAndLast(t *testing.T) {
	s := NewSeries("x")
	if s.Len() != 0 || s.Last() != (Point{}) {
		t.Fatal("fresh series not empty")
	}
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 || s.Last() != (Point{T: 2, V: 20}) {
		t.Fatalf("Last = %+v", s.Last())
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	s.Add(4, 1)
}

func TestSeriesEqualTimeAllowed(t *testing.T) {
	s := NewSeries("x")
	s.Add(5, 1)
	s.Add(5, 2) // same instant, later sample wins for At()
	if s.At(5) != 2 {
		t.Fatalf("At(5) = %v, want 2", s.At(5))
	}
}

func TestSeriesAtStepInterpolation(t *testing.T) {
	s := NewSeries("x")
	s.Add(1, 10)
	s.Add(3, 30)
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 10}, {2, 10}, {3, 30}, {99, 30},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSeriesMaxV(t *testing.T) {
	s := NewSeries("x")
	if s.MaxV() != 0 {
		t.Fatal("empty MaxV != 0")
	}
	s.Add(1, -5)
	s.Add(2, -1)
	if s.MaxV() != -1 {
		t.Fatalf("MaxV = %v, want -1", s.MaxV())
	}
}

func TestCrossingTime(t *testing.T) {
	s := NewSeries("x")
	s.Add(1, 10)
	s.Add(2, 50)
	s.Add(3, 100)
	if got := s.CrossingTime(50); got != 2 {
		t.Fatalf("CrossingTime(50) = %v, want 2", got)
	}
	if got := s.CrossingTime(101); !math.IsNaN(got) {
		t.Fatalf("CrossingTime(101) = %v, want NaN", got)
	}
}

func TestProgressSample(t *testing.T) {
	p := NewProgress("job")
	p.Sample(1, 10, 0)
	p.Sample(2, 50, 20)
	if p.Total.Last().V != 70 {
		t.Fatalf("total = %v, want 70", p.Total.Last().V)
	}
	if p.Map.Last().V != 50 || p.Reduce.Last().V != 20 {
		t.Fatal("map/reduce curves wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddRowf("c", 7)
	out := tb.String()
	if !strings.Contains(out, "## Fig X") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.5") || !strings.Contains(out, "7") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + separator + 3 rows
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity did not panic")
		}
	}()
	tb.AddRow("only-one")
}

// Property: At() is consistent with the latest-sample-at-or-before rule
// for any monotone sample set.
func TestQuickAtConsistency(t *testing.T) {
	f := func(deltas []uint8, probe uint16) bool {
		s := NewSeries("q")
		t0 := 0.0
		for i, d := range deltas {
			t0 += float64(d)
			s.Add(t0, float64(i))
		}
		p := float64(probe)
		got := s.At(p)
		want := 0.0
		for i, pt := range s.Points() {
			if pt.T <= p {
				want = float64(i)
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow(`quo"te`, "2,5")
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "name,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != `"quo""te","2,5"` {
		t.Fatalf("escaped row = %q", lines[2])
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("thr")
	s.Add(0, 1.5)
	s.Add(2, 3)
	csv := s.CSV()
	if !strings.Contains(csv, "t,thr\n0,1.5\n2,3\n") {
		t.Fatalf("series csv = %q", csv)
	}
}

func TestBars(t *testing.T) {
	out := Bars("title", []string{"a", "bb"}, []float64{10, 5}, 10)
	if !strings.Contains(out, "title") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The larger value fills the full width, the half value about half.
	if strings.Count(lines[1], "█") != 10 {
		t.Fatalf("max bar = %q", lines[1])
	}
	if c := strings.Count(lines[2], "█"); c < 4 || c > 6 {
		t.Fatalf("half bar = %q (%d blocks)", lines[2], c)
	}
	// Zero values render empty but aligned.
	z := Bars("", []string{"z"}, []float64{0}, 10)
	if strings.Count(z, "█") != 0 {
		t.Fatal("zero value drew a bar")
	}
}

func TestBarsArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Bars did not panic")
		}
	}()
	Bars("t", []string{"a"}, []float64{1, 2}, 10)
}

func TestSparkline(t *testing.T) {
	var pts []Point
	for i := 0; i <= 10; i++ {
		pts = append(pts, Point{T: float64(i), V: float64(i)})
	}
	sp := Sparkline(pts, 8)
	if len([]rune(sp)) != 8 {
		t.Fatalf("sparkline width = %d", len([]rune(sp)))
	}
	runes := []rune(sp)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("sparkline shape = %q", sp)
	}
	if Sparkline(nil, 8) != "" {
		t.Fatal("empty input sparkline not empty")
	}
	flat := Sparkline([]Point{{0, 5}, {1, 5}}, 4)
	if flat != "▁▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
}
