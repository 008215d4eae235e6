package metrics

import (
	"encoding/csv"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestTableCSVRoundTrip writes cells containing every character class
// csvEscape must quote — commas, quotes, newlines — and reads them back
// with the standard CSV parser.
func TestTableCSVRoundTrip(t *testing.T) {
	tbl := NewTable("rt", "a", "b", "c")
	rows := [][]string{
		{"plain", "comma,cell", `quote"cell`},
		{"new\nline", `mixed",` + "\n" + `cell`, ""},
		{" leading space", "trailing space ", `""`},
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	recs, err := csv.NewReader(strings.NewReader(tbl.CSV())).ReadAll()
	if err != nil {
		t.Fatalf("standard CSV parser rejected our output: %v", err)
	}
	want := append([][]string{{"a", "b", "c"}}, rows...)
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("round trip mismatch:\ngot  %q\nwant %q", recs, want)
	}
}

func TestCSVEscape(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		"a,b":        `"a,b"`,
		`say "hi"`:   `"say ""hi"""`,
		"two\nlines": "\"two\nlines\"",
		"":           "",
	}
	for in, want := range cases {
		if got := csvEscape(in); got != want {
			t.Fatalf("csvEscape(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSparklineNonFinite pins the fix for int(NaN): non-finite samples
// must render at the bottom of the ramp instead of panicking or
// poisoning the scale.
func TestSparklineNonFinite(t *testing.T) {
	pts := []Point{
		{T: 0, V: math.NaN()},
		{T: 1, V: 1},
		{T: 2, V: math.Inf(1)},
		{T: 3, V: 2},
		{T: 4, V: math.Inf(-1)},
	}
	out := Sparkline(pts, 10)
	if utf8.RuneCountInString(out) != 10 {
		t.Fatalf("sparkline width = %d, want 10", utf8.RuneCountInString(out))
	}
	// All-non-finite input must also survive.
	out = Sparkline([]Point{{T: 0, V: math.NaN()}, {T: 1, V: math.NaN()}}, 4)
	if utf8.RuneCountInString(out) != 4 {
		t.Fatalf("all-NaN sparkline width = %d, want 4", utf8.RuneCountInString(out))
	}
}
