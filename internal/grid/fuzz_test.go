package grid

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseGridSpec fuzzes the spec parser. Accepted specs must
// canonicalise to a fixed point (ParseSpec(Canonical()) reproduces
// Canonical() byte-for-byte), expand to duplicate-free cell keys, and
// derive stable repeat seeds; everything else must be rejected with an
// error, never a panic. The checked-in corpus under
// testdata/fuzz/FuzzParseGridSpec seeds both sides.
func FuzzParseGridSpec(f *testing.F) {
	f.Add(minimalSpec)
	f.Add(tinySpec)
	f.Add(`{}`)
	f.Add(`{"name": "x", "repeats": 1, "seeds": [0], "engines": ["yarn"], "scales": [{"name": "s", "workers": 1, "input_scale": 1e-3}], "workloads": [{"name": "w", "scenario": {"jobs": [{"bench": "grep", "input_gb": 0.5, "reduces": 1}]}}]}`)
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec([]byte(text))
		if err != nil {
			return
		}
		c1 := s.Canonical()
		s2, err := ParseSpec(c1)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ninput: %q\ncanonical: %s", err, text, c1)
		}
		if c2 := s2.Canonical(); !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalisation is not a fixed point for %q:\n%s\nvs\n%s", text, c1, c2)
		}
		cells := Expand(s)
		keys := make(map[string]bool, len(cells))
		for _, c := range cells {
			if strings.Count(c.Key, "/") != 3 {
				t.Fatalf("cell key %q does not split into 4 parts", c.Key)
			}
			if keys[c.Key] {
				t.Fatalf("duplicate cell key %q from a validated spec", c.Key)
			}
			keys[c.Key] = true
			if RepeatSeed(c.Key, 0) != RepeatSeed(c.Key, 0) {
				t.Fatalf("RepeatSeed unstable for %q", c.Key)
			}
		}
	})
}
