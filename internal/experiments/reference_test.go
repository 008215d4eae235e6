package experiments

import "testing"

// TestFiguresReferenceDifferential pins the optimised paths on every
// registered experiment: running it with SMR_REFERENCE=1 (mr's
// reference mode, read at cluster construction) must reproduce the
// default-mode table and chart byte for byte.
func TestFiguresReferenceDifferential(t *testing.T) {
	cfg := Config{Scale: 0.05, Workers: 8, Reduces: 8, Seed: 1}
	render := func(e *Experiment) string {
		r := run(t, e, cfg)
		return r.Table().String() + r.Chart()
	}
	want := make([]string, len(Registry))
	for i, e := range Registry {
		want[i] = render(e)
	}

	t.Setenv("SMR_REFERENCE", "1")
	for i, e := range Registry {
		if got := render(e); got != want[i] {
			t.Errorf("%s diverges between default and reference mode:\ndefault:\n%s\nreference:\n%s", e.Slug, want[i], got)
		}
	}
}
