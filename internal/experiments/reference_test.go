package experiments

import "testing"

// TestFiguresReferenceDifferential pins the optimised paths on the
// paper figures: running the figure workloads with SMR_REFERENCE=1
// (mr's reference mode, read at cluster construction) must reproduce
// the default-mode tables byte for byte.
func TestFiguresReferenceDifferential(t *testing.T) {
	cfg := Config{Scale: 0.05, Workers: 8, Reduces: 8, Seed: 1}

	d3, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Setenv("SMR_REFERENCE", "1")
	r3, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := r3.Table().String(), d3.Table().String(); got != want {
		t.Fatalf("Figure 3 diverges between default and reference mode:\ndefault:\n%s\nreference:\n%s", want, got)
	}
	if got, want := r4.Table().String(), d4.Table().String(); got != want {
		t.Fatalf("Figure 4 diverges between default and reference mode:\ndefault:\n%s\nreference:\n%s", want, got)
	}
}
