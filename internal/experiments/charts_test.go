package experiments

import (
	"strings"
	"testing"
)

// chartCfg is a fast configuration: chart rendering is pure formatting,
// so tiny inputs suffice.
func chartCfg() Config {
	return Config{Scale: 0.05, Workers: 8, Reduces: 8, Seed: 1}
}

func TestFig1Chart(t *testing.T) {
	out := run(t, fig1, chartCfg()).Chart()
	for _, bench := range []string{"terasort", "term-vector", "grep"} {
		if !strings.Contains(out, bench) {
			t.Fatalf("chart missing %s:\n%s", bench, out)
		}
	}
	if !strings.Contains(out, "peak at") {
		t.Fatalf("chart missing peak annotation:\n%s", out)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3 {
		t.Fatalf("chart lines = %d", len(lines))
	}
}

func TestFig4Chart(t *testing.T) {
	out := run(t, fig4, chartCfg()).Chart()
	if !strings.Contains(out, "SMapReduce") || !strings.Contains(out, "barrier at") {
		t.Fatalf("chart incomplete:\n%s", out)
	}
}

func TestMultiJobChart(t *testing.T) {
	out := run(t, fig8, chartCfg()).Chart()
	if !strings.Contains(out, "mean exec") || !strings.Contains(out, "█") {
		t.Fatalf("bars missing:\n%s", out)
	}
}
