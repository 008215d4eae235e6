package experiments

import (
	"testing"
)

func TestClusterConfigAppliesConfig(t *testing.T) {
	cfg := (Config{Workers: 7, Seed: 99}).Normalize().cluster()
	if cfg.Workers != 7 || cfg.Net.Nodes != 7 || cfg.Seed != 99 {
		t.Errorf("workers/nodes/seed = %d/%d/%d, want 7/7/99", cfg.Workers, cfg.Net.Nodes, cfg.Seed)
	}
	// Zero fields default like the figure harnesses'.
	d := Default()
	cfg = (Config{}).Normalize().cluster()
	if cfg.Workers != d.Workers || cfg.Seed != d.Seed {
		t.Errorf("zero config: workers/seed = %d/%d, want defaults %d/%d", cfg.Workers, cfg.Seed, d.Workers, d.Seed)
	}
}

func TestCellSpecInputArithmetic(t *testing.T) {
	spec := (Config{Scale: 0.5, Reduces: 8}).spec("grep", 4)
	if want := 4.0 * 1024 * 0.5; spec.InputMB != want {
		t.Errorf("InputMB = %v, want %v (input_gb × 1024 × scale)", spec.InputMB, want)
	}
	if spec.Reduces != 8 || spec.Name != "grep" || spec.Profile.Name == "" {
		t.Errorf("spec = %+v, want reduces 8, name grep, a resolved profile", spec)
	}
}
