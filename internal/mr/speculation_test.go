package mr

import (
	"testing"

	"smapreduce/internal/puma"
	"smapreduce/internal/resource"
)

// stragglerConfig builds a cluster where two nodes run at half speed,
// creating genuine stragglers for speculation to chase.
func stragglerConfig(speculate bool) Config {
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.Net.Nodes = 8
	cfg.Speculation = speculate
	cfg.SpeculationMinRuntime = 3
	specs := make([]resource.Spec, cfg.Workers)
	for i := range specs {
		specs[i] = resource.DefaultSpec()
		if i >= 6 {
			specs[i].CoreSpeed = 0.4 // two crippled nodes
		}
	}
	cfg.NodeSpecs = specs
	return cfg
}

func TestSpeculationConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Speculation = true
	cfg.SpeculationMinRuntime = -1
	if cfg.Validate() == nil {
		t.Fatal("negative min runtime accepted")
	}
}

func TestSpeculationLaunchesAndWins(t *testing.T) {
	cfg := stragglerConfig(true)
	c := MustNewCluster(cfg)
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 8192, Reduces: 8}
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	if !j.Finished() {
		t.Fatal("unfinished")
	}
	if j.SpeculativeLaunched == 0 {
		t.Fatal("no speculative attempts on a cluster with 2.5× stragglers")
	}
	if j.SpeculativeWins == 0 {
		t.Fatal("no speculative attempt ever won against a half-speed node")
	}
	if j.SpeculativeWins > j.SpeculativeLaunched {
		t.Fatalf("wins %d > launched %d", j.SpeculativeWins, j.SpeculativeLaunched)
	}
	if j.MapsDone() != j.NumMaps() {
		t.Fatalf("logical map accounting broken: %d/%d", j.MapsDone(), j.NumMaps())
	}
}

func TestSpeculationHelpsOnStragglers(t *testing.T) {
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 8192, Reduces: 8}
	run := func(speculate bool) float64 {
		c := MustNewCluster(stragglerConfig(speculate))
		jobs, err := c.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0].FinishedAt
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Fatalf("speculation (%v) did not beat no-speculation (%v) with stragglers", with, without)
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	cfg := stragglerConfig(false)
	c := MustNewCluster(cfg)
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 4096, Reduces: 8}
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].SpeculativeLaunched != 0 {
		t.Fatal("speculation ran while disabled")
	}
}

func TestSpeculationNearNeutralOnHomogeneous(t *testing.T) {
	// Without stragglers the backup attempts rarely launch and never
	// dominate; end-to-end time must stay within a few percent.
	base := DefaultConfig()
	base.Workers = 8
	base.Net.Nodes = 8
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 8192, Reduces: 8}
	run := func(speculate bool) float64 {
		cfg := base
		cfg.Speculation = speculate
		cfg.SpeculationMinRuntime = 3
		c := MustNewCluster(cfg)
		jobs, err := c.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0].FinishedAt
	}
	without := run(false)
	with := run(true)
	if with > 1.05*without {
		t.Fatalf("speculation cost %v vs %v on a homogeneous cluster", with, without)
	}
}

func TestSpeculationSurvivesTrackerFailure(t *testing.T) {
	cfg := stragglerConfig(true)
	c := MustNewCluster(cfg)
	c.ScheduleFailure(6, 8) // kill a straggler node mid-run
	spec := JobSpec{Name: "ts", Profile: puma.MustGet("terasort"), InputMB: 4096, Reduces: 8}
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	if !j.Finished() || j.MapsDone() != j.NumMaps() {
		t.Fatalf("speculation + failure broke the run: %d/%d maps", j.MapsDone(), j.NumMaps())
	}
}

func TestSpeculationDeterministic(t *testing.T) {
	spec := JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 4096, Reduces: 8}
	run := func() float64 {
		c := MustNewCluster(stragglerConfig(true))
		jobs, err := c.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0].FinishedAt
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("speculative runs diverged: %v vs %v", a, b)
	}
}
