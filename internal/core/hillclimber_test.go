package core

import (
	"strings"
	"testing"

	"smapreduce/internal/mr"
)

func runHC(t *testing.T, spec mr.JobSpec) (*mr.Job, []Decision) {
	t.Helper()
	res, err := Run(EngineHillClimber, Options{Cluster: smallCluster()}, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Jobs[0], res.Decisions
}

func TestHillClimberCompletesAndDecides(t *testing.T) {
	j, decisions := runHC(t, job("grep", 16*1024, 8))
	if !j.Finished() {
		t.Fatal("unfinished")
	}
	if len(decisions) == 0 {
		t.Fatal("hill climber never moved")
	}
	for _, d := range decisions {
		if !strings.HasPrefix(d.Reason, "hill-climb") {
			t.Fatalf("foreign decision: %+v", d)
		}
		if d.MapTarget < 1 {
			t.Fatalf("bad target: %+v", d)
		}
	}
}

func TestHillClimberMatchesManagerOnMapHeavy(t *testing.T) {
	// On a map-heavy job the barrier plays no role, so model-free hill
	// climbing should be competitive with the full slot manager.
	hcJob, _ := runHC(t, job("grep", 24*1024, 8))
	smrJob, _ := runManaged(t, SlotManagerConfig{}, job("grep", 24*1024, 8))
	if hcJob.ExecutionTime() > 1.25*smrJob.ExecutionTime() {
		t.Fatalf("hill climber (%v) far behind manager (%v) on map-heavy",
			hcJob.ExecutionTime(), smrJob.ExecutionTime())
	}
}

func TestHillClimberLosesOnReduceHeavy(t *testing.T) {
	// On a reduce-heavy job the climber chases map throughput the
	// shuffle cannot absorb; the balance-factor manager must not lose
	// to it, and typically wins on the post-barrier tail.
	hcJob, _ := runHC(t, job("terasort", 12*1024, 8))
	smrJob, _ := runManaged(t, SlotManagerConfig{}, job("terasort", 12*1024, 8))
	if smrJob.ExecutionTime() > 1.05*hcJob.ExecutionTime() {
		t.Fatalf("manager (%v) lost to hill climber (%v) on reduce-heavy",
			smrJob.ExecutionTime(), hcJob.ExecutionTime())
	}
}

func TestHillClimberEngineValidates(t *testing.T) {
	if _, err := Run(EngineHillClimber, Options{Cluster: smallCluster()}); err == nil {
		t.Fatal("no jobs accepted")
	}
	bad := smallCluster()
	bad.Workers = -1
	if _, err := Run(EngineHillClimber, Options{Cluster: bad}, job("grep", 1024, 4)); err == nil {
		t.Fatal("bad cluster accepted")
	}
	if _, err := ParseEngine(EngineHillClimber.String()); err == nil {
		t.Fatal("ParseEngine accepted the hill climber")
	}
}
