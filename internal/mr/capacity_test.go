package mr

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"smapreduce/internal/puma"
)

// stubPolicy is a test capacity policy driven by a closure.
type stubPolicy struct {
	interval float64
	alloc    func(now float64, total int, tenants []TenantSnapshot) []TenantAllocation
}

func (p *stubPolicy) Name() string      { return "stub" }
func (p *stubPolicy) Interval() float64 { return p.interval }
func (p *stubPolicy) Allocate(now float64, total int, tenants []TenantSnapshot, dst []TenantAllocation) []TenantAllocation {
	return append(dst, p.alloc(now, total, tenants)...)
}

// specList replays a fixed spec list as an ArrivalSource.
type specList struct {
	specs []JobSpec
	pos   int
}

func (s *specList) Next() (JobSpec, float64, bool) {
	if s.pos >= len(s.specs) {
		return JobSpec{}, 0, false
	}
	spec := s.specs[s.pos]
	s.pos++
	return spec, spec.SubmitAt, true
}

func tenantJob(name, tenant string, inputMB float64) JobSpec {
	return JobSpec{Name: name, Profile: puma.MustGet("grep"), InputMB: inputMB, Reduces: 4, Tenant: tenant}
}

func TestTenantDefaultNormalization(t *testing.T) {
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(0)
	jobs, err := c.Run(grepJob(512))
	if err != nil {
		t.Fatal(err)
	}
	if got := jobs[0].Tenant(); got != "default" {
		t.Errorf("empty tenant normalized to %q, want default", got)
	}
	if names := c.TenantNames(); len(names) != 1 || names[0] != "default" {
		t.Errorf("TenantNames = %v, want [default]", names)
	}
	// Backward compatibility: a tenant-less submission keeps the legacy
	// event detail, with no tenant mention.
	subs := log.Filter(EvJobSubmitted)
	if len(subs) != 1 || strings.Contains(subs[0].Detail, "tenant") {
		t.Errorf("legacy submit detail changed: %+v", subs)
	}
}

func TestSetCapacityPolicyValidation(t *testing.T) {
	c := MustNewCluster(smallConfig())
	bad := &stubPolicy{interval: 0}
	if err := c.SetCapacityPolicy(bad); err == nil {
		t.Fatal("zero-interval policy accepted")
	}
}

func TestCapacityCapsEnforced(t *testing.T) {
	// Cap tenant "a" at 2 concurrent attempts, leave "b" uncapped, and
	// replay the event log checking that no task for "a" ever starts
	// while 2 attempts are already running after the cap lands.
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(0)
	err := c.SetCapacityPolicy(&stubPolicy{
		interval: 1,
		alloc: func(now float64, total int, tenants []TenantSnapshot) []TenantAllocation {
			out := make([]TenantAllocation, len(tenants))
			for i, ts := range tenants {
				cap := -1
				if ts.Tenant == "a" {
					cap = 2
				}
				out[i] = TenantAllocation{Tenant: ts.Tenant, TaskCap: cap, Reason: "stub"}
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Run(
		tenantJob("a1", "a", 2048),
		tenantJob("b1", "b", 2048),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.Finished() {
			t.Fatalf("job %s unfinished under caps", j.Spec.Name)
		}
	}

	tenantOf := map[string]string{"a1": "a", "b1": "b"}
	running := map[string]int{}
	runningMaps := map[string]int{}
	caps := map[string]int{}
	capViolations, launchesWhileCapped := 0, 0
	for _, e := range log.Events() {
		isMap := strings.HasPrefix(e.Task, "map/")
		switch e.Kind {
		case EvTenantCap:
			var name string
			var cap int
			if strings.HasSuffix(e.Detail, "=uncapped") {
				name = strings.TrimSuffix(e.Detail, "=uncapped")
				delete(caps, name)
				continue
			}
			val := ""
			name, val, _ = strings.Cut(e.Detail, "=")
			var err error
			if cap, err = strconv.Atoi(val); err != nil {
				t.Fatalf("unparseable tenant-cap detail %q", e.Detail)
			}
			caps[name] = cap
		case EvTaskStarted:
			tn := tenantOf[e.Job]
			if cap, ok := caps[tn]; ok {
				launchesWhileCapped++
				// The only sanctioned launch at or above the cap is the
				// deadlock-breaking map overshoot: one map while the
				// tenant runs no other map attempt.
				overshoot := isMap && running[tn] == cap && runningMaps[tn] == 0
				if running[tn] >= cap && !overshoot {
					capViolations++
				}
			}
			running[tn]++
			if isMap {
				runningMaps[tn]++
			}
		case EvTaskDone:
			running[tenantOf[e.Job]]--
			if isMap {
				runningMaps[tenantOf[e.Job]]--
			}
		}
	}
	if capViolations > 0 {
		t.Errorf("%d launches exceeded the tenant cap", capViolations)
	}
	if launchesWhileCapped == 0 {
		t.Error("cap never observed during a launch — test scenario too weak")
	}
	// All attempt counters must return to zero.
	for _, name := range c.TenantNames() {
		if n := c.TenantRunning(name); n != 0 {
			t.Errorf("tenant %s ends with %d running attempts", name, n)
		}
	}
	// The decision log records every tick with snapshots in name order.
	decs := c.CapacityDecisions()
	if len(decs) == 0 {
		t.Fatal("no capacity decisions logged")
	}
	for _, d := range decs {
		for i := 1; i < len(d.Tenants); i++ {
			if d.Tenants[i-1].Tenant >= d.Tenants[i].Tenant {
				t.Fatalf("decision snapshots out of order: %+v", d.Tenants)
			}
		}
		if d.Total <= 0 {
			t.Fatalf("decision with non-positive total: %+v", d)
		}
	}
}

func TestCapacityCapDeadlockBroken(t *testing.T) {
	// Regression: a cap smaller than a job's reduce count used to
	// deadlock the tenant against its own cap — reduces launched at the
	// slow-start threshold filled every cap unit, then sat at the
	// shuffle barrier waiting for maps the full cap refused to launch,
	// and the capacity tick kept the clock alive forever. The reserve
	// rule (reduces may not take the last unit while maps are pending)
	// plus the single-map overshoot must let this run terminate.
	c := MustNewCluster(smallConfig())
	err := c.SetCapacityPolicy(&stubPolicy{
		interval: 1,
		alloc: func(now float64, total int, tenants []TenantSnapshot) []TenantAllocation {
			out := make([]TenantAllocation, len(tenants))
			for i, ts := range tenants {
				out[i] = TenantAllocation{Tenant: ts.Tenant, TaskCap: 3, Reason: "stub"}
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := tenantJob("a1", "a", 2048)
	spec.Reduces = 8 // more reduces than the cap of 3
	jobs, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job deadlocked under a cap smaller than its reduce count")
	}
	if n := c.TenantRunning("a"); n != 0 {
		t.Fatalf("tenant ends with %d running attempts", n)
	}
}

func TestCapacityEventsOnlyOnChange(t *testing.T) {
	// A constant allocation must emit exactly one cap event per capped
	// tenant, then one uncap event when the policy lifts it.
	c := MustNewCluster(smallConfig())
	log := c.EnableEventLog(0)
	calls := 0
	err := c.SetCapacityPolicy(&stubPolicy{
		interval: 2,
		alloc: func(now float64, total int, tenants []TenantSnapshot) []TenantAllocation {
			calls++
			cap := 3
			if calls > 3 {
				cap = -1 // lift after the third tick
			}
			out := make([]TenantAllocation, len(tenants))
			for i, ts := range tenants {
				out[i] = TenantAllocation{Tenant: ts.Tenant, TaskCap: cap, Reason: "stub"}
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(tenantJob("a1", "a", 2048)); err != nil {
		t.Fatal(err)
	}
	if calls < 4 {
		t.Fatalf("only %d capacity ticks fired", calls)
	}
	evs := log.Filter(EvTenantCap)
	if len(evs) != 2 {
		t.Fatalf("EvTenantCap events = %+v, want exactly cap+uncap", evs)
	}
	if evs[0].Detail != "a=3" || evs[1].Detail != "a=uncapped" {
		t.Fatalf("cap event details = %q, %q", evs[0].Detail, evs[1].Detail)
	}
}

func TestRunArrivalsOpenStream(t *testing.T) {
	// Jobs arriving mid-run — including one arriving after earlier jobs
	// may already have finished — must all be admitted and finish.
	c := MustNewCluster(smallConfig())
	src := &specList{specs: []JobSpec{
		tenantJob("a1", "a", 512),
		withSubmitAt(tenantJob("b1", "b", 512), 40),
		withSubmitAt(tenantJob("a2", "a", 256), 400),
	}}
	jobs, err := c.RunArrivals(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("admitted %d jobs, want 3", len(jobs))
	}
	for _, j := range jobs {
		if !j.Finished() {
			t.Fatalf("job %s unfinished", j.Spec.Name)
		}
	}
	if jobs[2].Submitted < 400 {
		t.Errorf("late arrival submitted at %v, want >= 400", jobs[2].Submitted)
	}
	if names := c.TenantNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("TenantNames = %v", names)
	}
	// The cluster is single-shot.
	if _, err := c.RunArrivals(&specList{specs: []JobSpec{grepJob(64)}}); err == nil {
		t.Error("second RunArrivals accepted")
	}
	if _, err := c.Run(grepJob(64)); err == nil {
		t.Error("Run after RunArrivals accepted")
	}
	if _, err := c.Submit(grepJob(64)); err == nil {
		t.Error("Submit after shutdown accepted")
	}
}

func withSubmitAt(s JobSpec, at float64) JobSpec {
	s.SubmitAt = at
	return s
}

func TestRunArrivalsEmptySource(t *testing.T) {
	c := MustNewCluster(smallConfig())
	if _, err := c.RunArrivals(&specList{}); err == nil {
		t.Fatal("empty arrival source accepted")
	}
}

func TestRunArrivalsInvalidSpecPoisonsRun(t *testing.T) {
	// A malformed arrival reports an error but first drains the jobs
	// already admitted.
	c := MustNewCluster(smallConfig())
	src := &specList{specs: []JobSpec{
		tenantJob("ok", "a", 512),
		withSubmitAt(JobSpec{Name: "bad", Profile: puma.MustGet("grep"), InputMB: -1, Reduces: 1}, 10),
	}}
	jobs, err := c.RunArrivals(src)
	if err == nil {
		t.Fatal("invalid arrival did not error")
	}
	if len(jobs) != 1 || !jobs[0].Finished() {
		t.Fatalf("admitted jobs did not drain: %v", jobs)
	}
}

func TestRunArrivalsDeterministicEventLog(t *testing.T) {
	// Same cluster seed, same arrival list: the event logs must be
	// byte-identical, with a capacity policy in the loop.
	run := func() []byte {
		c := MustNewCluster(smallConfig())
		log := c.EnableEventLog(0)
		err := c.SetCapacityPolicy(&stubPolicy{
			interval: 3,
			alloc: func(now float64, total int, tenants []TenantSnapshot) []TenantAllocation {
				out := make([]TenantAllocation, len(tenants))
				for i, ts := range tenants {
					out[i] = TenantAllocation{Tenant: ts.Tenant, TaskCap: total / (len(tenants) + 1), Reason: "stub"}
				}
				return out
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := &specList{specs: []JobSpec{
			tenantJob("a1", "a", 1024),
			withSubmitAt(tenantJob("b1", "b", 1024), 5),
			withSubmitAt(tenantJob("a2", "a", 512), 30),
		}}
		if _, err := c.RunArrivals(src); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run()
	for i := 0; i < 3; i++ {
		if got := run(); !bytes.Equal(got, ref) {
			t.Fatalf("run %d diverged from reference log", i)
		}
	}
}

func TestSLOMissed(t *testing.T) {
	spec := grepJob(512)
	spec.SLOSeconds = 0.001 // impossible
	j := runOne(t, smallConfig(), spec)
	if !j.SLOMissed() {
		t.Error("impossible SLO not missed")
	}
	spec.SLOSeconds = 1e9
	j = runOne(t, smallConfig(), spec)
	if j.SLOMissed() {
		t.Error("unbounded SLO reported missed")
	}
	spec.SLOSeconds = 0
	j = runOne(t, smallConfig(), spec)
	if j.SLOMissed() {
		t.Error("job without SLO reported missed")
	}
}
