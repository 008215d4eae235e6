package chaos

import (
	"reflect"
	"strings"
	"testing"

	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
)

func TestParseScheduleBasics(t *testing.T) {
	text := `
# mixed schedule, one of each kind
crash tt3 @20
rejoin tt3 @60   # back with an empty disk
hbloss tt2 @10 for 6
slow node4 @15 for 30 cpu 0.5 disk 0.5
link node1 @25 for 10 egress 0.2 ingress 0
`
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: Crash, Target: 3, At: 20},
		{Kind: Rejoin, Target: 3, At: 60},
		{Kind: HBLoss, Target: 2, At: 10, Duration: 6},
		{Kind: Slow, Target: 4, At: 15, Duration: 30, CPUScale: 0.5, DiskScale: 0.5},
		{Kind: Link, Target: 1, At: 25, Duration: 10, EgressScale: 0.2, IngressScale: 0},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Fatalf("parsed %+v\nwant %+v", s.Faults, want)
	}
	if err := s.Validate(8); err != nil {
		t.Fatal(err)
	}
}

func TestParseScheduleSemicolons(t *testing.T) {
	s, err := ParseSchedule("crash tt0 @1; rejoin tt0 @2 # same line\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 2 || s.Faults[1].Kind != Rejoin {
		t.Fatalf("semicolon split failed: %+v", s.Faults)
	}
}

func TestParseScheduleSemicolonInsideComment(t *testing.T) {
	// A comment runs to end of line; a ';' inside it must not start a
	// new statement.
	s, err := ParseSchedule("crash tt0 @1 # dies; tasks requeue\nrejoin tt0 @2\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 2 {
		t.Fatalf("want 2 faults, got %+v", s.Faults)
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	texts := []string{
		"crash tt3 @20\nrejoin tt3 @60\n",
		"hbloss tt2 @10.25 for 6.125\n",
		"slow node4 @15 for 30 cpu 0.5 disk 0.9999\n",
		"link node1 @25 for 10 egress 0.2 ingress 0\n",
		// Awkward but valid floats must survive the trip too.
		"hbloss tt0 @1e-3 for 1e300\n",
	}
	for _, text := range texts {
		s, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		again, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", s.String(), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip of %q changed the schedule:\n%+v\n%+v", text, s, again)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	bad := []string{
		"explode tt1 @5",                             // unknown kind
		"crash tt1",                                  // missing time
		"crash tt1 @5 extra",                         // trailing token
		"crash node1 @5",                             // wrong target prefix
		"crash tt-1 @5",                              // negative target
		"crash tt+1 @5",                              // signed target
		"crash tt1 5",                                // missing @
		"crash tt1 @-5",                              // negative time
		"crash tt1 @NaN",                             // non-finite time
		"crash tt1 @Inf",                             // non-finite time
		"hbloss tt1 @5 for 0",                        // zero duration
		"hbloss tt1 @5 for -2",                       // negative duration
		"hbloss tt1 @5 during 2",                     // bad keyword
		"slow node1 @5 for 2 cpu 0 disk 0.5",         // cpu scale out of (0,1]
		"slow node1 @5 for 2 cpu 0.5 disk 1.5",       // disk scale out of (0,1]
		"slow node1 @5 for 2 disk 0.5 cpu 0.5",       // keywords out of order
		"link node1 @5 for 2 egress -0.1 ingress 1",  // egress below 0
		"link node1 @5 for 2 egress 1 ingress 1.001", // ingress above 1
		"crash tt99999999999999999999 @5",            // target overflows int
	}
	for _, text := range bad {
		if _, err := ParseSchedule(text); err == nil {
			t.Errorf("%q: accepted, want error", text)
		}
	}
}

func TestValidateCrashRejoinPairing(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"rejoin without crash", Schedule{Faults: []Fault{{Kind: Rejoin, Target: 1, At: 5}}}, false},
		{"double crash", Schedule{Faults: []Fault{
			{Kind: Crash, Target: 1, At: 5}, {Kind: Crash, Target: 1, At: 9}}}, false},
		{"crash rejoin crash", Schedule{Faults: []Fault{
			{Kind: Crash, Target: 1, At: 5}, {Kind: Rejoin, Target: 1, At: 9},
			{Kind: Crash, Target: 1, At: 12}}}, true},
		{"out of order text, valid in time order", Schedule{Faults: []Fault{
			{Kind: Rejoin, Target: 1, At: 9}, {Kind: Crash, Target: 1, At: 5}}}, true},
		{"target out of range", Schedule{Faults: []Fault{{Kind: Crash, Target: 8, At: 5}}}, false},
		{"crash without rejoin is fine", Schedule{Faults: []Fault{{Kind: Crash, Target: 1, At: 5}}}, true},
	}
	for _, tc := range cases {
		err := tc.s.Validate(8)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(sim.NewRand(uint64(seed)), 8, 40)
		b := Generate(sim.NewRand(uint64(seed)), 8, 40)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate not deterministic:\n%v\n%v", seed, a, b)
		}
		if err := a.Validate(8); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v\n%s", seed, err, a)
		}
		kinds := map[Kind]bool{}
		var crash, rejoin Fault
		for _, f := range a.Faults {
			kinds[f.Kind] = true
			switch f.Kind {
			case Crash:
				crash = f
			case Rejoin:
				rejoin = f
			}
		}
		for _, k := range []Kind{Crash, Rejoin, HBLoss, Slow, Link} {
			if !kinds[k] {
				t.Fatalf("seed %d: schedule misses kind %v:\n%s", seed, k, a)
			}
		}
		if rejoin.Target != crash.Target || rejoin.At <= crash.At {
			t.Fatalf("seed %d: bad crash/rejoin pair: %v then %v", seed, crash, rejoin)
		}
		// The schedule must survive its own text form.
		rt, err := ParseSchedule(a.String())
		if err != nil || !reflect.DeepEqual(a, rt) {
			t.Fatalf("seed %d: generated schedule does not round-trip (%v):\n%s", seed, err, a)
		}
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	c := mr.MustNewCluster(mr.DefaultConfig())
	s := Schedule{Faults: []Fault{{Kind: Crash, Target: 99, At: 5}}}
	if err := s.Apply(c); err == nil {
		t.Fatal("out-of-range target applied")
	}
}

func TestApplySchedulesFaults(t *testing.T) {
	cfg := mr.DefaultConfig()
	cfg.Workers = 8
	cfg.Net.Nodes = 8
	c := mr.MustNewCluster(cfg)
	log := c.EnableEventLog()
	s, err := ParseSchedule("crash tt3 @2\nrejoin tt3 @6\nslow node4 @1 for 2 cpu 0.5 disk 0.5\nlink node1 @1 for 2 egress 0.5 ingress 0.5\nhbloss tt2 @1 for 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(c); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Run(mr.JobSpec{Name: "g", Profile: puma.MustGet("grep"), InputMB: 512, Reduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Finished() {
		t.Fatal("job did not finish under the schedule")
	}
	for _, kind := range []mr.EventKind{
		mr.EvTrackerDown, mr.EvTrackerRejoin, mr.EvNodeDegraded, mr.EvNodeRestored,
		mr.EvLinkDegraded, mr.EvLinkRestored, mr.EvTrackerHBLost, mr.EvTrackerHBRestored,
	} {
		if len(log.Filter(kind)) != 1 {
			t.Fatalf("event %s: got %d, want 1\nlog: %+v", kind, len(log.Filter(kind)), log.Events())
		}
	}
	if n := len(log.Filter(mr.EvFaultError)); n != 0 {
		t.Fatalf("%d fault errors on a valid schedule", n)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Crash: "crash", Rejoin: "rejoin", HBLoss: "hbloss", Slow: "slow", Link: "link"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("unknown kind string")
	}
}
