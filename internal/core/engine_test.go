package core

import (
	"testing"

	"smapreduce/internal/policy"
)

func TestParseEngine(t *testing.T) {
	cases := map[string]Engine{
		"hadoopv1": EngineHadoopV1, "v1": EngineHadoopV1, "Hadoop": EngineHadoopV1,
		"yarn": EngineYARN, "YARN": EngineYARN,
		"smapreduce": EngineSMapReduce, "SMR": EngineSMapReduce,
	}
	for in, want := range cases {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseEngine("spark"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	// Every engine's String form parses back to it: grid specs and
	// scenarios store the canonical names.
	for _, e := range append(Engines(), CapacityEngines()...) {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
}

func TestParseEngineCapacityNames(t *testing.T) {
	cases := map[string]Engine{
		"fairshare": EngineFairShare, "fair-share": EngineFairShare,
		"capacityqueue": EngineCapacityQueue, "capqueue": EngineCapacityQueue,
		"GameTheoretic": EngineGameTheoretic, "game": EngineGameTheoretic,
	}
	for in, want := range cases {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", in, got, err)
		}
	}
}

func TestNewCapacityPolicy(t *testing.T) {
	ts := []policy.Tenant{{Name: "a", Weight: 3, Guarantee: 0.5}, {Name: "b", Weight: 1, Guarantee: 0.5}}
	for _, engine := range CapacityEngines() {
		p, err := NewCapacityPolicy(engine, ts)
		if err != nil || p == nil {
			t.Fatalf("NewCapacityPolicy(%v) = %v, %v", engine, p, err)
		}
	}
	for _, engine := range Engines() {
		if p, err := NewCapacityPolicy(engine, ts); err != nil || p != nil {
			t.Fatalf("slot engine %v should get no capacity policy, got %v, %v", engine, p, err)
		}
	}
	if _, err := NewCapacityPolicy(EngineFairShare, []policy.Tenant{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate tenants accepted")
	}
}
