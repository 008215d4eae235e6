// Package puma encodes the workloads of the Purdue MapReduce Benchmarks
// Suite (PUMA, Ahmad et al. 2012) as resource-shape profiles for the
// simulated runtime.
//
// The paper's figures depend on each benchmark's *shape* — how much CPU
// a map task burns per MB of input, how much intermediate data it emits
// (map-heavy vs reduce-heavy), and where its per-node thrashing point
// sits — not on the literal movie-ratings or Wikipedia bytes. A Profile
// captures exactly those shapes; sizes are chosen per experiment.
//
// Calibration notes (all rates are per 2.53 GHz core, CoreSpeed = 1):
//   - MapCPUPerMB 0.05 ⇒ a lone map task streams 20 MB/s, typical for a
//     Hadoop-1 JVM doing line splitting plus a cheap map function.
//   - MapPeakSlots is the per-node slot count where Fig. 1's curve
//     peaks; resource.PressureForPeak converts it to a pressure value.
//     Map-heavy scans peak late (7–8), sort-like jobs early (4–5),
//     matching the paper's observation.
//   - ShuffleRatio = MapOutputRatio × CombineRatio is the fraction of
//     input bytes that crosses the network; it drives the map-heavy /
//     reduce-heavy classification exactly as §II-A2 describes.
package puma

import (
	"fmt"
	"sort"
)

// Class is the paper's job taxonomy.
type Class int

const (
	// MapHeavy jobs shuffle a tiny fraction of their input (grep, the
	// histogram jobs): the shuffle trivially keeps up with the maps.
	MapHeavy Class = iota
	// Medium jobs shuffle a moderate fraction (inverted-index,
	// term-vector): balance depends on the slot configuration.
	Medium
	// ReduceHeavy jobs shuffle roughly their whole input (terasort,
	// ranked-inverted-index): the shuffle lags the maps.
	ReduceHeavy
)

func (c Class) String() string {
	switch c {
	case MapHeavy:
		return "map-heavy"
	case Medium:
		return "medium"
	case ReduceHeavy:
		return "reduce-heavy"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Profile is the resource shape of one benchmark.
type Profile struct {
	Name string

	// Map side.
	MapCPUPerMB    float64 // core-seconds per MB of map input (read+parse+map)
	MapOutputRatio float64 // map output bytes / input bytes, before combine
	CombineRatio   float64 // fraction of map output surviving the combiner (1 = none)
	SortCPUPerMB   float64 // core-seconds per MB of (pre-combine) map output for sort/spill
	MapFootprintMB float64 // resident memory per running map task (JVM heap + buffers)
	MapPeakSlots   float64 // per-node slot count at the thrashing point (Fig. 1 peak)

	// Reduce side.
	MergeCPUPerMB    float64 // core-seconds per MB of shuffled data for the reduce-side merge sort
	ReduceCPUPerMB   float64 // core-seconds per MB of shuffled data for the reduce function
	OutputRatio      float64 // final output bytes / shuffled bytes
	ReduceFootprint  float64 // resident MB per running reduce task
	FetcherWeight    float64 // thread weight one shuffling reducer adds to its node
	FetcherPressure  float64 // contention pressure one shuffling reducer adds
	ReducePeakFactor float64 // reserved for reduce-side thrashing studies (≥1)
}

// ShuffleRatio returns the fraction of input bytes crossing the network.
func (p Profile) ShuffleRatio() float64 { return p.MapOutputRatio * p.CombineRatio }

// Class classifies the profile with the thresholds the paper implies.
func (p Profile) Class() Class {
	switch r := p.ShuffleRatio(); {
	case r < 0.05:
		return MapHeavy
	case r < 0.55:
		return Medium
	default:
		return ReduceHeavy
	}
}

// Validate reports the first problem with the profile, or nil.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("puma: profile has empty name")
	case p.MapCPUPerMB <= 0:
		return fmt.Errorf("puma: %s: MapCPUPerMB must be positive", p.Name)
	case p.MapOutputRatio < 0:
		return fmt.Errorf("puma: %s: MapOutputRatio must be >= 0", p.Name)
	case p.CombineRatio <= 0 || p.CombineRatio > 1:
		return fmt.Errorf("puma: %s: CombineRatio must be in (0,1]", p.Name)
	case p.SortCPUPerMB < 0:
		return fmt.Errorf("puma: %s: SortCPUPerMB must be >= 0", p.Name)
	case p.MapFootprintMB <= 0:
		return fmt.Errorf("puma: %s: MapFootprintMB must be positive", p.Name)
	case p.MapPeakSlots < 1:
		return fmt.Errorf("puma: %s: MapPeakSlots must be >= 1", p.Name)
	case p.MergeCPUPerMB < 0 || p.ReduceCPUPerMB < 0:
		return fmt.Errorf("puma: %s: reduce CPU costs must be >= 0", p.Name)
	case p.OutputRatio < 0:
		return fmt.Errorf("puma: %s: OutputRatio must be >= 0", p.Name)
	case p.ReduceFootprint <= 0:
		return fmt.Errorf("puma: %s: ReduceFootprint must be positive", p.Name)
	case p.FetcherWeight < 0 || p.FetcherPressure < 0:
		return fmt.Errorf("puma: %s: fetcher weight/pressure must be >= 0", p.Name)
	}
	return nil
}

// profiles is the registry. Costs follow the calibration notes above.
var profiles = map[string]Profile{
	"grep": {
		Name:        "grep",
		MapCPUPerMB: 0.050, MapOutputRatio: 0.001, CombineRatio: 1, SortCPUPerMB: 0.01,
		MapFootprintMB: 700, MapPeakSlots: 9,
		MergeCPUPerMB: 0.02, ReduceCPUPerMB: 0.02, OutputRatio: 1,
		ReduceFootprint: 600, FetcherWeight: 0.3, FetcherPressure: 0.02, ReducePeakFactor: 1,
	},
	"histogram-ratings": {
		Name:        "histogram-ratings",
		MapCPUPerMB: 0.070, MapOutputRatio: 0.0008, CombineRatio: 1, SortCPUPerMB: 0.01,
		MapFootprintMB: 750, MapPeakSlots: 9,
		MergeCPUPerMB: 0.02, ReduceCPUPerMB: 0.02, OutputRatio: 1,
		ReduceFootprint: 600, FetcherWeight: 0.3, FetcherPressure: 0.02, ReducePeakFactor: 1,
	},
	"histogram-movies": {
		Name:        "histogram-movies",
		MapCPUPerMB: 0.075, MapOutputRatio: 0.0008, CombineRatio: 1, SortCPUPerMB: 0.01,
		MapFootprintMB: 750, MapPeakSlots: 9,
		MergeCPUPerMB: 0.02, ReduceCPUPerMB: 0.02, OutputRatio: 1,
		ReduceFootprint: 600, FetcherWeight: 0.3, FetcherPressure: 0.02, ReducePeakFactor: 1,
	},
	"classification": {
		Name:        "classification",
		MapCPUPerMB: 0.120, MapOutputRatio: 0.008, CombineRatio: 1, SortCPUPerMB: 0.015,
		MapFootprintMB: 900, MapPeakSlots: 8,
		MergeCPUPerMB: 0.02, ReduceCPUPerMB: 0.03, OutputRatio: 1,
		ReduceFootprint: 700, FetcherWeight: 0.3, FetcherPressure: 0.02, ReducePeakFactor: 1,
	},
	"kmeans": {
		Name:        "kmeans",
		MapCPUPerMB: 0.150, MapOutputRatio: 0.04, CombineRatio: 1, SortCPUPerMB: 0.02,
		MapFootprintMB: 1000, MapPeakSlots: 7,
		MergeCPUPerMB: 0.03, ReduceCPUPerMB: 0.50, OutputRatio: 0.5,
		ReduceFootprint: 800, FetcherWeight: 0.3, FetcherPressure: 0.02, ReducePeakFactor: 1,
	},
	"wordcount": {
		Name:        "wordcount",
		MapCPUPerMB: 0.090, MapOutputRatio: 1.0, CombineRatio: 0.04, SortCPUPerMB: 0.030,
		MapFootprintMB: 900, MapPeakSlots: 6,
		MergeCPUPerMB: 0.03, ReduceCPUPerMB: 0.05, OutputRatio: 0.8,
		ReduceFootprint: 700, FetcherWeight: 0.3, FetcherPressure: 0.02, ReducePeakFactor: 1,
	},
	"term-vector": {
		Name:        "term-vector",
		MapCPUPerMB: 0.100, MapOutputRatio: 0.60, CombineRatio: 0.25, SortCPUPerMB: 0.035,
		MapFootprintMB: 1000, MapPeakSlots: 6,
		MergeCPUPerMB: 0.04, ReduceCPUPerMB: 0.06, OutputRatio: 0.3,
		ReduceFootprint: 900, FetcherWeight: 0.35, FetcherPressure: 0.025, ReducePeakFactor: 1,
	},
	"inverted-index": {
		Name:        "inverted-index",
		MapCPUPerMB: 0.090, MapOutputRatio: 0.35, CombineRatio: 1, SortCPUPerMB: 0.035,
		MapFootprintMB: 1100, MapPeakSlots: 5.5,
		MergeCPUPerMB: 0.04, ReduceCPUPerMB: 0.08, OutputRatio: 0.6,
		ReduceFootprint: 1000, FetcherWeight: 0.4, FetcherPressure: 0.03, ReducePeakFactor: 1,
	},
	"sequence-count": {
		Name:        "sequence-count",
		MapCPUPerMB: 0.110, MapOutputRatio: 1.1, CombineRatio: 0.35, SortCPUPerMB: 0.04,
		MapFootprintMB: 1100, MapPeakSlots: 5.5,
		MergeCPUPerMB: 0.045, ReduceCPUPerMB: 0.08, OutputRatio: 0.6,
		ReduceFootprint: 1000, FetcherWeight: 0.4, FetcherPressure: 0.03, ReducePeakFactor: 1,
	},
	"self-join": {
		Name:        "self-join",
		MapCPUPerMB: 0.060, MapOutputRatio: 0.9, CombineRatio: 1, SortCPUPerMB: 0.04,
		MapFootprintMB: 1200, MapPeakSlots: 5,
		MergeCPUPerMB: 0.05, ReduceCPUPerMB: 0.07, OutputRatio: 0.9,
		ReduceFootprint: 1100, FetcherWeight: 0.45, FetcherPressure: 0.035, ReducePeakFactor: 1,
	},
	"adjacency-list": {
		Name:        "adjacency-list",
		MapCPUPerMB: 0.080, MapOutputRatio: 0.75, CombineRatio: 1, SortCPUPerMB: 0.045,
		MapFootprintMB: 1200, MapPeakSlots: 5,
		MergeCPUPerMB: 0.05, ReduceCPUPerMB: 0.09, OutputRatio: 0.8,
		ReduceFootprint: 1100, FetcherWeight: 0.45, FetcherPressure: 0.035, ReducePeakFactor: 1,
	},
	"ranked-inverted-index": {
		Name:        "ranked-inverted-index",
		MapCPUPerMB: 0.035, MapOutputRatio: 1.0, CombineRatio: 1, SortCPUPerMB: 0.030,
		MapFootprintMB: 1300, MapPeakSlots: 4.5,
		MergeCPUPerMB: 0.05, ReduceCPUPerMB: 0.09, OutputRatio: 0.9,
		ReduceFootprint: 1200, FetcherWeight: 0.5, FetcherPressure: 0.04, ReducePeakFactor: 1,
	},
	"terasort": {
		Name:        "terasort",
		MapCPUPerMB: 0.045, MapOutputRatio: 1.0, CombineRatio: 1, SortCPUPerMB: 0.05,
		MapFootprintMB: 1400, MapPeakSlots: 4.5,
		MergeCPUPerMB: 0.05, ReduceCPUPerMB: 0.05, OutputRatio: 1,
		ReduceFootprint: 1300, FetcherWeight: 0.5, FetcherPressure: 0.04, ReducePeakFactor: 1,
	},
}

// Get returns the named profile. Unknown names return an error listing
// the registry, since callers are usually translating a CLI flag.
func Get(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("puma: unknown benchmark %q (known: %v)", name, Names())
	}
	return p, nil
}

// MustGet is Get for static experiment tables; it panics on error.
func MustGet(name string) Profile {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the registered benchmark names in sorted order.
func Names() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every profile, sorted by name.
func All() []Profile {
	all := make([]Profile, 0, len(profiles))
	for _, n := range Names() {
		all = append(all, profiles[n])
	}
	return all
}
