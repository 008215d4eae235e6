// Package arrival generates open job streams for the multi-tenant
// runtime: seeded Poisson arrivals with diurnal rate modulation, mixed
// PUMA tenant profiles, long-running service streams alongside batch,
// and trace replay. Sources implement mr.ArrivalSource and draw every
// random bit from seeded splitmix streams — never the wall clock or
// the global RNG — so open-arrival runs stay byte-identical across
// fleet worker counts.
package arrival

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/sim"
)

// RNGFork is the stream fork reserved for arrival generation. The
// cluster runtime owns fork 0 (task noise), the DFS fork 1, fleet spec
// generation fork 2; arrivals draw from fork 3 of the same cluster
// seed so attaching an arrival source never shifts existing streams.
const RNGFork = 3

// RNG derives the dedicated arrival stream for a cluster seed.
func RNG(clusterSeed uint64) *sim.Rand {
	return sim.NewRand(clusterSeed).Fork(RNGFork)
}

// Tenant describes one tenant's submission behaviour.
type Tenant struct {
	// Name is the tenant identity carried on every generated JobSpec.
	Name string `json:"name"`
	// Benchmarks are PUMA profile names drawn uniformly per job.
	Benchmarks []string `json:"benchmarks"`
	// MeanInterarrival is the mean gap between submissions in virtual
	// seconds — the inverse Poisson rate. For Service tenants it is the
	// exact, deterministic period.
	MeanInterarrival float64 `json:"mean_interarrival"`
	// InputMBMin/InputMBMax bound the per-job input size, drawn
	// uniformly. Equal values pin the size.
	InputMBMin float64 `json:"input_mb_min"`
	InputMBMax float64 `json:"input_mb_max"`
	// Reduces is the reduce task count per job.
	Reduces int `json:"reduces"`
	// SLOSeconds is the per-job latency objective (0 = none).
	SLOSeconds float64 `json:"slo_seconds"`
	// Priority is carried onto the specs (Priority scheduler only).
	Priority int `json:"priority,omitempty"`
	// MaxJobs caps this tenant's submissions (0 = no per-tenant cap).
	MaxJobs int `json:"max_jobs,omitempty"`
	// Service marks a long-running service stream: submissions at an
	// exact MeanInterarrival cadence, exempt from diurnal modulation —
	// the always-on ingest/compaction load batch tenants compete with.
	Service bool `json:"service,omitempty"`
}

// Config describes one arrival process.
type Config struct {
	// Horizon stops generation at this virtual time (0 = unbounded; then
	// MaxJobs must bound the stream).
	Horizon float64 `json:"horizon"`
	// MaxJobs caps total submissions across tenants (0 = unbounded).
	MaxJobs int `json:"max_jobs,omitempty"`
	// LoadFactor scales every non-service tenant's arrival rate — the
	// offered-load knob experiments sweep. 0 means 1.
	LoadFactor float64 `json:"load_factor,omitempty"`
	// Diurnal is the depth of sinusoidal rate modulation in [0,1):
	// rate(t) = base·(1 + Diurnal·sin(2πt/DiurnalPeriod)). 0 disables.
	Diurnal float64 `json:"diurnal,omitempty"`
	// DiurnalPeriod is the modulation period in virtual seconds
	// (default 86400 when Diurnal > 0).
	DiurnalPeriod float64 `json:"diurnal_period,omitempty"`
	// Tenants lists the competing tenants.
	Tenants []Tenant `json:"tenants"`
}

// Validate reports the first problem with the config, or nil. Every
// float must be finite: NaN and infinities are rejected, never
// compared through.
func (c Config) Validate() error {
	switch {
	case !nonNegative(c.Horizon):
		return fmt.Errorf("arrival: Horizon = %v, must be >= 0 and finite", c.Horizon)
	case c.MaxJobs < 0:
		return fmt.Errorf("arrival: MaxJobs = %d, must be >= 0", c.MaxJobs)
	case c.Horizon == 0 && c.MaxJobs == 0:
		return fmt.Errorf("arrival: unbounded stream: set Horizon or MaxJobs")
	case !nonNegative(c.LoadFactor):
		return fmt.Errorf("arrival: LoadFactor = %v, must be >= 0 and finite", c.LoadFactor)
	case !(c.Diurnal >= 0 && c.Diurnal < 1):
		return fmt.Errorf("arrival: Diurnal = %v, must be in [0,1)", c.Diurnal)
	case !nonNegative(c.DiurnalPeriod):
		return fmt.Errorf("arrival: DiurnalPeriod = %v, must be >= 0 and finite", c.DiurnalPeriod)
	case c.Diurnal > 0 && c.DiurnalPeriod == 0 && defaultDiurnalPeriod <= 0:
		return fmt.Errorf("arrival: unreachable")
	case len(c.Tenants) == 0:
		return fmt.Errorf("arrival: no tenants")
	}
	seen := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		switch {
		case t.Name == "":
			return fmt.Errorf("arrival: tenant %d has empty name", i)
		case seen[t.Name]:
			return fmt.Errorf("arrival: duplicate tenant %q", t.Name)
		case !(t.MeanInterarrival > 0) || math.IsInf(t.MeanInterarrival, 0):
			return fmt.Errorf("arrival: tenant %s: MeanInterarrival = %v, must be positive and finite", t.Name, t.MeanInterarrival)
		case len(t.Benchmarks) == 0:
			return fmt.Errorf("arrival: tenant %s: no benchmarks", t.Name)
		case !(t.InputMBMin > 0 && t.InputMBMax >= t.InputMBMin) || math.IsInf(t.InputMBMax, 0):
			return fmt.Errorf("arrival: tenant %s: input range [%v,%v] invalid: need 0 < min <= max, finite", t.Name, t.InputMBMin, t.InputMBMax)
		case t.Reduces <= 0:
			return fmt.Errorf("arrival: tenant %s: Reduces = %d, must be positive", t.Name, t.Reduces)
		case !nonNegative(t.SLOSeconds):
			return fmt.Errorf("arrival: tenant %s: SLOSeconds = %v, must be >= 0 and finite", t.Name, t.SLOSeconds)
		case t.MaxJobs < 0:
			return fmt.Errorf("arrival: tenant %s: MaxJobs = %d, must be >= 0", t.Name, t.MaxJobs)
		}
		seen[t.Name] = true
		for _, b := range t.Benchmarks {
			if _, err := puma.Get(b); err != nil {
				return fmt.Errorf("arrival: tenant %s: %w", t.Name, err)
			}
		}
	}
	return nil
}

const defaultDiurnalPeriod = 86400.0

// nonNegative reports whether v is a finite number >= 0.
func nonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }

// ParseConfig decodes a JSON arrival config and validates it. Unknown
// fields are rejected so typos fail loudly.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("arrival: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// tenantStream generates one tenant's submissions lazily.
type tenantStream struct {
	cfg      Tenant
	index    int
	rng      *sim.Rand
	profiles []puma.Profile
	rate     float64 // effective base arrival rate (jobs/s)
	seq      int     // jobs emitted
	nextAt   float64 // staged next arrival time
	done     bool
}

// Source is a deterministic multi-tenant arrival process implementing
// mr.ArrivalSource: per-tenant Poisson (or exact service cadence)
// streams with optional diurnal thinning, merged in time order with
// tenant-index tie-breaks.
type Source struct {
	cfg     Config
	streams []*tenantStream
	emitted int
}

// New builds a source. rng should be the dedicated arrival stream —
// RNG(clusterSeed) — or any seeded fork reserved for arrivals; each
// tenant forks its own child so tenant streams are independent.
func New(cfg Config, rng *sim.Rand) (*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LoadFactor == 0 {
		cfg.LoadFactor = 1
	}
	if cfg.Diurnal > 0 && cfg.DiurnalPeriod == 0 {
		cfg.DiurnalPeriod = defaultDiurnalPeriod
	}
	s := &Source{cfg: cfg}
	for i, t := range cfg.Tenants {
		ts := &tenantStream{
			cfg:   t,
			index: i,
			rng:   rng.Fork(uint64(i)),
			rate:  1 / t.MeanInterarrival,
		}
		if !t.Service {
			ts.rate *= cfg.LoadFactor
		}
		for _, b := range t.Benchmarks {
			p, err := puma.Get(b)
			if err != nil {
				return nil, err // unreachable after Validate
			}
			ts.profiles = append(ts.profiles, p)
		}
		ts.advance(&cfg, 0)
		s.streams = append(s.streams, ts)
	}
	return s, nil
}

// advance stages the stream's next arrival time after "from", or marks
// the stream done when it crosses the horizon or its job cap.
func (ts *tenantStream) advance(cfg *Config, from float64) {
	if ts.cfg.MaxJobs > 0 && ts.seq >= ts.cfg.MaxJobs {
		ts.done = true
		return
	}
	t := from
	if ts.cfg.Service {
		// Exact cadence, first submission one period in.
		t += ts.cfg.MeanInterarrival
	} else {
		// Poisson via exponential gaps; diurnal modulation by
		// Lewis-Shedler thinning against the peak rate.
		peak := ts.rate * (1 + cfg.Diurnal)
		for {
			u := ts.rng.Float64()
			t += -math.Log(1-u) / peak
			if cfg.Diurnal == 0 {
				break
			}
			inst := ts.rate * (1 + cfg.Diurnal*math.Sin(2*math.Pi*t/cfg.DiurnalPeriod))
			if ts.rng.Float64()*peak <= inst {
				break
			}
			if cfg.Horizon > 0 && t > cfg.Horizon {
				break // past the horizon; the check below retires the stream
			}
		}
	}
	if cfg.Horizon > 0 && t > cfg.Horizon {
		ts.done = true
		return
	}
	ts.nextAt = t
}

// spec materialises the staged arrival as a JobSpec.
func (ts *tenantStream) spec() mr.JobSpec {
	p := ts.profiles[0]
	if len(ts.profiles) > 1 {
		p = ts.profiles[ts.rng.Intn(len(ts.profiles))]
	}
	mb := ts.cfg.InputMBMin
	if ts.cfg.InputMBMax > ts.cfg.InputMBMin {
		mb += (ts.cfg.InputMBMax - ts.cfg.InputMBMin) * ts.rng.Float64()
	}
	ts.seq++
	return mr.JobSpec{
		Name:       fmt.Sprintf("%s/%s-%d", ts.cfg.Name, p.Name, ts.seq),
		Profile:    p,
		InputMB:    mb,
		Reduces:    ts.cfg.Reduces,
		SubmitAt:   ts.nextAt,
		Tenant:     ts.cfg.Name,
		SLOSeconds: ts.cfg.SLOSeconds,
		Priority:   ts.cfg.Priority,
	}
}

// Next implements mr.ArrivalSource: the earliest staged arrival across
// tenants, ties broken by tenant index.
func (s *Source) Next() (mr.JobSpec, float64, bool) {
	if s.cfg.MaxJobs > 0 && s.emitted >= s.cfg.MaxJobs {
		return mr.JobSpec{}, 0, false
	}
	var pick *tenantStream
	for _, ts := range s.streams {
		if ts.done {
			continue
		}
		if pick == nil || ts.nextAt < pick.nextAt {
			pick = ts
		}
	}
	if pick == nil {
		return mr.JobSpec{}, 0, false
	}
	at := pick.nextAt
	spec := pick.spec()
	pick.advance(&s.cfg, at)
	s.emitted++
	return spec, at, true
}

// Emitted reports how many jobs the source has produced so far.
func (s *Source) Emitted() int { return s.emitted }

// FromSpecs replays a fixed job list as an arrival stream, ordered by
// SubmitAt with original-index tie-breaks — the trace-driven source.
// The specs' SubmitAt fields are the arrival times.
func FromSpecs(specs []mr.JobSpec) mr.ArrivalSource {
	ordered := append([]mr.JobSpec(nil), specs...)
	sort.SliceStable(ordered, func(i, k int) bool { return ordered[i].SubmitAt < ordered[k].SubmitAt })
	return &replay{specs: ordered}
}

type replay struct {
	specs []mr.JobSpec
	pos   int
}

func (r *replay) Next() (mr.JobSpec, float64, bool) {
	if r.pos >= len(r.specs) {
		return mr.JobSpec{}, 0, false
	}
	spec := r.specs[r.pos]
	r.pos++
	return spec, spec.SubmitAt, true
}

var _ mr.ArrivalSource = (*Source)(nil)
