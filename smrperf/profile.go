package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// repoPrefix marks a frame in one of the repository's packages.
const repoPrefix = "smapreduce/internal/"

// stackSample is one profile sample: function names leaf first, inlined
// frames expanded, and the sample's weight.
type stackSample struct {
	funcs  []string
	weight float64
}

// layerOf returns the layer a function belongs to — the first path
// element under smapreduce/internal/ — or "" outside the repository.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribution splits profile weight across layers, each sample going
// to the deepest frame in a repository package.
type attribution struct {
	samples []stackSample
	total   float64
	layer   map[string]float64 // layer → self weight
	cum     map[string]float64 // function → weight of samples it is on the stack of
}

func attribute(ss []stackSample) *attribution {
	a := &attribution{samples: ss, layer: map[string]float64{}, cum: map[string]float64{}}
	seen := map[string]bool{}
	for _, s := range ss {
		a.total += s.weight
		layer := ""
		for _, fn := range s.funcs {
			if layer = layerOf(fn); layer != "" {
				break
			}
		}
		a.layer[layer] += s.weight
		clear(seen)
		for _, fn := range s.funcs {
			if !seen[fn] {
				seen[fn] = true
				a.cum[fn] += s.weight
			}
		}
	}
	return a
}

// share returns a layer's share of the total weight.
func (a *attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return a.layer[layer] / a.total
}

// cumShare returns the share of samples with any function whose name
// contains one of the given substrings on the stack.
func (a *attribution) cumShare(subs ...string) float64 {
	if a.total == 0 {
		return 0
	}
	w := 0.0
	for _, s := range a.samples {
		if stackHas(s.funcs, subs) {
			w += s.weight
		}
	}
	return w / a.total
}

func stackHas(funcs, subs []string) bool {
	for _, fn := range funcs {
		for _, sub := range subs {
			if strings.Contains(fn, sub) {
				return true
			}
		}
	}
	return false
}

// topCumulative returns the n functions with the largest cumulative
// share, largest first, leaving out the benchmark's own frames.
func (a *attribution) topCumulative(n int) []string {
	fns := make([]string, 0, len(a.cum))
	for fn := range a.cum {
		if !strings.HasPrefix(fn, "main.") && fn != "runtime.main" && fn != "runtime.goexit" {
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, k int) bool {
		if a.cum[fns[i]] != a.cum[fns[k]] {
			return a.cum[fns[i]] > a.cum[fns[k]]
		}
		return fns[i] < fns[k]
	})
	if len(fns) > n {
		fns = fns[:n]
	}
	out := make([]string, len(fns))
	for i, fn := range fns {
		out[i] = fmt.Sprintf("%6.2f%%  %s", 100*a.cum[fn]/a.total, fn)
	}
	return out
}

// ---- CPU profile: the subset of the pprof protobuf format it needs ----

// parseCPUProfile decodes a gzipped pprof profile as written by
// runtime/pprof.StartCPUProfile, weighting each sample by its last
// value (CPU nanoseconds).
func parseCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location → function ids, deepest inlined first
		funcNames = map[uint64]int64{}    // function → string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{weight: float64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					ss.funcs = append(ss.funcs, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (v) or its bytes (b).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// ---- allocation profile ----

// allocSnapshot is the runtime's cumulative allocation profile, by
// stack. The runtime publishes a cycle's allocations only after later
// collections, so snapshot forces two.
type allocSnapshot map[[32]uintptr][2]int64 // stack → bytes, objects

func snapshotAllocs() allocSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] = [2]int64{r.AllocBytes, r.AllocObjects}
	}
	return snap
}

// allocSamples returns the bytes allocated between two snapshots by
// stack, scaled for the sampling rate as pprof scales them.
func allocSamples(before, after allocSnapshot, rate int) []stackSample {
	var out []stackSample
	for stk, a := range after {
		b := before[stk]
		bytes, objs := a[0]-b[0], a[1]-b[1]
		if bytes <= 0 || objs <= 0 {
			continue
		}
		avg := float64(bytes) / float64(objs)
		scale := 1 / (1 - math.Exp(-avg/float64(rate)))
		s := stackSample{weight: float64(bytes) * scale}
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			s.funcs = append(s.funcs, f.Function)
			if !more {
				break
			}
		}
		out = append(out, s)
	}
	return out
}

// ---- runtime/metrics ----

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntimeMetrics() []metrics.Sample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return ss
}

// runtimeDelta is what the Go runtime spent between two readings.
type runtimeDelta struct {
	gcCPUShare   float64 // GC CPU over non-idle CPU
	gcCycles     float64
	schedP99Secs float64
}

func diffRuntimeMetrics(before, after []metrics.Sample) runtimeDelta {
	f := func(ss []metrics.Sample, i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		}
		return 0
	}
	var d runtimeDelta
	gc := f(after, 0) - f(before, 0)
	busy := (f(after, 1) - f(before, 1)) - (f(after, 2) - f(before, 2))
	if busy > 0 {
		d.gcCPUShare = gc / busy
	}
	d.gcCycles = f(after, 3) - f(before, 3)
	if after[4].Value.Kind() == metrics.KindFloat64Histogram && before[4].Value.Kind() == metrics.KindFloat64Histogram {
		d.schedP99Secs = histDeltaQuantile(before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram(), 0.99)
	}
	return d
}

// histDeltaQuantile returns the q-quantile of the observations added
// between two readings of a cumulative runtime histogram, as the upper
// edge of the bucket holding it (its lower edge for the open last one).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if len(before.Counts) != len(after.Counts) {
		return math.NaN()
	}
	total := uint64(0)
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	run := uint64(0)
	for i := range after.Counts {
		run += after.Counts[i] - before.Counts[i]
		if run >= need {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
