package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// envRecord describes the machine and build a run measured on. It is a
// diagnostic printed with every run, not a gated metric.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// StealTicks is the hypervisor steal time, in USER_HZ ticks summed
	// over all CPUs, that /proc/stat reported during the run.
	StealTicks int64 `json:"steal_ticks"`
	// CalibrationS is the median time of a fixed standard-library loop
	// (SHA-256 over 32 MiB), a yardstick for the machine's speed now.
	CalibrationS float64 `json:"calibration_s"`

	stealStart int64
}

func startEnv() *envRecord {
	return &envRecord{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       commit(),
		CalibrationS: calibrate(),
		stealStart:   stealTicks(),
	}
}

// finish records the steal ticks since startEnv and renders the record.
func (e *envRecord) finish() string {
	if s, s0 := stealTicks(), e.stealStart; s >= 0 && s0 >= 0 {
		e.StealTicks = s - s0
	} else {
		e.StealTicks = -1
	}
	b, _ := json.Marshal(e) // plain fields always marshal
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks returns the aggregate steal field of /proc/stat, or -1.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func calibrate() float64 {
	buf := make([]byte, 32<<20)
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}
