package core

import (
	"math"
	"strings"
	"testing"

	"smapreduce/internal/mr"
)

// kernelTrace decodes fuzz bytes into a kernel config, slot bounds and
// a trace of Stats snapshots of one job whose cumulative counters never
// decrease and whose map progress only moves forward.
type kernelTrace struct {
	cfg    SlotManagerConfig
	bounds Bounds
	steps  []mr.Stats
}

func decodeKernelTrace(data []byte) kernelTrace {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cfg := DefaultSlotManagerConfig()
	flags := next()
	cfg.DisableSlowStart = flags&1 != 0
	cfg.DisableThrashDetection = flags&2 != 0
	cfg.DisableTailBoost = flags&4 != 0
	cfg.SuspectConfirmations = 1 + flags>>3&3
	b := Bounds{InitMaps: 1 + next()%4, InitReduces: 1 + next()%3, Workers: 1 + next()%8}
	b.MaxMaps = b.InitMaps + next()%8
	b.MaxReduces = b.InitReduces + next()%6

	total := 1 + next()
	reduces := next() % 9 // 0: a job with no reducers
	s := mr.Stats{HeadJobID: 0, FrontJobID: 0, FrontJobName: "fuzz", TotalMaps: total,
		PendingMaps: total, FrontTotalReduces: reduces, TotalReduces: reduces}
	var tr kernelTrace
	tr.cfg, tr.bounds = cfg, b
	for len(data) >= 8 {
		s.Now += float64(1 + next()%12)
		s.MapInputProcessedMB += float64(next() * 4)
		s.MapOutputProducedMB += float64(next() * 4)
		s.ShuffleMovedMB += float64(next() * 2)
		// Maps move pending -> running -> done; a step may finish some
		// running maps and launch some pending ones.
		launch := min(next()%9, s.PendingMaps)
		s.PendingMaps -= launch
		s.RunningMaps += launch
		finish := min(next()%9, s.RunningMaps)
		s.RunningMaps -= finish
		s.DoneMaps += finish
		x := next()
		s.FrontRunningReduces = x % (reduces + 1)
		s.PotentialShuffleMBps = float64(x * 3)
		y := next()
		s.ShuffleMBps = float64(y * 3)
		s.ShufflePerReduceMB = float64(y * 5)
		tr.steps = append(tr.steps, s)
	}
	return tr
}

// FuzzSlotKernel drives the kernel with generated Stats traces, with no
// cluster, and checks the paper's invariants on every step.
func FuzzSlotKernel(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 6, 2, 99, 8, 5, 60, 60, 20, 4, 1, 200, 10, 5, 60, 60, 20, 4, 1, 200, 10})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 30, 0, 5, 10, 200, 2, 8, 0, 255, 0, 5, 200, 10, 200, 0, 8, 3, 255})
	f.Add([]byte{6, 3, 2, 7, 7, 5, 40, 4, 2, 250, 250, 9, 8, 2, 30, 2, 2, 120, 120, 9, 8, 4, 30, 2,
		2, 40, 40, 9, 8, 4, 30, 2, 2, 30, 30, 9, 0, 8, 30, 2, 2, 0, 0, 0, 0, 8, 30, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("cap trace length")
		}
		tr := decodeKernelTrace(data)
		k, err := NewKernel(tr.cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, cfg := tr.bounds, tr.cfg
		k.Step(mr.Stats{HeadJobID: -1}, b)
		for i, s := range tr.steps {
			prevMaps, prevReduces := k.MapTarget(), k.ReduceTarget()
			st := k.Step(s, b)
			maps, reduces := k.MapTarget(), k.ReduceTarget()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("step %d (%+v) -> %+v: "+format, append([]any{i, s, st}, args...)...)
			}
			if maps < 1 || maps > b.MaxMaps || reduces < 1 || reduces > b.MaxReduces {
				fail("targets %d/%d outside [1, %d]/[1, %d]", maps, reduces, b.MaxMaps, b.MaxReduces)
			}
			if st.Changed != (maps != prevMaps || reduces != prevReduces) ||
				st.Changed && (st.Audit.MapTarget != maps || st.Audit.ReduceTarget != reduces) {
				fail("audit does not match the targets %d/%d", maps, reduces)
			}
			f := st.Audit.Factor
			if maps > prevMaps && (f < cfg.LowerBound || st.Audit.Reason != ReasonMapHeavy) {
				fail("map growth at f = %v", f)
			}
			if maps < prevMaps && f > cfg.UpperBound {
				fail("map shrink at f = %v", f)
			}
			if k.ceiling > 0 && maps > k.ceiling {
				fail("map target %d above the confirmed ceiling %d", maps, k.ceiling)
			}
			if st.Confirmed && !strings.HasPrefix(st.Audit.Reason, ReasonThrashingPrefix) {
				fail("confirmation without a thrashing decision")
			}
			if s.PendingMaps == 0 && maps > prevMaps {
				fail("tail grew map slots %d -> %d", prevMaps, maps)
			}
			if !cfg.DisableSlowStart && float64(s.DoneMaps) < cfg.SlowStartFraction*float64(s.TotalMaps) && st.Changed {
				fail("decision before slow start: %d/%d maps done", s.DoneMaps, s.TotalMaps)
			}
			if math.IsNaN(k.lastWindow.inRate) || k.lastWindow.inRate < 0 {
				fail("window rate %v", k.lastWindow.inRate)
			}
		}
	})
}
