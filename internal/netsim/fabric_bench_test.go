package netsim

import "testing"

// BenchmarkRecompute measures water-filling over a shuffle-like flow
// population: 30 reducers × 5 fetchers on a 16-node fabric.
func BenchmarkRecompute(b *testing.B) {
	fb := NewFabric(DefaultConfig(16))
	for r := 0; r < 30; r++ {
		for f := 0; f < 5; f++ {
			src := (r*5 + f) % 16
			dst := r % 16
			if src == dst {
				src = (src + 1) % 16
			}
			fb.Add(&Flow{Src: src, Dst: dst, CapMBps: 3.5})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Recompute()
	}
}

// BenchmarkAddRemove measures flow churn with batched recompute.
func BenchmarkAddRemove(b *testing.B) {
	fb := NewFabric(DefaultConfig(16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := &Flow{Src: i % 16, Dst: (i + 1) % 16}
		fb.Add(f)
		fb.Remove(f)
	}
}

// BenchmarkRecomputeRacked measures the oversubscribed-fabric variant.
func BenchmarkRecomputeRacked(b *testing.B) {
	cfg := DefaultConfig(16)
	cfg.NodesPerRack = 8
	cfg.RackUplinkMBps = 468
	fb := NewFabric(cfg)
	for i := 0; i < 100; i++ {
		fb.Add(&Flow{Src: i % 16, Dst: (i + 7) % 16, CapMBps: 10})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Recompute()
	}
}
