package dfs

import (
	"math"
	"testing"
	"testing/quick"

	"smapreduce/internal/sim"
)

func newFS(t *testing.T, nodes int) *FS {
	t.Helper()
	return New(nodes, DefaultConfig(), sim.NewRand(42))
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []Config{
		{BlockSizeMB: 0, Replication: 3, NodesPerRack: 8},
		{BlockSizeMB: 128, Replication: 0, NodesPerRack: 8},
		{BlockSizeMB: 128, Replication: 3, NodesPerRack: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("case %d passed validation", i)
		}
	}
}

func TestCreateBlockCountAndSizes(t *testing.T) {
	fs := newFS(t, 16)
	f := fs.MustCreate("a", 1000) // 7×128 + 104
	if len(f.Blocks) != 8 {
		t.Fatalf("blocks = %d, want 8", len(f.Blocks))
	}
	total := 0.0
	for i, b := range f.Blocks {
		if b.Index != i {
			t.Fatalf("block %d has index %d", i, b.Index)
		}
		total += b.SizeMB
		if i < 7 && b.SizeMB != 128 {
			t.Fatalf("block %d size %v, want 128", i, b.SizeMB)
		}
	}
	if math.Abs(total-1000) > 1e-9 {
		t.Fatalf("total block size %v, want 1000", total)
	}
	if math.Abs(f.Blocks[7].SizeMB-104) > 1e-9 {
		t.Fatalf("tail block %v, want 104", f.Blocks[7].SizeMB)
	}
}

func TestCreateErrors(t *testing.T) {
	fs := newFS(t, 4)
	fs.MustCreate("a", 100)
	if _, err := fs.Create("a", 100); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := fs.Create("b", 0); err == nil {
		t.Fatal("zero-size create succeeded")
	}
	if _, err := fs.Create("c", -5); err == nil {
		t.Fatal("negative-size create succeeded")
	}
	// A NaN size would stage a zero-block file and +Inf would never
	// finish splitting; both are rejected, as is -Inf.
	for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := fs.Create("d", size); err == nil {
			t.Fatalf("create of size %v succeeded", size)
		}
	}
	for _, name := range []string{"b", "c", "d"} {
		if _, err := fs.Open(name); err == nil {
			t.Fatalf("failed create left %q behind", name)
		}
	}
}

func TestOpen(t *testing.T) {
	fs := newFS(t, 4)
	fs.MustCreate("x", 10)
	if _, err := fs.Open("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("y"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestReplicationCountAndDistinct(t *testing.T) {
	fs := newFS(t, 16)
	f := fs.MustCreate("a", 10*128)
	for _, b := range f.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b.Index, len(b.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range b.Replicas {
			if r < 0 || r >= 16 || seen[r] {
				t.Fatalf("block %d bad replica set %v", b.Index, b.Replicas)
			}
			seen[r] = true
		}
	}
}

func TestPlacementCrossesRacks(t *testing.T) {
	fs := newFS(t, 16) // racks of 8 → 2 racks
	f := fs.MustCreate("a", 64*128)
	crossRack := 0
	for _, b := range f.Blocks {
		racks := map[int]bool{}
		for _, r := range b.Replicas {
			racks[fs.Rack(r)] = true
		}
		if len(racks) > 1 {
			crossRack++
		}
	}
	if crossRack != len(f.Blocks) {
		t.Fatalf("only %d/%d blocks span racks", crossRack, len(f.Blocks))
	}
}

func TestTinyClusterPlacement(t *testing.T) {
	fs := New(2, DefaultConfig(), sim.NewRand(1)) // replication 3 > nodes 2
	f := fs.MustCreate("a", 300)
	for _, b := range f.Blocks {
		if len(b.Replicas) != 2 {
			t.Fatalf("replicas = %v, want exactly the 2 nodes", b.Replicas)
		}
	}
}

func TestSplitsMatchBlocks(t *testing.T) {
	fs := newFS(t, 16)
	f := fs.MustCreate("a", 1000)
	splits := f.Splits()
	if len(splits) != len(f.Blocks) {
		t.Fatalf("splits = %d, blocks = %d", len(splits), len(f.Blocks))
	}
	for i, s := range splits {
		if s.SizeMB != f.Blocks[i].SizeMB || s.Index != i || s.File != "a" {
			t.Fatalf("split %d mismatch: %+v", i, s)
		}
	}
	// Splits hold copies, not aliases, of the replica list.
	splits[0].Hosts[0] = -99
	if f.Blocks[0].Replicas[0] == -99 {
		t.Fatal("split aliases block replica slice")
	}
}

func TestLocalityClassification(t *testing.T) {
	fs := newFS(t, 16)
	s := Split{File: "a", SizeMB: 128, Hosts: []int{0, 9}}
	if got := fs.LocalityOf(0, s); got != Local {
		t.Fatalf("LocalityOf(0) = %v, want local", got)
	}
	if got := fs.LocalityOf(3, s); got != RackLocal { // rack 0 via host 0
		t.Fatalf("LocalityOf(3) = %v, want rack-local", got)
	}
	s2 := Split{Hosts: []int{9, 10}}
	if got := fs.LocalityOf(3, s2); got != Remote {
		t.Fatalf("LocalityOf(3) = %v, want remote", got)
	}
}

func TestNearestHost(t *testing.T) {
	fs := newFS(t, 16)
	s := Split{Hosts: []int{9, 2}}
	if got := fs.NearestHost(9, s); got != 9 {
		t.Fatalf("NearestHost local = %d, want 9", got)
	}
	if got := fs.NearestHost(3, s); got != 2 { // same rack as 2
		t.Fatalf("NearestHost rack = %d, want 2", got)
	}
	s3 := Split{Hosts: []int{12, 13}}
	if got := fs.NearestHost(3, s3); got != 12 {
		t.Fatalf("NearestHost remote = %d, want first replica 12", got)
	}
}

func TestBlocksOnCountsReplicas(t *testing.T) {
	fs := newFS(t, 16)
	f := fs.MustCreate("a", 100*128)
	total := 0
	for n := 0; n < 16; n++ {
		total += fs.BlocksOn(f, n)
	}
	if total != 100*3 {
		t.Fatalf("total replicas counted = %d, want 300", total)
	}
}

func TestPlacementSpreadIsEven(t *testing.T) {
	fs := newFS(t, 16)
	f := fs.MustCreate("a", 400*128)
	counts := make([]float64, 16)
	for n := range counts {
		counts[n] = float64(fs.BlocksOn(f, n))
	}
	// 1200 replicas over 16 nodes → mean 75; no node should be wildly off.
	for n, c := range counts {
		if c < 30 || c > 150 {
			t.Fatalf("node %d holds %v replicas, mean is 75 — placement is badly skewed", n, c)
		}
	}
}

func TestLocalityString(t *testing.T) {
	if Local.String() != "local" || RackLocal.String() != "rack-local" || Remote.String() != "remote" {
		t.Fatal("Locality strings")
	}
	if Locality(9).String() == "" {
		t.Fatal("unknown locality empty")
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, DefaultConfig(), nil) },
		func() { New(4, Config{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad New did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: every created file's splits cover exactly the file size and
// every split has at least one in-range host.
func TestQuickSplitCoverage(t *testing.T) {
	f := func(sizeRaw uint16, nodesRaw uint8) bool {
		nodes := int(nodesRaw%30) + 1
		size := float64(sizeRaw%5000) + 1
		fs := New(nodes, DefaultConfig(), sim.NewRand(uint64(sizeRaw)+1))
		file := fs.MustCreate("f", size)
		total := 0.0
		for _, s := range file.Splits() {
			total += s.SizeMB
			if len(s.Hosts) == 0 {
				return false
			}
			for _, h := range s.Hosts {
				if h < 0 || h >= nodes {
					return false
				}
			}
		}
		return math.Abs(total-size) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockReport(t *testing.T) {
	fs := newFS(t, 4)
	fs.MustCreate("a", 1000) // 8 blocks × 3 replicas
	reports := fs.BlockReport()
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	blocks := 0
	stored := 0.0
	for i, r := range reports {
		if r.Node != i {
			t.Fatalf("report %d misnumbered: %+v", i, r)
		}
		blocks += r.Blocks
		stored += r.StoredMB
	}
	if blocks != 8*3 {
		t.Fatalf("total replicas = %d, want 24", blocks)
	}
	if math.Abs(stored-3000) > 1e-9 {
		t.Fatalf("stored = %v, want 3000", stored)
	}
}
