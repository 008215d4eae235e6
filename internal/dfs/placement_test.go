package dfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smapreduce/internal/sim"
)

// placementGeometries are the cluster shapes the placement golden
// covers: the paper's two racks, one rack, fewer nodes than replicas,
// a short last rack (whose second-rack pick can find no third node),
// and a replication beyond three that reaches the uniform fallback.
var placementGeometries = []struct {
	name  string
	nodes int
	cfg   Config
}{
	{"racks-16x8", 16, DefaultConfig()},
	{"single-rack", 8, Config{BlockSizeMB: 128, Replication: 3, NodesPerRack: 8}},
	{"nodes-below-replication", 2, Config{BlockSizeMB: 128, Replication: 3, NodesPerRack: 8}},
	{"uneven-last-rack", 9, Config{BlockSizeMB: 128, Replication: 3, NodesPerRack: 4}},
	{"uneven-replication-4", 11, Config{BlockSizeMB: 64, Replication: 4, NodesPerRack: 5}},
}

// renderPlacement lists every block of a fixed file sequence on each
// geometry: file, block index, exact size and replica list.
func renderPlacement() string {
	var b strings.Builder
	for _, g := range placementGeometries {
		fmt.Fprintf(&b, "# %s nodes=%d %+v\n", g.name, g.nodes, g.cfg)
		fs := New(g.nodes, g.cfg, sim.NewRand(7))
		for i, size := range []float64{1000, 0.5, 128, 2560, 333.25} {
			f := fs.MustCreate(fmt.Sprintf("f%d", i), size)
			for _, blk := range f.Blocks {
				fmt.Fprintf(&b, "%s %d %s %v\n", f.Name, blk.Index,
					strconv.FormatFloat(blk.SizeMB, 'g', -1, 64), blk.Replicas)
			}
		}
	}
	return b.String()
}

// TestPlacementGolden pins Create's replica lists, recorded before the
// placement moved into one replica array per file, byte for byte.
func TestPlacementGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "placement.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderPlacement(); got != string(want) {
		t.Errorf("replica placement differs from testdata/placement.golden:\n%s", got)
	}
}
