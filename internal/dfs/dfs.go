// Package dfs simulates the HDFS layer beneath the MapReduce runtime:
// files are split into fixed-size blocks, each block is replicated on a
// set of nodes using the HDFS default placement policy, and the job
// tracker queries block locations to schedule node-local map tasks.
//
// Data contents are never materialised — only sizes and placement,
// which is all the performance model needs.
package dfs

import (
	"fmt"
	"math"
	"slices"

	"smapreduce/internal/sim"
)

// Config describes the file system geometry.
type Config struct {
	BlockSizeMB  float64 // split/block size; the paper uses 128 MB
	Replication  int     // replicas per block
	NodesPerRack int     // rack size for the placement policy
}

// DefaultConfig mirrors the paper's setup: 128 MB blocks, 3× replication,
// and 8-node racks (two racks of the 16 workers).
func DefaultConfig() Config {
	return Config{BlockSizeMB: 128, Replication: 3, NodesPerRack: 8}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.BlockSizeMB <= 0:
		return fmt.Errorf("dfs: BlockSizeMB = %v, must be positive", c.BlockSizeMB)
	case c.Replication <= 0:
		return fmt.Errorf("dfs: Replication = %d, must be positive", c.Replication)
	case c.NodesPerRack <= 0:
		return fmt.Errorf("dfs: NodesPerRack = %d, must be positive", c.NodesPerRack)
	}
	return nil
}

// Block is one replicated chunk of a file.
type Block struct {
	Index    int
	SizeMB   float64
	Replicas []int // node IDs hosting a replica, de-duplicated
}

// File is a stored file: an ordered list of blocks.
type File struct {
	Name   string
	SizeMB float64
	Blocks []Block
}

// Split is the unit of work handed to one map task. With the default
// input format one split is one block.
type Split struct {
	File   string
	Index  int
	SizeMB float64
	Hosts  []int
}

// Locality classifies how close a consumer node is to a split replica.
type Locality int

const (
	// Local: the node holds a replica; the read is from local disk.
	Local Locality = iota
	// RackLocal: a replica lives in the same rack; the read crosses
	// only the top-of-rack switch.
	RackLocal
	// Remote: all replicas are in other racks.
	Remote
)

func (l Locality) String() string {
	switch l {
	case Local:
		return "local"
	case RackLocal:
		return "rack-local"
	case Remote:
		return "remote"
	}
	return fmt.Sprintf("Locality(%d)", int(l))
}

// FS is the simulated file system over a fixed set of data nodes.
type FS struct {
	cfg    Config
	nodes  int
	rng    *sim.Rand
	files  map[string]*File
	writer int   // round-robin "writing client" cursor
	cand   []int // pickNode's candidate scratch, reused pick to pick
}

// New builds a file system over nodes data nodes. Invalid configs and
// non-positive node counts panic (static configuration).
func New(nodes int, cfg Config, rng *sim.Rand) *FS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if nodes <= 0 {
		panic(fmt.Sprintf("dfs: nodes = %d, must be positive", nodes))
	}
	if rng == nil {
		rng = sim.NewRand(1)
	}
	return &FS{cfg: cfg, nodes: nodes, rng: rng, files: make(map[string]*File)}
}

// Config returns the file system geometry.
func (fs *FS) Config() Config { return fs.cfg }

// Nodes returns the number of data nodes.
func (fs *FS) Nodes() int { return fs.nodes }

// Rack returns the rack index of a node.
func (fs *FS) Rack(node int) int { return node / fs.cfg.NodesPerRack }

// Create stores a file of sizeMB, placing blocks with the HDFS default
// policy: first replica on the (rotating) writer node, second on a node
// in a different rack, third on a different node in the second rack.
// Creating an existing name or a size that is not positive and finite
// returns an error.
//
// Every block's replica list is a window of one array sized for the
// whole file, so staging a file allocates per file, not per block.
func (fs *FS) Create(name string, sizeMB float64) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if !(sizeMB > 0) || math.IsInf(sizeMB, 0) {
		return nil, fmt.Errorf("dfs: file %q size %v must be positive and finite", name, sizeMB)
	}
	n := 0
	for remaining := sizeMB; remaining > 0; n++ {
		remaining -= min(remaining, fs.cfg.BlockSizeMB)
	}
	repl := min(fs.cfg.Replication, fs.nodes)
	f := &File{Name: name, SizeMB: sizeMB, Blocks: make([]Block, n)}
	replicas := make([]int, 0, n*repl)
	remaining := sizeMB
	for i := range f.Blocks {
		size := min(remaining, fs.cfg.BlockSizeMB)
		remaining -= size
		start := len(replicas)
		replicas = fs.place(replicas, repl)
		f.Blocks[i] = Block{Index: i, SizeMB: size, Replicas: replicas[start:len(replicas):len(replicas)]}
	}
	fs.files[name] = f
	return f, nil
}

// MustCreate is Create for static test/benchmark setup; it panics on error.
func (fs *FS) MustCreate(name string, sizeMB float64) *File {
	f, err := fs.Create(name, sizeMB)
	if err != nil {
		panic(err)
	}
	return f
}

// Open returns a stored file, or an error if absent.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q does not exist", name)
	}
	return f, nil
}

// Splits returns the map input splits of a file, one per block. Each
// split's Hosts is a copy of its block's replica list, never an alias;
// the copies share one array per call.
func (f *File) Splits() []Split {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Replicas)
	}
	hosts := make([]int, n)
	splits := make([]Split, len(f.Blocks))
	for i, b := range f.Blocks {
		h := hosts[:copy(hosts, b.Replicas):len(b.Replicas)]
		hosts = hosts[len(h):]
		splits[i] = Split{File: f.Name, Index: b.Index, SizeMB: b.SizeMB, Hosts: h}
	}
	return splits
}

// LocalityOf classifies node's proximity to the split.
func (fs *FS) LocalityOf(node int, s Split) Locality {
	rack := fs.Rack(node)
	best := Remote
	for _, h := range s.Hosts {
		if h == node {
			return Local
		}
		if fs.Rack(h) == rack {
			best = RackLocal
		}
	}
	return best
}

// NearestHost returns the replica host to read from for a consumer at
// node: the node itself when local, otherwise a same-rack replica,
// otherwise the first replica.
func (fs *FS) NearestHost(node int, s Split) int {
	rack := fs.Rack(node)
	rackHost := -1
	for _, h := range s.Hosts {
		if h == node {
			return h
		}
		if rackHost < 0 && fs.Rack(h) == rack {
			rackHost = h
		}
	}
	if rackHost >= 0 {
		return rackHost
	}
	return s.Hosts[0]
}

// BlocksOn reports how many block replicas of file f live on node.
func (fs *FS) BlocksOn(f *File, node int) int {
	n := 0
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			if r == node {
				n++
			}
		}
	}
	return n
}

// NodeReport summarises one data node's storage.
type NodeReport struct {
	Node     int
	Blocks   int
	StoredMB float64
}

// BlockReport returns per-node block counts and stored volume across
// all files — the NameNode's view of datanode utilisation.
func (fs *FS) BlockReport() []NodeReport {
	reports := make([]NodeReport, fs.nodes)
	for i := range reports {
		reports[i].Node = i
	}
	for _, f := range fs.files {
		for _, b := range f.Blocks {
			for _, r := range b.Replicas {
				reports[r].Blocks++
				reports[r].StoredMB += b.SizeMB
			}
		}
	}
	return reports
}

// place appends up to repl replica nodes for one block to dst,
// following the HDFS default placement policy and degrading gracefully
// on tiny clusters. The block's replicas are dst's new tail, which
// also serves as the used set: it holds at most repl nodes.
func (fs *FS) place(dst []int, repl int) []int {
	start := len(dst)
	used := func(n int) bool { return slices.Contains(dst[start:], n) }
	add := func(n int) bool {
		if n < 0 || used(n) {
			return false
		}
		dst = append(dst, n)
		return true
	}

	// First replica: rotating writer node (simulating data loaded from
	// a client colocated with the cluster, as PUMA datasets are).
	first := fs.writer % fs.nodes
	fs.writer++
	add(first)

	// Second replica: random node in a different rack, if one exists.
	if len(dst)-start < repl {
		add(fs.pickNode(func(n int) bool { return !used(n) && fs.Rack(n) != fs.Rack(first) }))
	}
	// Third replica: random node in the same rack as the second.
	if k := len(dst) - start; k >= 2 && k < repl {
		second := dst[start+1]
		add(fs.pickNode(func(n int) bool { return !used(n) && fs.Rack(n) == fs.Rack(second) }))
	}
	// Any remaining replicas (or fallbacks when the cluster has a
	// single rack): uniform random over unused nodes.
	for len(dst)-start < repl {
		if !add(fs.pickNode(func(n int) bool { return !used(n) })) {
			break
		}
	}
	return dst
}

// pickNode returns a uniformly random node satisfying ok, or -1.
func (fs *FS) pickNode(ok func(int) bool) int {
	candidates := fs.cand[:0]
	for n := 0; n < fs.nodes; n++ {
		if ok(n) {
			candidates = append(candidates, n)
		}
	}
	fs.cand = candidates
	if len(candidates) == 0 {
		return -1
	}
	return candidates[fs.rng.Intn(len(candidates))]
}
