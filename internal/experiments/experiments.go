// Package experiments regenerates every table and figure of the Mitosis
// paper's analysis and evaluation sections on the simulated machine:
//
//	Figure 1   headline results (composite of Figs 4, 9, 10)
//	Figure 3   page-table dump for Memcached (multi-socket)
//	Figure 4   remote leaf-PTE fractions per socket (multi-socket suite)
//	Figure 6   workload-migration placement analysis, 7 configs x 8 workloads
//	Figure 9   multi-socket evaluation, 4KB (a) and 2MB THP (b)
//	Figure 10  workload-migration evaluation, 4KB (a) and 2MB THP (b)
//	Figure 11  THP under heavy memory fragmentation
//	Table 4    page-table replication memory overhead (analytic)
//	Table 5    VMA operation overhead with 4-way replication
//	Table 6    end-to-end overhead with Mitosis enabled but idle
//
// plus ablations beyond the paper (update-propagation strategy, 5-level
// paging, page-cache reservation, automatic policy).
//
// The simulator does not reproduce absolute runtimes; each experiment
// reports normalized runtimes whose *shape* — who wins, by roughly what
// factor, where effects vanish — tracks the paper. EXPERIMENTS.md records
// paper-vs-measured values for every row.
package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// Config controls experiment scale.
type Config struct {
	// Ops is the measured operation count per thread. 0 selects the
	// default (80k).
	Ops int
	// Seed drives all randomness.
	Seed int64
	// FramesPerNode sizes each node's memory. 0 selects 1M frames (4GB).
	FramesPerNode uint64
	// Scale multiplies workload footprints. 1.0 (default) is the
	// calibrated scale; quick tests use smaller values (shapes are then
	// not meaningful).
	Scale float64
}

// Warmup is the operation count per thread run before measurement to
// reach steady state: a quarter of Ops.
func (c Config) Warmup() int { return c.Ops / 4 }

// Quick returns a configuration for fast smoke runs (unit tests).
func Quick() Config {
	return Config{Ops: 3000, Seed: 7, FramesPerNode: 1 << 16, Scale: 1.0 / 32}
}

func (c Config) fill() Config {
	if c.Ops == 0 {
		c.Ops = 80000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.FramesPerNode == 0 {
		c.FramesPerNode = 1 << 20
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

// newKernel builds a fresh machine+kernel for one experiment run, with
// pageCacheTarget page-table frames reserved per node (§5.1).
func (c Config) newKernel(pageCacheTarget uint64) *kernel.Kernel {
	return kernel.New(kernel.Config{FramesPerNode: c.FramesPerNode, PageCacheTarget: pageCacheTarget})
}

// machine translates the experiment scale into a public machine spec (the
// default paper topology; FramesPerNode are 4KB frames). The public spec
// counts memory in whole 2MB blocks, so frame counts round up to the next
// 512-frame block (minimum one) rather than silently losing memory.
func (c Config) machine(thp bool) mitosis.SystemConfig {
	frames := (c.FramesPerNode + 511) / 512 * 512
	if frames == 0 {
		frames = 512
	}
	return mitosis.SystemConfig{MemoryPerNode: frames * 4096, THP: thp}
}

// workload instantiates a scaled copy of the named workload. A zero Scale
// (unfilled config) means unscaled.
func (c Config) workload(w workloads.Workload) workloads.Workload {
	if c.Scale != 0 && c.Scale != 1.0 {
		return workloads.Scale(w, c.Scale)
	}
	return w
}

// cloneMS builds a fresh multi-socket workload instance by name (workload
// state such as zipf generators must not leak between runs).
func cloneMS(name string) workloads.Workload {
	for _, w := range workloads.MultiSocketSuite() {
		if w.Name() == name {
			return w
		}
	}
	panic("experiments: unknown multi-socket workload " + name)
}

// allNodes lists every node of k's topology.
func allNodes(k *kernel.Kernel) []numa.NodeID {
	nodes := make([]numa.NodeID, k.Topology().Nodes())
	for i := range nodes {
		nodes[i] = numa.NodeID(i)
	}
	return nodes
}

// oneCorePerSocket returns the first core of every socket — the
// experiments' thread placement for multi-socket runs (one simulated
// worker per socket keeps runs fast while preserving per-socket NUMA
// behaviour).
func oneCorePerSocket(k *kernel.Kernel) []numa.CoreID {
	topo := k.Topology()
	cores := make([]numa.CoreID, topo.Sockets())
	for s := 0; s < topo.Sockets(); s++ {
		cores[s] = topo.FirstCoreOf(numa.SocketID(s))
	}
	return cores
}

// runErr wraps an experiment step error with context.
func runErr(what string, err error) error {
	return fmt.Errorf("experiments: %s: %w", what, err)
}
