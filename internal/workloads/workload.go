// Package workloads models the memory behaviour of the benchmarks the
// Mitosis paper evaluates (Table 1): GUPS, BTree, HashJoin, Redis,
// Memcached, XSBench, PageRank, LibLinear, Canneal, Graph500 and STREAM.
//
// The real benchmarks cannot run against a simulated MMU, so each workload
// is reproduced as an access-pattern generator with the properties that
// drive the paper's results: footprint (scaled, see EXPERIMENTS.md),
// access distribution (uniform/zipf/sequential/pointer-chase), write
// fraction (store-walks invalidate page-table lines across sockets), cache
// locality, and — crucially for §3.1's placement analysis — the
// *initialization pattern* that determines where first-touch places data
// and page-table pages.
package workloads

import (
	"fmt"
	"math/rand"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Step yields the next memory access of one workload thread.
type Step func() (va pt.VirtAddr, write bool)

// Workload models one benchmark.
type Workload interface {
	// Name is the benchmark name, matching the paper's Table 1.
	Name() string
	// Footprint is the total mapped bytes (scaled).
	Footprint() uint64
	// DataLocality is the probability a data access hits the cache
	// hierarchy, passed to the hardware model.
	DataLocality() float64
	// WalkOverlap is the fraction of page-walk latency exposed on the
	// critical path: dependent pointer chases expose all of it (1.0),
	// workloads with high memory-level parallelism hide most of it.
	WalkOverlap() float64
	// Setup maps and initializes the address space inside env. The
	// initialization touches drive first-touch data and page-table
	// placement exactly as real initialization code would.
	Setup(env *Env) error
	// NewThread returns the access generator for one thread.
	NewThread(env *Env, thread int) Step
}

// InitStyle describes which threads initialize memory during Setup.
type InitStyle int

const (
	// InitSingle has one thread (the first core) initialize everything —
	// the pattern behind the paper's observation that page-tables skew
	// toward a single socket (§3.1 observation 2).
	InitSingle InitStyle = iota
	// InitPartitioned has each participating socket initialize its own
	// partition, spreading data and page-tables across sockets.
	InitPartitioned
)

// Region is one named mapped area of a workload.
type Region struct {
	Base pt.VirtAddr
	Size uint64
}

// At returns the address inside the region at the given byte offset.
func (r Region) At(off uint64) pt.VirtAddr {
	if off >= r.Size {
		panic(fmt.Sprintf("workloads: offset %d outside region of %d bytes", off, r.Size))
	}
	return r.Base + pt.VirtAddr(off)
}

// Env is the execution environment a workload runs in: a process on the
// simulated kernel, plus the mapped regions.
type Env struct {
	K *kernel.Kernel
	P *kernel.Process
	// THP requests transparent-huge-page backing for all regions.
	THP bool
	// Seed drives all workload randomness.
	Seed int64

	regions map[string]Region
}

// NewEnv wraps a scheduled process.
func NewEnv(k *kernel.Kernel, p *kernel.Process, thp bool, seed int64) *Env {
	return &Env{K: k, P: p, THP: thp, Seed: seed, regions: make(map[string]Region)}
}

// MapRegion mmaps a named region of the given size.
func (e *Env) MapRegion(name string, size uint64) (Region, error) {
	base, err := e.K.Mmap(e.P, size, kernel.MmapOpts{Writable: true, THP: e.THP})
	if err != nil {
		return Region{}, fmt.Errorf("workloads: mapping %s: %w", name, err)
	}
	r := Region{Base: base, Size: size}
	e.regions[name] = r
	return r, nil
}

// Region returns a previously mapped region.
func (e *Env) Region(name string) Region {
	r, ok := e.regions[name]
	if !ok {
		panic(fmt.Sprintf("workloads: region %q not mapped", name))
	}
	return r
}

// InitRegion touches every page of the region with writes, from the cores
// dictated by style, faulting memory in with first-touch semantics.
func (e *Env) InitRegion(name string, style InitStyle) error {
	return e.initRegion(e.Region(name), style, e.touchRange)
}

// initRegion splits r among the initializing cores style names and runs
// touch over each core's share in turn.
func (e *Env) initRegion(r Region, style InitStyle, touch func(core numa.CoreID, base pt.VirtAddr, size uint64) error) error {
	cores := e.P.Cores()
	if len(cores) == 0 {
		return fmt.Errorf("workloads: process not scheduled")
	}
	switch style {
	case InitSingle:
		return touch(cores[0], r.Base, r.Size)
	case InitPartitioned:
		// One initializing core per socket present in the core set.
		perSocket := map[numa.SocketID]numa.CoreID{}
		var order []numa.CoreID
		topo := e.K.Topology()
		for _, c := range cores {
			s := topo.SocketOf(c)
			if _, ok := perSocket[s]; !ok {
				perSocket[s] = c
				order = append(order, c)
			}
		}
		n := uint64(len(order))
		chunk := (r.Size/n + initStep - 1) / initStep * initStep
		for i, c := range order {
			start := uint64(i) * chunk
			if start >= r.Size {
				break
			}
			size := chunk
			if start+size > r.Size {
				size = r.Size - start
			}
			if err := touch(c, r.Base+pt.VirtAddr(start), size); err != nil {
				return err
			}
		}
		return nil
	default:
		panic(fmt.Sprintf("workloads: unknown init style %d", style))
	}
}

// initStep is the stride of initialization writes: one per 4 KB page.
const initStep = uint64(1) << pt.PageShift4K

// touchBatch is the length of an initialization round: the writes one
// core issues between coherence barriers.
const touchBatch = 512

// touchRange writes once to every page of [base, base+size) from core, on
// the round loop: one thread, Sequential mode, touchBatch writes a round.
// Each barrier applies the round's buffered invalidations to the other
// sockets' LLCs and folds its AutoNUMA samples before the next round, so
// the caches end up as under the per-op engine, and the walks run inside
// the loop's single-writer bracket on the lock-free LLC path.
func (e *Env) touchRange(core numa.CoreID, base pt.VirtAddr, size uint64) error {
	l := Loop{Name: "init touch", Mode: Sequential, Batch: touchBatch}
	d := &touchDriver{next: base, end: base + pt.VirtAddr(size)}
	_, err := l.Run(e.K.Machine(), []numa.CoreID{core}, d)
	return err
}

// touchDriver feeds touchRange's write stream to the round loop, a full
// batch a round, and ends the run once the range is covered.
type touchDriver struct {
	next, end pt.VirtAddr
}

func (d *touchDriver) Batch(_ int, buf []hw.AccessOp) int {
	n := 0
	for ; n < len(buf) && d.next < d.end; n++ {
		buf[n] = hw.AccessOp{VA: d.next, Write: true}
		d.next += pt.VirtAddr(initStep)
	}
	return n
}

func (d *touchDriver) Barrier(int) ([]numa.CoreID, bool, error) {
	return nil, d.next >= d.end, nil
}

// rng derives a deterministic per-thread generator.
func (e *Env) rng(thread int) *rand.Rand {
	return rand.New(rand.NewSource(e.Seed*1000003 + int64(thread)*7919 + 17))
}

// alignDown rounds off down to a 64-byte cache-line boundary.
func alignDown(off uint64) uint64 { return off &^ 63 }
