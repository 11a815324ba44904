package mitosis

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// Churn describes a datacenter-churn run: a stream of short-lived
// processes arriving, fault-storming their memory in, and exiting against
// a shared (optionally fragmented) machine. Each socket hosts one live
// process at a time; when it has touched all its pages it exits at a round
// barrier and the next process of the stream spawns in its place. Faults
// from different sockets therefore always belong to *different* processes
// — exactly the multi-process contention the sharded per-process fault
// lock lets proceed in parallel.
//
// The run executes on the round engine, with spawn and exit as its barrier
// hook. It is deterministic: spawn and exit happen only at round barriers
// in canonical socket order, each process allocates data and page-table
// pages on its own socket's node (first-touch), and every simulated
// counter — including the fault-latency histogram — is bit-identical for
// any Workers value and GOMAXPROCS. Only host-side throughput changes,
// which is what the churn benchmark measures.
type Churn struct {
	// Name labels the run in records.
	Name string `json:"name"`
	// Machine is the system to boot (normalized like a Scenario's).
	Machine SystemConfig `json:"machine"`
	// Procs is the total number of processes spawned over the run
	// (default 64).
	Procs int `json:"procs"`
	// Sockets is how many sockets host live processes concurrently, one
	// each (0 = every socket of the machine).
	Sockets int `json:"sockets,omitempty"`
	// PagesPerProc is how many 4KB pages each process demand-faults in
	// before exiting (default 256).
	PagesPerProc int `json:"pages_per_proc"`
	// HugePages adds a second, THP-backed region of this many 4KB-page
	// equivalents (rounded up to whole 2MB blocks) that the process
	// touches after the 4KB region. On a THP machine each block is one
	// huge fault costing a 2MB zeroing storm — hundreds of times a 4KB
	// fault — giving the latency histogram the heavy tail that p95/p99
	// exist to expose. Ignored unless the machine enables THP.
	HugePages int `json:"huge_pages,omitempty"`
	// Chunk is the pages each core touches per round between barriers
	// (default 32).
	Chunk int `json:"chunk,omitempty"`
	// Fragmentation pre-ages every node's memory (0..1) with the seeded
	// pattern Scenario runs use, so allocation exercises the fragmented
	// paths without ever exhausting memory (exhaustion would trigger
	// cross-process reclaim, which is deliberately out of the
	// deterministic churn loop).
	Fragmentation float64 `json:"fragmentation,omitempty"`
	// Pressure sizes node 0 to exhaust mid-storm: a memory-pressure floor
	// set at boot leaves the node only (1-Pressure) of one process's
	// footprint in usable frames, so socket 0's storm hits the floor that
	// fraction of the way through faulting in and reclaims every later
	// frame from node 1 — deterministically (the spill target never
	// crosses a threshold of its own; Validate guarantees it holds both
	// processes). Spilled faults pay remote allocation and zero-fill,
	// fattening the latency tail the p95/p99 figures expose. (0..1);
	// requires >= 2 active sockets.
	Pressure float64 `json:"pressure,omitempty"`
	// Seed drives the fragmentation pattern (default 42).
	Seed int64 `json:"seed"`
	// Workers selects the engine: 1 runs the sequential engine, any other
	// value the parallel one, which deals the active sockets to at most
	// GOMAXPROCS goroutines. Simulated outcomes are identical for every
	// value.
	Workers int `json:"workers,omitempty"`
}

// normalize fills defaults; it returns a copy.
func (c Churn) normalize() Churn {
	c.Machine = c.Machine.normalize()
	if c.Procs <= 0 {
		c.Procs = 64
	}
	if c.PagesPerProc <= 0 {
		c.PagesPerProc = 256
	}
	if c.HugePages < 0 {
		c.HugePages = 0
	}
	if rem := c.HugePages % 512; rem != 0 {
		c.HugePages += 512 - rem
	}
	if c.Chunk <= 0 {
		c.Chunk = 32
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Sockets <= 0 || c.Sockets > c.Machine.Sockets {
		c.Sockets = c.Machine.Sockets
	}
	return c
}

// Validate checks the spec for structural errors.
func (c Churn) Validate() error {
	if err := c.Machine.checkShape(); err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	n := c.normalize()
	if n.Fragmentation < 0 || n.Fragmentation >= 1 {
		return fmt.Errorf("churn: fragmentation %v out of [0,1)", n.Fragmentation)
	}
	// Fragmentation marks 2MB groups as unusable for huge allocation but
	// does not consume 4KB frames, so capacity only needs to cover one
	// live process per node plus page-table overhead. Staying within a
	// node guarantees the run never triggers cross-process reclaim, which
	// is deliberately outside the deterministic churn loop.
	perNode := n.Machine.MemoryPerNode / 4096
	need := uint64(n.PagesPerProc) + uint64(n.HugePages) + 64 /* page cache */ + 64 /* page tables */
	if perNode < need {
		return fmt.Errorf("churn: %d 4K + %d huge pages/proc + overhead exceed node capacity %d frames",
			n.PagesPerProc, n.HugePages, perNode)
	}
	if n.Pressure < 0 || n.Pressure >= 1 {
		return fmt.Errorf("churn: pressure %v out of [0,1)", n.Pressure)
	}
	if n.Pressure > 0 {
		if n.Sockets < 2 {
			return fmt.Errorf("churn: pressure needs >= 2 active sockets (a spill target); have %d", n.Sockets)
		}
		// Determinism under pressure requires the spill target (node 1) to
		// absorb its own process plus everything node 0 sheds without ever
		// crossing a threshold of its own.
		if perNode < 2*need {
			return fmt.Errorf("churn: pressure spill target needs %d frames (two processes), node capacity is %d", 2*need, perNode)
		}
	}
	return nil
}

// ChurnResult is a churn run's outcome. Every field except the Host*
// figures, WallSec and Workers is deterministic — bit-identical across
// Workers values and GOMAXPROCS — and is what replay verification
// compares.
type ChurnResult struct {
	// Churn is the normalized spec the run executed; the record replays
	// from it alone.
	Churn Churn `json:"churn"`
	// Spawned and Exited count process arrivals and departures (equal on
	// a completed run).
	Spawned int `json:"spawned"`
	Exited  int `json:"exited"`
	// Ops is total simulated memory operations; Faults of them trapped.
	Ops    uint64 `json:"ops"`
	Faults uint64 `json:"faults"`
	// Cycles is total simulated cycles, FaultCycles the share spent in
	// the fault handler.
	Cycles      uint64 `json:"cycles"`
	FaultCycles uint64 `json:"fault_cycles"`
	// FaultHist is the fault-latency histogram in log2 buckets: bucket b
	// counts faults costing (2^(b-1), 2^b] simulated cycles. Exact, so
	// replay compares it bit-for-bit.
	FaultHist []uint64 `json:"fault_hist"`
	// P50/P95/P99 are simulated-cycle fault-latency percentiles read off
	// the histogram (upper bound of the quantile's bucket) — the tail
	// metric aggregate counters cannot express.
	P50 uint64 `json:"fault_p50_cycles"`
	P95 uint64 `json:"fault_p95_cycles"`
	P99 uint64 `json:"fault_p99_cycles"`
	// Host-side figures (not compared by replay).
	WallSec          float64 `json:"wall_sec"`
	HostOpsPerSec    float64 `json:"host_ops_per_sec"`
	HostFaultsPerSec float64 `json:"host_faults_per_sec"`
	// Workers is how many goroutines drove the run.
	Workers int `json:"workers"`
}

// churnSlot is one socket's live-process state.
type churnSlot struct {
	socket numa.SocketID
	cores  []numa.CoreID
	proc   *kernel.Process
	// base is the 4KB-faulting region, hugeBase the THP-backed one (0 when
	// the spec maps none). Page indexes below PagesPerProc address base;
	// the rest address hugeBase.
	base     pt.VirtAddr
	hugeBase pt.VirtAddr
	// next[i] is the index of cores[i]'s next untouched page; pages are
	// dealt to cores round-robin (core i owns pages i, i+C, i+2C, ...).
	next []int
	live bool // the process issued ops this round
}

// churnDriver is the round loop's driver for a churn run. Every active
// socket's cores are threads for the whole run, socket by socket; a
// socket whose process is gone issues empty batches. Its barrier hook
// retires, in canonical socket order, each process that issued nothing in
// the round — it has touched all its pages — and spawns the stream's next
// process in its place.
type churnDriver struct {
	k       *kernel.Kernel
	c       Churn
	slots   []*churnSlot
	perSlot int // cores per socket: thread ti is core ti%perSlot of slot ti/perSlot

	spawned, exited int
}

// spawn starts the stream's next process on sl's socket.
func (d *churnDriver) spawn(sl *churnSlot) error {
	k, c := d.k, d.c
	p, err := k.CreateProcess(kernel.ProcessOpts{
		Name: fmt.Sprintf("%s-%d", c.Name, d.spawned),
		Home: sl.socket,
	})
	if err != nil {
		return err
	}
	if err := k.RunOn(p, sl.cores); err != nil {
		return err
	}
	// Two regions: one that always demand-faults 4KB pages and, when
	// the spec asks for it, a THP-backed one whose 2MB zeroing storms
	// populate the histogram's expensive tail. Under fragmentation a
	// huge block may fail contiguous allocation and fall back to 4KB —
	// deterministically, since the fragmentation mask is fixed at boot.
	base, err := k.Mmap(p, uint64(c.PagesPerProc)*4096, kernel.MmapOpts{Writable: true})
	if err != nil {
		return err
	}
	sl.hugeBase = 0
	if c.HugePages > 0 {
		hb, err := k.Mmap(p, uint64(c.HugePages)*4096, kernel.MmapOpts{Writable: true, THP: true})
		if err != nil {
			return err
		}
		sl.hugeBase = hb
	}
	sl.proc, sl.base = p, base
	for i := range sl.next {
		sl.next[i] = i
	}
	d.spawned++
	return nil
}

// Batch deals the thread's next chunk of untouched pages as stores.
func (d *churnDriver) Batch(ti int, buf []hw.AccessOp) int {
	sl, i := d.slots[ti/d.perSlot], ti%d.perSlot
	if sl.proc == nil {
		return 0
	}
	total := d.c.PagesPerProc + d.c.HugePages
	n := 0
	for ; n < len(buf) && sl.next[i] < total; n++ {
		idx := sl.next[i]
		va := sl.base + pt.VirtAddr(uint64(idx)*4096)
		if idx >= d.c.PagesPerProc {
			va = sl.hugeBase + pt.VirtAddr(uint64(idx-d.c.PagesPerProc)*4096)
		}
		buf[n] = hw.AccessOp{VA: va, Write: true}
		sl.next[i] += d.perSlot
	}
	if n > 0 {
		sl.live = true
	}
	return n
}

// Barrier retires finished processes in canonical socket order, spawning
// replacements while the stream lasts, and ends the run once no socket
// hosts a process.
func (d *churnDriver) Barrier(int) ([]numa.CoreID, bool, error) {
	running := false
	for _, sl := range d.slots {
		if sl.proc != nil && !sl.live {
			d.k.DestroyProcess(sl.proc)
			sl.proc = nil
			d.exited++
			if d.spawned < d.c.Procs {
				if err := d.spawn(sl); err != nil {
					return nil, true, err
				}
			}
		}
		sl.live = false
		running = running || sl.proc != nil
	}
	return nil, !running, nil
}

// RunChurn executes a churn run on the round engine. See Churn for the
// determinism contract.
func RunChurn(c Churn) (*ChurnResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.normalize()
	sys := AcquireSystem(c.Machine)
	defer sys.Release()
	k := sys.k
	topo := k.Topology()
	m := k.Machine()
	// Churn reads no access sample.
	m.SetSampling(false)
	defer m.SetSampling(true)

	if c.Fragmentation > 0 {
		r := rand.New(rand.NewSource(c.Seed))
		for n := 0; n < topo.Nodes(); n++ {
			k.Mem().Fragment(numa.NodeID(n), c.Fragmentation, r)
		}
	}
	if c.Pressure > 0 {
		// Leave node 0 only the unpressured share of one process's
		// footprint above the floor: the storm crosses it Pressure of the
		// way through faulting in, and every later allocation reclaims from
		// node 1. Keyed to the node's free count at boot so the floor
		// tracks boot-time overhead, not raw capacity.
		pm := k.Mem()
		need := uint64(c.PagesPerProc) + uint64(c.HugePages) + 128
		usable := uint64((1 - c.Pressure) * float64(need))
		if free := pm.FreeFrames(numa.NodeID(0)); free > usable {
			pm.SetPressure(numa.NodeID(0), free-usable)
		}
	}

	d := &churnDriver{k: k, c: c, perSlot: topo.CoresPerSocket()}
	var cores []numa.CoreID
	for s := range c.Sockets {
		sl := &churnSlot{socket: numa.SocketID(s), cores: topo.CoresOf(numa.SocketID(s)), next: make([]int, d.perSlot)}
		d.slots = append(d.slots, sl)
		cores = append(cores, sl.cores...)
	}

	start := time.Now()
	for _, sl := range d.slots[:min(c.Sockets, c.Procs)] {
		if err := d.spawn(sl); err != nil {
			return nil, err
		}
	}
	mode := workloads.Parallel
	if c.Workers == 1 {
		mode = workloads.Sequential
	}
	// A core touches at most its share of a process's pages in one round,
	// so an oversized chunk runs the same rounds without the buffers it
	// names.
	perCore := (c.PagesPerProc + c.HugePages + d.perSlot - 1) / d.perSlot
	loop := workloads.Loop{Name: "churn", Mode: mode, Batch: min(c.Chunk, perCore)}
	workers, err := loop.Run(m, cores, d)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()

	var sum hw.CoreStats
	for core := 0; core < topo.Cores(); core++ {
		st := m.Stats(numa.CoreID(core))
		sum.Merge(&st)
	}
	res := &ChurnResult{Churn: c, Spawned: d.spawned, Exited: d.exited, Workers: workers, WallSec: wall,
		Ops: sum.Ops, Faults: sum.Faults, Cycles: uint64(sum.Cycles), FaultCycles: uint64(sum.FaultCycles)}
	hist := m.FaultLatency()
	res.FaultHist = make([]uint64, len(hist))
	copy(res.FaultHist, hist[:])
	res.P50 = uint64(hist.Percentile(0.50))
	res.P95 = uint64(hist.Percentile(0.95))
	res.P99 = uint64(hist.Percentile(0.99))
	if wall > 0 {
		res.HostOpsPerSec = float64(res.Ops) / wall
		res.HostFaultsPerSec = float64(res.Faults) / wall
	}
	return res, nil
}

// DeterministicEquals reports whether two churn results agree on every
// deterministic field (spec, counts, counters, histogram) — the replay
// bit-identity check. Host-side wall-clock and throughput fields are
// excluded, as is the worker count.
func (r *ChurnResult) DeterministicEquals(o *ChurnResult) bool {
	if r.Spawned != o.Spawned || r.Exited != o.Exited ||
		r.Ops != o.Ops || r.Faults != o.Faults ||
		r.Cycles != o.Cycles || r.FaultCycles != o.FaultCycles ||
		r.P50 != o.P50 || r.P95 != o.P95 || r.P99 != o.P99 ||
		len(r.FaultHist) != len(o.FaultHist) {
		return false
	}
	for i := range r.FaultHist {
		if r.FaultHist[i] != o.FaultHist[i] {
			return false
		}
	}
	return true
}
