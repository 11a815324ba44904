package mitosis

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Churn describes a datacenter-churn run: a stream of short-lived
// processes arriving, fault-storming their memory in, and exiting against
// a shared (optionally fragmented) machine. Each socket hosts one live
// process at a time; when it has touched all its pages it exits at a round
// barrier and the next process of the stream spawns in its place. Faults
// from different sockets therefore always belong to *different* processes
// — exactly the multi-process contention the sharded per-process fault
// lock removes and the legacy global lock serializes.
//
// The run is deterministic: spawn and exit happen only at round barriers
// in canonical socket order, each process allocates data and page-table
// pages on its own socket's node (first-touch), and every simulated
// counter — including the fault-latency histogram — is bit-identical for
// any Workers count and either lock mode. Only host-side throughput
// changes with the lock, which is what the churn benchmark measures.
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
	// GlobalLock selects the legacy machine-wide fault lock instead of
	// the sharded per-process locks: the measurement baseline.
	GlobalLock bool `json:"global_lock,omitempty"`
	// Workers is the number of host goroutines driving sockets: 0 = one
	// per active socket, 1 = fully sequential. Simulated outcomes are
	// identical for every value.
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
	if c.Workers <= 0 || c.Workers > c.Sockets {
		c.Workers = c.Sockets
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
// figures and WallSec is deterministic — bit-identical across Workers
// counts and lock modes — and is what replay verification compares.
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
	// Workers is the worker count actually used.
	Workers int `json:"workers"`
}

// churnSlot is one socket's live-process state. The coordinator mutates it
// only at barriers; the socket's worker reads and advances cursors only
// between barriers — the start/done channel handshake orders the two.
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
	ops  []hw.AccessOp // reusable batch buffer
	done bool          // live proc touched all its pages
}

// RunChurn executes a churn run. See Churn for the determinism contract.
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

	if c.Fragmentation > 0 {
		r := rand.New(rand.NewSource(c.Seed))
		for n := 0; n < topo.Nodes(); n++ {
			k.Mem().Fragment(numa.NodeID(n), c.Fragmentation, r)
		}
	}
	k.SetGlobalFaultLock(c.GlobalLock)
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

	slots := make([]*churnSlot, c.Sockets)
	for s := range slots {
		cores := topo.CoresOf(numa.SocketID(s))
		slots[s] = &churnSlot{
			socket: numa.SocketID(s),
			cores:  cores,
			next:   make([]int, len(cores)),
			ops:    make([]hw.AccessOp, 0, c.Chunk),
		}
	}

	spawned, exited := 0, 0
	spawn := func(sl *churnSlot) error {
		p, err := k.CreateProcess(kernel.ProcessOpts{
			Name: fmt.Sprintf("%s-%d", c.Name, spawned),
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
		sl.proc, sl.base, sl.done = p, base, false
		for i := range sl.next {
			sl.next[i] = i
		}
		spawned++
		return nil
	}
	// retire destroys a finished process at a barrier and spawns its
	// replacement while the stream lasts.
	retire := func(sl *churnSlot) error {
		m.DrainCoherence(sl.cores)
		k.DestroyProcess(sl.proc)
		sl.proc = nil
		exited++
		if spawned < c.Procs {
			return spawn(sl)
		}
		return nil
	}
	// round advances one slot by one chunk per core, in canonical core
	// order. It runs on the slot's worker goroutine.
	totalPages := c.PagesPerProc + c.HugePages
	round := func(sl *churnSlot) error {
		live := false
		for i, core := range sl.cores {
			sl.ops = sl.ops[:0]
			for n := 0; n < c.Chunk && sl.next[i] < totalPages; n++ {
				idx := sl.next[i]
				var va pt.VirtAddr
				if idx < c.PagesPerProc {
					va = sl.base + pt.VirtAddr(uint64(idx)*4096)
				} else {
					va = sl.hugeBase + pt.VirtAddr(uint64(idx-c.PagesPerProc)*4096)
				}
				sl.ops = append(sl.ops, hw.AccessOp{VA: va, Write: true})
				sl.next[i] += len(sl.cores)
			}
			if len(sl.ops) == 0 {
				continue
			}
			live = true
			if err := m.AccessBatch(core, sl.ops); err != nil {
				return err
			}
		}
		if !live {
			sl.done = true
		}
		return nil
	}

	start := time.Now()
	m.BeginSingleWriter()
	for s := 0; s < c.Sockets && spawned < c.Procs; s++ {
		if err := spawn(slots[s]); err != nil {
			m.EndSingleWriter()
			return nil, err
		}
	}
	// Persistent per-socket workers; the coordinator drives rounds and
	// performs all spawn/exit mutations at the barriers between them.
	// Workers capped below the socket count simply multiplex slots.
	type workerCh struct {
		start chan []*churnSlot
		done  chan error
	}
	var workers []workerCh
	if c.Workers > 1 {
		workers = make([]workerCh, c.Workers)
		for w := range workers {
			workers[w] = workerCh{start: make(chan []*churnSlot), done: make(chan error, 1)}
			go func(ch workerCh) {
				for batch := range ch.start {
					var err error
					for _, sl := range batch {
						if e := round(sl); e != nil && err == nil {
							err = e
						}
					}
					ch.done <- err
				}
			}(workers[w])
		}
	}
	var runErr error
	for {
		active := make([]*churnSlot, 0, len(slots))
		for _, sl := range slots {
			if sl.proc != nil {
				active = append(active, sl)
			}
		}
		if len(active) == 0 {
			break
		}
		if workers == nil {
			for _, sl := range active {
				if err := round(sl); err != nil {
					runErr = err
					break
				}
			}
		} else {
			// Deal active slots to workers round-robin; each worker runs
			// its share serially, so every socket still has exactly one
			// goroutine driving it (the single-writer LLC discipline).
			batches := make([][]*churnSlot, len(workers))
			for i, sl := range active {
				w := i % len(workers)
				batches[w] = append(batches[w], sl)
			}
			for w := range workers {
				if len(batches[w]) > 0 {
					workers[w].start <- batches[w]
				}
			}
			for w := range workers {
				if len(batches[w]) > 0 {
					if err := <-workers[w].done; err != nil && runErr == nil {
						runErr = err
					}
				}
			}
		}
		if runErr != nil {
			break
		}
		// Barrier: retire finished processes in canonical socket order.
		for _, sl := range active {
			if sl.done {
				if err := retire(sl); err != nil {
					runErr = err
					break
				}
			}
		}
		if runErr != nil {
			break
		}
	}
	if workers != nil {
		for w := range workers {
			close(workers[w].start)
		}
	}
	m.EndSingleWriter()
	if runErr != nil {
		return nil, runErr
	}
	wall := time.Since(start).Seconds()

	res := &ChurnResult{Churn: c, Spawned: spawned, Exited: exited, Workers: c.Workers, WallSec: wall}
	for core := 0; core < topo.Cores(); core++ {
		st := m.Stats(numa.CoreID(core))
		res.Ops += st.Ops
		res.Faults += st.Faults
		res.Cycles += uint64(st.Cycles)
		res.FaultCycles += uint64(st.FaultCycles)
	}
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
