// Package hw is the simulated hardware execution engine: per-core
// translation state (owned by a pluggable translate.Backend), per-socket
// LLC models for page-table lines, and the access/batch execution paths.
// It executes memory accesses against a page-table in simulated physical
// memory and charges NUMA-aware cycle costs, producing the per-core cycle
// and page-walk counters every experiment in the paper reads through perf.
//
// The walk behaviours the paper's results depend on (per-level reads
// served by the socket's LLC or local/remote DRAM, paging-structure
// caches, raw Accessed/Dirty stores into the walked replica, exclusive
// leaf-line ownership on store walks — §3, §5.4, Figures 9b/10b) live in
// the default x86-64 backend in package translate; the machine owns what
// is backend-independent: batching, the round-barrier coherence and
// sampling buffers, the fault retry loop, cost constants, and the
// single-writer LLC discipline.
package hw

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// ErrNoContext is returned when a core accesses memory without a loaded
// address space.
var ErrNoContext = errors.New("hw: core has no address space loaded")

// ErrSegfault is returned when a fault cannot be resolved by the handler.
var ErrSegfault = errors.New("hw: unresolvable page fault")

// ErrMachineCheck is returned when an access touches a frame carrying an
// uncorrectable ECC error — the simulated MCE. Under the fault-injection
// contract (poison injected and recovered at the same round barrier) a
// correctly recovered run never raises it: the guard actively enforces
// the "no walk reads a poisoned frame after recovery" invariant. The
// check arms only while poisoned frames exist, so fault-free runs pay one
// counter load per batch and nothing per op.
var ErrMachineCheck = errors.New("hw: machine check exception (poisoned frame)")

// FaultHandler resolves page faults: the simulator's kernel entry point.
// It returns the cycles the fault handling consumed (charged to the
// faulting core, outside walk cycles).
//
// The handler must be safe for concurrent calls from different cores: the
// parallel engine drives each socket on its own goroutine, and cores of
// *different processes* may fault simultaneously. The kernel implements
// this with per-process fault locks (sharded mmap_sem) — faults of the
// same process serialize, faults of different processes run concurrently.
type FaultHandler interface {
	HandleFault(core numa.CoreID, va pt.VirtAddr, write bool) (numa.Cycles, error)
}

// CoreStats holds one core's hardware counters (the perf values the paper
// reads: execution cycles and TLB load/store miss walk cycles, §3.2).
// The schema is defined in package translate so backends can charge walk
// counters without importing hw.
type CoreStats = translate.CoreStats

type coreState struct {
	// tctx is the core's backend context: the loaded translation
	// registers (CR3, levels, virt roots), the socket's LLC, and the
	// per-call stats pointer. Its topology fields are fixed at
	// construction; the machine mutates the rest at context switches
	// and around backend calls.
	tctx translate.Ctx
	// xc is the core's translation state (TLB/PSC or whatever the
	// backend keeps), built by the machine's backend.
	xc translate.Core
	// dataHitRate is the probability a data access hits the cache
	// hierarchy (workload-locality model).
	dataHitRate float64
	// walkOverlap scales charged walk latency: out-of-order execution
	// overlaps independent page walks with other work (§3.2 of the paper
	// notes parts of walks may be overlapped), so workloads with high
	// memory-level parallelism hide part of the walk cost. 1.0 = fully
	// exposed (dependent pointer chases), lower = partially hidden.
	walkOverlap float64
	rng         uint64
	// stats are the core's counters: batches charge them in place, and
	// tctx.Stats points at them for the backend's walk counters.
	stats CoreStats
	// pending buffers the page-table lines this core's store walks took
	// exclusive ownership of since the last coherence apply. A barrier
	// (DrainCoherence, or the ApplyCoherenceTo/ClearCoherence pair)
	// applies them to other sockets' LLCs at a deterministic point; events
	// accumulate across batches until then.
	pending []mmucache.LineID
	// samples buffers this core's access samples (one per data access
	// while sampling is on). Like pending, a barrier folds them into
	// FrameMeta in canonical core order (FoldSampling), so the hot path
	// appends to a core-private slice instead of updating a shared
	// frame-metadata cache line per op. Fold order reproduces the
	// sequential engine's update order exactly, so AutoNUMA and the tier
	// tracker observe identical state at every quiescent point.
	samples []Sample
	// busy is 1 while an AccessBatch executes on this core;
	// engaged is 1 for the whole duration of a parallel engine run
	// (BeginConcurrent/EndConcurrent), covering the instants between a
	// worker's consecutive batches. The kernel's fault path consults
	// both (CoreBusy) to decide whether a process's cores are quiescent
	// enough to collapse its page-table replicas under memory pressure.
	busy    atomic.Int32
	engaged atomic.Int32
	// faultLat is this core's fault-latency histogram: one entry per
	// fault taken on this core, bucketed by the simulated cycles the
	// handler charged. Kept out of CoreStats deliberately — merge/Sub
	// deltas and policy telemetry don't want a 48-counter array; the
	// aggregate view is Machine.FaultLatency.
	faultLat FaultLatHist
}

// rngSeed is core i's deterministic locality-model RNG seed (golden-ratio
// stride so neighbouring cores decorrelate immediately).
func rngSeed(i int) uint64 {
	return uint64(i)*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3
}

// Sample is a run of buffered access samples: Count consecutive data
// accesses by one core to Frame, the 4KB frame the access touched, inside
// the page mapped at VA (its base), all local or all remote. Run-length
// encoding keeps tight loops (the TLB-hit fast path re-touching one page)
// from growing the buffer at all.
type Sample struct {
	Frame mem.FrameID
	VA    pt.VirtAddr
	Count uint32
	Local bool
}

// SampleSink receives the samples a barrier folds, core by core in the
// fold's order: the kernel hands them to the tier engine of the process
// running on the core. runs is only valid during the call.
type SampleSink interface {
	FoldedSamples(core numa.CoreID, runs []Sample)
}

// Config assembles a Machine.
type Config struct {
	Topology *numa.Topology
	Cost     *numa.CostModel
	Mem      *mem.PhysMem
	// Backend supplies the translation hardware model (translate.New).
	Backend translate.Backend
}

// Machine is the hardware: cores with backend-owned translation state,
// per-socket LLCs, and the execution paths.
type Machine struct {
	topo    *numa.Topology
	cost    *numa.CostModel
	pm      *mem.PhysMem
	backend translate.Backend
	cores   []coreState
	llcs    []*mmucache.LLC
	fault   FaultHandler
	sink    SampleSink
	// sampling is whether data accesses buffer samples (SetSampling).
	sampling bool
	// cPipeline/cLLCHit cache the immutable cost constants so the
	// per-op path loads a field instead of calling through the cost model.
	cPipeline numa.Cycles
	cLLCHit   numa.Cycles
	// dramNodes caches Topology.DRAMNodes(): nodes at or above this index
	// are slow-tier (CXL/NVM), so the per-access tier accounting is one
	// integer compare.
	dramNodes int
	// singleWriter marks the machine as running under the round-based
	// engine's single-writer discipline: every socket's cores are driven
	// by at most one goroutine at a time, and cross-socket LLC
	// invalidations happen only at quiescent barriers. Page-table line
	// lookups then skip the LLC mutex entirely (see DESIGN.md, "Host
	// performance & the single-writer LLC").
	singleWriter bool
}

// BeginSingleWriter declares that, until EndSingleWriter, each socket's
// cores are driven from at most one goroutine at a time and coherence is
// applied only at quiescent points — the round-based engine's discipline.
// Access/AccessBatch then use the lock-free LLC path. Callers that drive
// cores of one socket from multiple goroutines concurrently (hand-rolled
// worker loops) must NOT set this. Set/clear it only at quiescent points.
func (m *Machine) BeginSingleWriter() { m.setSingleWriter(true) }

// EndSingleWriter reverts to the fully locked LLC path.
func (m *Machine) EndSingleWriter() { m.setSingleWriter(false) }

func (m *Machine) setSingleWriter(on bool) {
	m.singleWriter = on
	for i := range m.cores {
		m.cores[i].tctx.Owned = on
	}
}

// New builds the machine.
func New(cfg Config) *Machine {
	if cfg.Topology == nil || cfg.Cost == nil || cfg.Mem == nil || cfg.Backend == nil {
		panic("hw: Config requires Topology, Cost, Mem and Backend")
	}
	m := &Machine{
		topo:      cfg.Topology,
		cost:      cfg.Cost,
		pm:        cfg.Mem,
		backend:   cfg.Backend,
		cores:     make([]coreState, cfg.Topology.Cores()),
		llcs:      make([]*mmucache.LLC, cfg.Topology.Sockets()),
		cPipeline: cfg.Cost.PipelineOp(),
		cLLCHit:   cfg.Cost.LLCHit(),
		dramNodes: cfg.Topology.DRAMNodes(),
		sampling:  true,
	}
	for i := range m.llcs {
		m.llcs[i] = mmucache.NewLLC(mmucache.DefaultLLCConfig())
	}
	for i := range m.cores {
		c := &m.cores[i]
		socket := m.topo.SocketOf(numa.CoreID(i))
		c.tctx = translate.Ctx{
			Core:    numa.CoreID(i),
			Socket:  socket,
			Home:    m.topo.NodeOf(socket),
			CR3:     mem.NilFrame,
			LLC:     m.llcs[socket],
			Stats:   &c.stats,
			Pending: &c.pending,
		}
		c.xc = cfg.Backend.NewCore(i)
		c.dataHitRate = 0
		c.walkOverlap = 1.0
		c.rng = rngSeed(i)
	}
	return m
}

// Topology returns the machine topology.
func (m *Machine) Topology() *numa.Topology { return m.topo }

// Cost returns the cost model.
func (m *Machine) Cost() *numa.CostModel { return m.cost }

// Mem returns the physical memory.
func (m *Machine) Mem() *mem.PhysMem { return m.pm }

// Backend returns the machine's translation backend.
func (m *Machine) Backend() translate.Backend { return m.backend }

// SetFaultHandler installs the kernel's fault entry point.
func (m *Machine) SetFaultHandler(h FaultHandler) { m.fault = h }

// SetSampleSink installs the receiver of folded samples.
func (m *Machine) SetSampleSink(s SampleSink) { m.sink = s }

// SetSampling turns access sampling on or off. Sampling is on after New
// and Reset; a run that nothing reads samples from turns it off for its
// duration, so its accesses buffer nothing and its barriers fold nothing.
// Call it only at a quiescent point with the sample buffers folded.
func (m *Machine) SetSampling(on bool) { m.sampling = on }

// LoadContext is the context-switch: it programs the core's page-table
// root (write_cr3) and flushes the core's translation caches. With
// Mitosis, the kernel passes the socket-local replica root (§5.3).
func (m *Machine) LoadContext(core numa.CoreID, root mem.FrameID, levels uint8) {
	c := m.core(core)
	c.tctx.CR3 = root
	c.tctx.Levels = levels
	c.tctx.Virt = false
	c.tctx.GuestRoot = 0
	c.tctx.NestedLevels = 0
	c.xc.FlushContext(&c.tctx)
	// CR3 write plus pipeline drain.
	c.stats.Cycles += 300
}

// LoadVirtContext is the virtualized context-switch (VM entry): it
// programs the core's guest root (guest CR3, as a guest-physical frame
// number) and nested root (nCR3), and flushes the translation caches.
// TLB misses on a virtualized core perform the two-dimensional walk of
// §7.4 — each guest level's table gPA is translated through the nested
// table — with the composed gVA->hPA leaf cached in the ordinary TLB.
// With gPT/ePT replication the kernel passes the socket-local roots of
// both dimensions.
func (m *Machine) LoadVirtContext(core numa.CoreID, guestRoot uint64, nestedRoot mem.FrameID, guestLevels, nestedLevels uint8) {
	c := m.core(core)
	c.tctx.CR3 = nestedRoot
	c.tctx.Levels = guestLevels
	c.tctx.Virt = true
	c.tctx.GuestRoot = guestRoot
	c.tctx.NestedLevels = nestedLevels
	c.xc.FlushContext(&c.tctx)
	// VM entry: CR3/nCR3 programming plus pipeline drain.
	c.stats.Cycles += 300
}

// ClearContext detaches the core from any address space.
func (m *Machine) ClearContext(core numa.CoreID) {
	c := m.core(core)
	c.tctx.CR3 = mem.NilFrame
	c.tctx.Levels = 0
	c.tctx.Virt = false
	c.tctx.GuestRoot = 0
	c.tctx.NestedLevels = 0
	c.xc.FlushContext(&c.tctx)
}

// ContextRoot returns the root currently loaded on core (CR3).
func (m *Machine) ContextRoot(core numa.CoreID) mem.FrameID { return m.core(core).tctx.CR3 }

// SetDataLocality sets the probability that core's data accesses hit in
// the cache hierarchy (a workload-locality parameter; page-table lines are
// modelled exactly, data lines statistically).
func (m *Machine) SetDataLocality(core numa.CoreID, hitRate float64) {
	if hitRate < 0 || hitRate > 1 {
		panic(fmt.Sprintf("hw: data hit rate %v out of [0,1]", hitRate))
	}
	m.core(core).dataHitRate = hitRate
}

// SetWalkOverlap sets the fraction of page-walk latency exposed on core's
// critical path. Workloads with independent accesses (high memory-level
// parallelism) overlap walks with other work and expose less.
func (m *Machine) SetWalkOverlap(core numa.CoreID, exposed float64) {
	if exposed <= 0 || exposed > 1 {
		panic(fmt.Sprintf("hw: walk overlap %v out of (0,1]", exposed))
	}
	m.core(core).walkOverlap = exposed
}

// Stats returns a copy of core's counters.
func (m *Machine) Stats(core numa.CoreID) CoreStats { return m.core(core).stats }

// SocketStats aggregates the counters of every core of socket s — the
// per-socket telemetry feed replication policies tick on. Call it only at a
// quiescent point (no batch in flight on s's cores).
func (m *Machine) SocketStats(s numa.SocketID) CoreStats {
	var agg CoreStats
	first := int(m.topo.FirstCoreOf(s))
	for c := first; c < first+m.topo.CoresPerSocket(); c++ {
		agg.Merge(&m.cores[c].stats)
	}
	return agg
}

// TLBStats returns core's TLB counters.
func (m *Machine) TLBStats(core numa.CoreID) tlb.Stats { return m.core(core).xc.TLBStats() }

// LLCResident returns the number of lines socket s's page-table-line cache
// holds. Call it only at a quiescent point.
func (m *Machine) LLCResident(s numa.SocketID) int { return m.llcs[s].Resident() }

// ResetStats zeroes all counters on all cores (not the cache contents).
func (m *Machine) ResetStats() {
	for i := range m.cores {
		m.cores[i].stats = CoreStats{}
		m.cores[i].xc.ResetStats()
		m.cores[i].faultLat = FaultLatHist{}
	}
}

// Reset restores the machine to its just-built state: contexts unloaded,
// translation caches and LLCs as freshly constructed, locality models
// rewound, stats and buffered coherence/sampling events dropped. Callers
// must be quiescent (no run in flight). Buffer capacities are kept so a
// recycled machine re-runs without reallocating them; a reset machine is
// behaviourally indistinguishable from a new one.
func (m *Machine) Reset() {
	for i := range m.cores {
		c := &m.cores[i]
		c.tctx.CR3 = mem.NilFrame
		c.tctx.Levels = 0
		c.tctx.Virt = false
		c.tctx.GuestRoot = 0
		c.tctx.NestedLevels = 0
		c.tctx.Owned = false
		c.xc.Reset()
		c.dataHitRate = 0
		c.walkOverlap = 1.0
		c.rng = rngSeed(i)
		c.stats = CoreStats{}
		c.faultLat = FaultLatHist{}
		c.pending = c.pending[:0]
		c.samples = c.samples[:0]
		c.busy.Store(0)
		c.engaged.Store(0)
	}
	for _, l := range m.llcs {
		l.Reset()
	}
	m.singleWriter = false
	m.sampling = true
}

// AddCycles charges extra cycles to a core: the kernel uses it to bill
// system-call and fault-handling work.
func (m *Machine) AddCycles(core numa.CoreID, cy numa.Cycles) {
	m.core(core).stats.Cycles += cy
}

// AccessOp is one memory operation of a batch: a virtual address and the
// load/store direction.
type AccessOp struct {
	VA    pt.VirtAddr
	Write bool
}

// AccessBatch executes a batch of memory operations on core, amortizing the
// per-op overhead (core and context resolution) across the batch. It
// consults the translation caches, walks the page-table on a miss (taking
// page faults through the fault handler as needed), and charges all cycle
// costs. Cross-socket invalidations triggered by store walks and the
// AutoNUMA access samples are NOT applied inline: they accumulate in the
// core's buffers — across batches, until the caller runs a barrier
// (DrainCoherence, or the ApplyCoherenceTo/ClearCoherence/FoldSampling
// steps it is made of). Deferring both to a deterministic point is what
// makes concurrent per-core batches produce bit-identical counters to a
// sequential run.
//
// AccessBatch on the same core is not safe for concurrent use; different
// cores may run concurrently (the parallel engine's contract — see
// DESIGN.md for which operations additionally require quiescence).
//
// On error, ops executed before the failing one remain charged, mirroring a
// partially executed instruction stream.
func (m *Machine) AccessBatch(core numa.CoreID, ops []AccessOp) error {
	c := m.core(core)
	if c.tctx.CR3 == mem.NilFrame {
		return ErrNoContext
	}
	socket := c.tctx.Socket
	home := c.tctx.Home
	armed := m.pm.PoisonCount() > 0
	c.busy.Store(1)
	var err error
	for i := range ops {
		if err = m.accessOne(c, core, socket, home, ops[i].VA, ops[i].Write, armed); err != nil {
			break
		}
	}
	c.busy.Store(0)
	return err
}

// CoreBusy reports whether core is executing an AccessBatch or is
// enrolled in a concurrent engine run. The kernel's memory-pressure path
// uses it to avoid tearing down page-table replicas (and reloading CR3)
// under cores that may be mid-batch. The per-batch busy flag alone would
// race: a worker's flag drops between consecutive batches of the same
// round, so concurrent runs additionally pin their cores with
// BeginConcurrent for the whole run.
func (m *Machine) CoreBusy(core numa.CoreID) bool {
	c := m.core(core)
	return c.busy.Load() != 0 || c.engaged.Load() != 0
}

// BeginConcurrent marks the given cores as enrolled in a concurrent
// engine run until EndConcurrent: batches will execute on them from other
// goroutines, so quiescence-requiring paths (replica reclaim) must treat
// them as busy even between batches. Sequential runs need no enrollment —
// a fault there is the only execution in flight, exactly the pre-engine
// regime.
func (m *Machine) BeginConcurrent(cores []numa.CoreID) {
	for _, core := range cores {
		m.core(core).engaged.Store(1)
	}
}

// EndConcurrent clears the enrollment set by BeginConcurrent.
func (m *Machine) EndConcurrent(cores []numa.CoreID) {
	for _, core := range cores {
		m.core(core).engaged.Store(0)
	}
}

// accessOne is AccessBatch's per-op path. Cycle and counter charges go to
// c.stats; coherence ownership events go to c.pending, AutoNUMA samples
// to c.samples. home is socket's local memory node, resolved once per call
// by the caller. The backend handles the
// translation caches and the walk; the machine charges the pipeline,
// scales walk latency by the core's overlap model, and runs the
// statistical data-cache model.
func (m *Machine) accessOne(c *coreState, core numa.CoreID, socket numa.SocketID, home numa.NodeID, va pt.VirtAddr, write bool, armed bool) error {
	st := &c.stats
	st.Ops++
	cycles := m.cPipeline

	// MCE guard, armed only while poisoned frames exist: a walk starting
	// from a poisoned root traps before translating.
	if armed && m.pm.Poisoned(c.tctx.CR3) {
		st.Cycles += cycles
		return fmt.Errorf("%w: core %d root frame %d", ErrMachineCheck, core, c.tctx.CR3)
	}

	entry, probeCy, ok := c.xc.Probe(&c.tctx, va, write)
	cycles += probeCy
	node := numa.InvalidNode
	if ok {
		node = entry.Node
	} else {
		leaf, size, walkCy, err := m.walk(c, core, va, write, st)
		if err != nil {
			st.Cycles += cycles
			return err
		}
		walkCy = numa.Cycles(float64(walkCy) * c.walkOverlap)
		st.Walks++
		st.WalkCycles += walkCy
		cycles += walkCy
		// The mapping's node rides along in the cached translation, so
		// hits skip the frame->node computation; mappings spanning nodes
		// cache InvalidNode and recompute per access below.
		node = m.pm.NodeOfRange(leaf.Frame(), size.Bytes()>>pt.PageShift4K)
		c.xc.Fill(&c.tctx, va, leaf, size, node)
		entry = &tlb.Entry{VPN: uint64(va) >> uint(sizeShift(size)), Leaf: leaf, Size: size}
	}
	frame := entry.Frame(va)
	if node == numa.InvalidNode {
		node = m.pm.NodeOf(frame)
	}

	if armed && m.pm.Poisoned(frame) {
		st.Cycles += cycles
		return fmt.Errorf("%w: core %d va %#x data frame %d", ErrMachineCheck, core, uint64(va), frame)
	}

	// Data access cost: statistically cached, else DRAM at the frame's
	// node (with interference).
	local := node == home
	if m.nextRand(c) < c.dataHitRate {
		cycles += m.cLLCHit
	} else {
		cycles += m.cost.DRAM(socket, node)
		st.DataMemAccesses++
		if !local {
			st.DataRemoteAccesses++
			if int(node) >= m.dramNodes {
				st.DataTierAccesses++
			}
		}
	}

	// Buffer the access sample for AutoNUMA and the tier tracker; folded
	// into FrameMeta at the next quiescent point. Consecutive samples of
	// the same frame collapse into one run: between two folds a frame
	// backs one page, since data frames are freed only at barriers.
	if m.sampling {
		if n := len(c.samples); n > 0 && c.samples[n-1].Frame == frame && c.samples[n-1].Local == local {
			c.samples[n-1].Count++
		} else {
			c.samples = append(c.samples, Sample{Frame: frame, VA: pt.PageBase(va, entry.Size), Count: 1, Local: local})
		}
	}

	st.Cycles += cycles
	return nil
}

// walk drives the backend's single-walk attempts for va on core,
// including fault handling and retry. Returns the leaf PTE, its page
// size, and the walk's cycle cost (fault handling is charged separately,
// to st).
func (m *Machine) walk(c *coreState, core numa.CoreID, va pt.VirtAddr, write bool, st *CoreStats) (pt.PTE, pt.PageSize, numa.Cycles, error) {
	const maxFaults = 4
	faults := 0

	for {
		leaf, size, cy, ok := c.xc.WalkOnce(&c.tctx, va, write)
		if ok {
			return leaf, size, cy, nil
		}
		// Page fault: charge the partial walk, then trap to the kernel.
		st.WalkCycles += cy
		st.Cycles += cy
		faults++
		if m.fault == nil || faults > maxFaults {
			return 0, 0, 0, fmt.Errorf("%w: core %d va %#x", ErrSegfault, core, uint64(va))
		}
		st.Faults++
		faultCy, err := m.fault.HandleFault(core, va, write)
		st.FaultCycles += faultCy
		st.Cycles += faultCy
		c.faultLat.add(faultCy)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%w: core %d va %#x: %v", ErrSegfault, core, uint64(va), err)
		}
	}
}

// DrainCoherence is the barrier: it applies the coherence events the given
// cores buffered to every socket's LLC (ApplyCoherenceTo, in core order),
// clears the buffers and folds the cores' AutoNUMA samples into frame
// metadata in the same order. Call it at a quiescent point (no batch in
// flight on any core). The order is part of the determinism contract: a
// fixed core list yields a fixed sequence of LLC invalidations and
// metadata updates.
func (m *Machine) DrainCoherence(cores []numa.CoreID) {
	for s := range m.llcs {
		m.ApplyCoherenceTo(numa.SocketID(s), cores)
	}
	m.ClearCoherence(cores)
	m.FoldSampling(cores)
}

// FoldSampling folds the access samples buffered by the given cores into
// frame metadata, in core order, hands each core's runs to the sample
// sink, and clears the buffers. Call it only at quiescent points (round
// barriers): the fold mutates shared FrameMeta without atomics. Folding
// per-core buffers in canonical core order reproduces the sequential
// engine's update order exactly, which keeps AutoNUMA and tiering
// decisions — and therefore all counters — bit-identical across engine
// modes.
func (m *Machine) FoldSampling(cores []numa.CoreID) {
	for _, core := range cores {
		c := m.core(core)
		if len(c.samples) == 0 {
			continue
		}
		for _, s := range c.samples {
			m.pm.SampleAccess(s.Frame, c.tctx.Socket, s.Local, s.Count)
		}
		if m.sink != nil {
			m.sink.FoldedSamples(core, c.samples)
		}
		c.samples = c.samples[:0]
	}
}

// ApplyCoherenceTo applies buffered coherence events from the given cores
// (in the given order) to target's LLC only, skipping cores that live on
// target — a socket's own store walks do not invalidate its own cache.
// The engine's coordinator runs this for every socket at a round barrier,
// once no batch is in flight, so each LLC sees events in the canonical
// core order. Buffers are left in place (other targets still need them);
// clear them afterwards with ClearCoherence at the same barrier. A target
// LLC that holds no lines has nothing to invalidate and is skipped.
func (m *Machine) ApplyCoherenceTo(target numa.SocketID, cores []numa.CoreID) {
	llc := m.llcs[target]
	if llc.Resident() == 0 {
		return
	}
	owned := m.singleWriter
	for _, core := range cores {
		c := m.core(core)
		if c.tctx.Socket == target {
			continue
		}
		for _, line := range c.pending {
			if owned {
				llc.InvalidateOwned(line)
			} else {
				llc.Invalidate(line)
			}
		}
	}
}

// ClearCoherence drops the buffered coherence events of the given cores
// without applying them. Use only after every target socket has run
// ApplyCoherenceTo (or to discard events deliberately).
func (m *Machine) ClearCoherence(cores []numa.CoreID) {
	for _, core := range cores {
		c := m.core(core)
		c.pending = c.pending[:0]
	}
}

// ShootdownPage performs a TLB shootdown for va: the initiating core pays
// the IPI round-trip cost and every target core (plus the initiator) drops
// its translation for va. The kernel calls this after unmapping or
// remapping a page.
func (m *Machine) ShootdownPage(initiator numa.CoreID, va pt.VirtAddr, targets []numa.CoreID) {
	const ipiCost = 2000 // cycles for IPI send + acks
	init := m.core(initiator)
	init.xc.ShootdownPage(&init.tctx, va)
	others := 0
	for _, t := range targets {
		if t == initiator {
			continue
		}
		tc := m.core(t)
		tc.xc.ShootdownPage(&tc.tctx, va)
		others++
	}
	if others > 0 {
		init.stats.Cycles += ipiCost
	}
}

// ShootdownRange performs one batched TLB shootdown for a set of pages:
// a single IPI round-trip regardless of page count (Linux's
// flush_tlb_range), with each core's backend applying its own
// full-flush threshold (x86's tlb_single_page_flush_ceiling behaviour).
func (m *Machine) ShootdownRange(initiator numa.CoreID, vas []pt.VirtAddr, targets []numa.CoreID) {
	if len(vas) == 0 {
		return
	}
	const ipiCost = 2000
	init := m.core(initiator)
	init.xc.ShootdownRange(&init.tctx, vas)
	others := 0
	for _, t := range targets {
		if t == initiator {
			continue
		}
		tc := m.core(t)
		tc.xc.ShootdownRange(&tc.tctx, vas)
		others++
	}
	if others > 0 {
		init.stats.Cycles += ipiCost
	}
}

func (m *Machine) core(c numa.CoreID) *coreState {
	if c < 0 || int(c) >= len(m.cores) {
		panic(fmt.Sprintf("hw: core %d out of range [0,%d)", c, len(m.cores)))
	}
	return &m.cores[c]
}

// nextRand advances the core's deterministic LCG and returns a float in
// [0,1).
func (m *Machine) nextRand(c *coreState) float64 {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	return float64(c.rng>>11) / float64(1<<53)
}

func sizeShift(s pt.PageSize) int {
	switch s {
	case pt.Size4K:
		return 12
	case pt.Size2M:
		return 21
	default:
		return 30
	}
}
