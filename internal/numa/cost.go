package numa

import "fmt"

// CostParams holds the latency constants of the machine's memory hierarchy.
// The defaults reproduce the Mitosis evaluation platform (§8 of the paper):
// ~280 cycles to local DRAM and ~580 cycles to remote DRAM. Interference is
// modelled as a multiplicative latency factor on accesses that target the
// memory node being hogged, approximating queueing delay behind a
// bandwidth-heavy co-runner such as STREAM.
type CostParams struct {
	// LocalDRAM is the load-to-use latency of an access that hits the
	// memory node attached to the issuing socket.
	LocalDRAM Cycles
	// RemoteDRAM is the latency of an access crossing the interconnect to
	// another socket's memory node.
	RemoteDRAM Cycles
	// LLCHit is the latency of a hit in the issuing socket's last-level
	// cache.
	LLCHit Cycles
	// L2TLBHit is the extra lookup latency charged when a translation
	// misses the first-level TLB but hits the second level.
	L2TLBHit Cycles
	// PipelineOp is the base cost of executing one workload operation
	// excluding all memory-system latencies.
	PipelineOp Cycles
	// InterferenceFactor scales DRAM latency (local or remote) for
	// accesses that target a loaded node. A factor of 2.5 means a
	// bandwidth hog makes DRAM on that node 2.5x slower.
	InterferenceFactor float64

	// CXL is the load-to-use latency of a CXL-attached memory expander
	// reached from its home socket. Accesses from other sockets
	// additionally pay the cross-socket interconnect hop
	// (RemoteDRAM - LocalDRAM), mirroring how Linux distances compose.
	// Tier latencies only matter on tiered topologies; flat topologies
	// never read them.
	CXL Cycles
	// NVM is the read load-to-use latency of a non-volatile memory node
	// reached from its home socket (Optane-style app-direct mode).
	NVM Cycles

	// Kernel-side software costs. Unlike hardware page walks — whose
	// page-table reads mostly miss the caches because the table working
	// set is large — kernel page-table edits are cached stores and loads,
	// so they are charged small constants rather than DRAM round trips.
	// These drive the paper's Table 5 (VMA operation overhead) ratios.

	// PTEStore is the cost of one kernel PTE store (cached write).
	PTEStore Cycles
	// PTELoad is the cost of one kernel PTE load (cached read).
	PTELoad Cycles
	// RingHop is the cost of following one replica-ring pointer through
	// frame metadata (struct page is cache-hot).
	RingHop Cycles
	// PageZero is the cost of zeroing a fresh 4KB frame.
	PageZero Cycles
	// PTAllocInit is the allocator bookkeeping cost of one page-table
	// page allocation (excluding zeroing).
	PTAllocInit Cycles
}

// DefaultCostParams returns the cost constants calibrated against the
// paper's hardware configuration section.
func DefaultCostParams() CostParams {
	return CostParams{
		LocalDRAM:          280,
		RemoteDRAM:         580,
		LLCHit:             40,
		L2TLBHit:           7,
		PipelineOp:         4,
		InterferenceFactor: 2.5,
		CXL:                900,
		NVM:                1600,
		PTEStore:           12,
		PTELoad:            8,
		RingHop:            14,
		PageZero:           2800,
		PTAllocInit:        260,
	}
}

// CostModel charges cycle costs for memory accesses given the machine
// topology, the latency constants, and the current interference state.
// It is not safe for concurrent mutation; the simulator is single-threaded
// by design for determinism.
type CostModel struct {
	topo    *Topology
	params  CostParams
	sockets int
	nodes   int
	loaded  []bool // per node: is a bandwidth hog running against it?
	// dram[s*nodes+n] is the precomputed DRAM latency from socket s to
	// node n including the current interference state, so the per-access
	// hot path is one table load instead of locality checks and float
	// scaling. Rebuilt by recompute() whenever interference changes.
	dram []Cycles
}

// NewCostModel returns a cost model for topology t with parameters p.
func NewCostModel(t *Topology, p CostParams) *CostModel {
	if p.LocalDRAM == 0 || p.RemoteDRAM == 0 {
		panic("numa: cost params must set LocalDRAM and RemoteDRAM")
	}
	if p.RemoteDRAM < p.LocalDRAM {
		panic(fmt.Sprintf("numa: remote latency %d below local latency %d", p.RemoteDRAM, p.LocalDRAM))
	}
	if p.InterferenceFactor < 1 {
		panic(fmt.Sprintf("numa: interference factor %v must be >= 1", p.InterferenceFactor))
	}
	if t.Tiered() && (p.CXL == 0 || p.NVM == 0) {
		panic("numa: tiered topology needs CXL and NVM latencies in cost params")
	}
	m := &CostModel{
		topo:    t,
		params:  p,
		sockets: t.Sockets(),
		nodes:   t.Nodes(),
		loaded:  make([]bool, t.Nodes()),
		dram:    make([]Cycles, t.Sockets()*t.Nodes()),
	}
	m.recompute()
	return m
}

// recompute rebuilds the socket x node DRAM latency table from the
// parameters and the current interference marks. Slow-tier nodes cost the
// tier's home-socket latency plus — from every other socket — the same
// interconnect hop remote DRAM pays over local; the flat-DRAM rows are
// untouched by the tier extension, so flat configs get bit-identical
// tables.
func (m *CostModel) recompute() {
	nodes := m.topo.Nodes()
	for s := 0; s < m.topo.Sockets(); s++ {
		for n := 0; n < nodes; n++ {
			var base Cycles
			switch m.topo.TierOf(NodeID(n)) {
			case TierDRAM:
				base = m.params.RemoteDRAM
				if m.topo.IsLocal(SocketID(s), NodeID(n)) {
					base = m.params.LocalDRAM
				}
			case TierCXL:
				base = m.params.CXL
			case TierNVM:
				base = m.params.NVM
			}
			if n >= m.topo.DRAMNodes() && m.topo.SocketOfNode(NodeID(n)) != SocketID(s) {
				base += m.params.RemoteDRAM - m.params.LocalDRAM
			}
			if m.loaded[n] {
				base = Cycles(float64(base) * m.params.InterferenceFactor)
			}
			m.dram[s*nodes+n] = base
		}
	}
}

// Params returns the latency constants in use. They never change after
// NewCostModel, so callers read them in place, without copying the
// struct, and must not write through the pointer.
func (m *CostModel) Params() *CostParams { return &m.params }

// SetLoaded marks memory node n as hogged (or not) by a bandwidth-heavy
// interfering process. While loaded, DRAM accesses to n cost
// InterferenceFactor times their base latency.
func (m *CostModel) SetLoaded(n NodeID, loaded bool) {
	m.loaded[m.checkNode(n)] = loaded
	m.recompute()
}

// ClearLoads removes all interference marks.
func (m *CostModel) ClearLoads() {
	for i := range m.loaded {
		m.loaded[i] = false
	}
	m.recompute()
}

// DRAM returns the cost of a DRAM access from socket s to memory node n,
// including any interference penalty on n. Out-of-range arguments panic:
// a flat-table index alone would silently alias another socket's row
// (e.g. s=1, n=-1 lands on socket 0's last node), turning a caller bug
// into plausible-but-wrong cycle charges.
func (m *CostModel) DRAM(s SocketID, n NodeID) Cycles {
	if uint(s) >= uint(m.sockets) || uint(n) >= uint(m.nodes) {
		m.badDRAM(s, n)
	}
	return m.dram[int(s)*m.nodes+int(n)]
}

// badDRAM is outlined so DRAM's bounds check stays two compares and the
// function inlines into the access hot path.
func (m *CostModel) badDRAM(s SocketID, n NodeID) {
	panic(fmt.Sprintf("numa: DRAM(socket %d, node %d) out of range [0,%d)x[0,%d)", s, n, m.sockets, m.nodes))
}

// LLCHit returns the cost of a last-level cache hit.
func (m *CostModel) LLCHit() Cycles { return m.params.LLCHit }

// L2TLBHit returns the cost of a second-level TLB hit.
func (m *CostModel) L2TLBHit() Cycles { return m.params.L2TLBHit }

// PipelineOp returns the base per-operation cost.
func (m *CostModel) PipelineOp() Cycles { return m.params.PipelineOp }

func (m *CostModel) checkNode(n NodeID) int {
	if n < 0 || int(n) >= len(m.loaded) {
		panic(fmt.Sprintf("numa: node %d out of range [0,%d)", n, len(m.loaded)))
	}
	return int(n)
}

// FourSocketXeon returns the topology of the paper's evaluation machine:
// four sockets with 14 cores each (hyper-threading not modelled; the
// simulator schedules one logical thread per core).
func FourSocketXeon() *Topology { return NewTopology(4, 14) }
