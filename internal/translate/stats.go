package translate

import "github.com/mitosis-project/mitosis-sim/internal/numa"

// CoreStats is the counter schema backends charge translation work
// against: one core's hardware counters (the perf values the paper
// reads: execution cycles and TLB load/store miss walk cycles, §3.2).
// Package hw aliases it as hw.CoreStats; the walk-path counters
// (Walk*) are incremented by backends through Ctx.Stats, the rest by
// the machine itself.
type CoreStats struct {
	// Ops counts executed memory operations.
	Ops uint64
	// Cycles is total execution time.
	Cycles numa.Cycles
	// WalkCycles is the time the page walker was active.
	WalkCycles numa.Cycles
	// Walks counts completed page walks.
	Walks uint64
	// WalkMemAccesses counts page-table reads that went to DRAM.
	WalkMemAccesses uint64
	// WalkLLCHits counts page-table reads served by the LLC.
	WalkLLCHits uint64
	// WalkRemoteAccesses counts page-table DRAM reads to a remote node.
	WalkRemoteAccesses uint64
	// WalkRemoteCycles is the raw DRAM latency of the remote page-table
	// reads in WalkRemoteAccesses, before walk-overlap scaling — the
	// walk-locality feed replication policies consume.
	WalkRemoteCycles numa.Cycles
	// GuestWalkCycles is the raw latency of guest page-table reads during
	// two-dimensional walks (virtualized contexts only), before
	// walk-overlap scaling. Guest plus nested cycles account for every
	// 2D-walk table read; both feed into WalkCycles after scaling.
	GuestWalkCycles numa.Cycles
	// NestedWalkCycles is the raw latency of nested page-table reads
	// during two-dimensional walks (the gPA->hPA dimension), before
	// walk-overlap scaling.
	NestedWalkCycles numa.Cycles
	// WalkTierAccesses counts page-table DRAM reads served by a slow-tier
	// node (CXL/NVM); always zero on flat topologies. Tier-node reads also
	// count as remote (a tier node is never the socket's local node), so
	// this splits WalkRemoteAccesses by destination medium.
	WalkTierAccesses uint64
	// WalkTierCycles is the raw DRAM latency of the slow-tier page-table
	// reads in WalkTierAccesses, before walk-overlap scaling.
	WalkTierCycles numa.Cycles
	// DataMemAccesses counts data accesses that went to DRAM (missed the
	// statistically modelled cache hierarchy).
	DataMemAccesses uint64
	// DataRemoteAccesses counts data DRAM accesses to a remote node.
	DataRemoteAccesses uint64
	// DataTierAccesses counts data DRAM accesses served by a slow-tier
	// node; always zero on flat topologies.
	DataTierAccesses uint64
	// Faults counts page faults taken.
	Faults uint64
	// FaultCycles is the time spent in fault handling.
	FaultCycles numa.Cycles
}

// WalkCycleFraction returns walk cycles as a fraction of total cycles —
// the hashed portion of the paper's runtime bars.
func (s *CoreStats) WalkCycleFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.WalkCycles) / float64(s.Cycles)
}

// Merge adds o's counters into s: the one way counters of several cores
// are summed (a socket's, a run's, a process's).
func (s *CoreStats) Merge(o *CoreStats) {
	s.Ops += o.Ops
	s.Cycles += o.Cycles
	s.WalkCycles += o.WalkCycles
	s.Walks += o.Walks
	s.WalkMemAccesses += o.WalkMemAccesses
	s.WalkLLCHits += o.WalkLLCHits
	s.WalkRemoteAccesses += o.WalkRemoteAccesses
	s.WalkRemoteCycles += o.WalkRemoteCycles
	s.WalkTierAccesses += o.WalkTierAccesses
	s.WalkTierCycles += o.WalkTierCycles
	s.GuestWalkCycles += o.GuestWalkCycles
	s.NestedWalkCycles += o.NestedWalkCycles
	s.DataMemAccesses += o.DataMemAccesses
	s.DataRemoteAccesses += o.DataRemoteAccesses
	s.DataTierAccesses += o.DataTierAccesses
	s.Faults += o.Faults
	s.FaultCycles += o.FaultCycles
}

// Sub returns the counter-wise difference s - o. Policy engines use it to
// turn cumulative counters into per-interval deltas.
func (s CoreStats) Sub(o CoreStats) CoreStats {
	return CoreStats{
		Ops:                s.Ops - o.Ops,
		Cycles:             s.Cycles - o.Cycles,
		WalkCycles:         s.WalkCycles - o.WalkCycles,
		Walks:              s.Walks - o.Walks,
		WalkMemAccesses:    s.WalkMemAccesses - o.WalkMemAccesses,
		WalkLLCHits:        s.WalkLLCHits - o.WalkLLCHits,
		WalkRemoteAccesses: s.WalkRemoteAccesses - o.WalkRemoteAccesses,
		WalkRemoteCycles:   s.WalkRemoteCycles - o.WalkRemoteCycles,
		WalkTierAccesses:   s.WalkTierAccesses - o.WalkTierAccesses,
		WalkTierCycles:     s.WalkTierCycles - o.WalkTierCycles,
		GuestWalkCycles:    s.GuestWalkCycles - o.GuestWalkCycles,
		NestedWalkCycles:   s.NestedWalkCycles - o.NestedWalkCycles,
		DataMemAccesses:    s.DataMemAccesses - o.DataMemAccesses,
		DataRemoteAccesses: s.DataRemoteAccesses - o.DataRemoteAccesses,
		DataTierAccesses:   s.DataTierAccesses - o.DataTierAccesses,
		Faults:             s.Faults - o.Faults,
		FaultCycles:        s.FaultCycles - o.FaultCycles,
	}
}
