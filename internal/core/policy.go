package core

import "github.com/mitosis-project/mitosis-sim/internal/translate"

// AutoPolicy is the counter-based automatic trigger sketched in §6.1 (left
// as future work in the paper, implemented here as an extension): it
// watches the ratio of page-walk cycles to total cycles and the TLB miss
// rate, and recommends enabling replication for processes whose address
// translation overhead crosses the thresholds.
type AutoPolicy struct {
	// WalkCycleRatio is the minimum fraction of execution cycles spent in
	// page walks before replication is recommended (e.g., 0.05 = 5%).
	WalkCycleRatio float64
	// MinWalksPerMOps is the minimum number of page walks per million
	// operations; processes below it (tiny working sets fully covered by
	// the TLB) never benefit.
	MinWalksPerMOps float64
	// MinOps is the warm-up: no recommendation before this many
	// operations have been observed, so short-running processes are never
	// replicated (§6.1: cost cannot be amortized).
	MinOps uint64
}

// DefaultAutoPolicy returns thresholds tuned for the simulator's workloads.
func DefaultAutoPolicy() AutoPolicy {
	return AutoPolicy{
		WalkCycleRatio:  0.05,
		MinWalksPerMOps: 1000,
		MinOps:          100000,
	}
}

// Recommend reports whether a process whose cores' counters sum to s
// crosses the policy's thresholds and should have its page-tables
// replicated.
func (p *AutoPolicy) Recommend(s *translate.CoreStats) bool {
	if s.Ops < p.MinOps || s.Cycles == 0 {
		return false
	}
	if s.WalkCycleFraction() < p.WalkCycleRatio {
		return false
	}
	walksPerM := float64(s.Walks) / (float64(s.Ops) / 1e6)
	return walksPerM >= p.MinWalksPerMOps
}
