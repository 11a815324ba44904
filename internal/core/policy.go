package core

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// SysctlMode is the system-wide Mitosis policy state (§6.1): the Linux
// implementation exposes four states through sysctl.
type SysctlMode int

const (
	// ModeDisabled turns Mitosis off for every process: behaviour is
	// identical to the native backend.
	ModeDisabled SysctlMode = iota
	// ModePerProcess enables Mitosis only for processes that set a
	// replication mask (via the libnuma/numactl extension, §6.2).
	ModePerProcess
	// ModeFixedNode forces all page-table allocations onto one node
	// without replication — the knob the paper's §3.2 analysis uses to
	// construct remote-page-table configurations.
	ModeFixedNode
	// ModeAllProcesses replicates page-tables for every process onto all
	// sockets.
	ModeAllProcesses
)

func (m SysctlMode) String() string {
	switch m {
	case ModeDisabled:
		return "disabled"
	case ModePerProcess:
		return "per-process"
	case ModeFixedNode:
		return "fixed-node"
	case ModeAllProcesses:
		return "all-processes"
	default:
		return fmt.Sprintf("SysctlMode(%d)", int(m))
	}
}

// Sysctl is the system-wide policy block, the simulator's
// /proc/sys/vm/mitosis*. The kernel consults it when creating processes and
// when processes change their masks.
type Sysctl struct {
	// Mode is the global state.
	Mode SysctlMode
	// FixedNode is the forced page-table node for ModeFixedNode.
	FixedNode numa.NodeID
	// PageCacheTarget is the per-node reservation (in frames) for the
	// strict page-table allocations replication needs (§5.1).
	PageCacheTarget uint64
}

// EffectiveMask resolves the replication mask for a process under this
// sysctl: the process's own request (requested) filtered by the global
// mode. sockets is the machine's socket count.
func (s *Sysctl) EffectiveMask(requested []numa.NodeID, sockets int) []numa.NodeID {
	switch s.Mode {
	case ModeDisabled, ModeFixedNode:
		return nil
	case ModePerProcess:
		return requested
	case ModeAllProcesses:
		all := make([]numa.NodeID, sockets)
		for i := range all {
			all[i] = numa.NodeID(i)
		}
		return all
	default:
		return nil
	}
}

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
