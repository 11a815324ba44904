// Package tier holds the memory-tiering policy layer: per-page hotness
// tracking (Tracker) and promotion/demotion decisions (Policy) for machines
// whose memory nodes span DRAM, CXL and NVM tiers (numa.MemTier).
//
// The package is deliberately mechanism-free, mirroring internal/core's
// replication policies: the policy sees an abstract, deterministic view of
// the address space (Telemetry, whose pages it pulls from the tracker in
// VA order) and emits Actions; the kernel's TierEngine feeds the tracker
// the samples and leaf changes it sees and owns the Mover that applies
// each action as it is emitted (bounded pages per tick, remap + shootdown
// through the normal coherence path). Splitting this way keeps the policy
// unit-testable without a kernel and keeps the determinism contract in one
// place — the engine ticks at round barriers only, and everything here is
// pure computation over the tracker's state.
//
// The structure follows the memtier split in intel/cri-resource-manager:
// Tracker (who is hot), Policy (who should move), Mover (bounded copying) —
// with the Mover living kernel-side where the page tables are.
package tier

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// NumTiers is the number of memory tiers the histogram buckets by
// (numa.TierDRAM, TierCXL, TierNVM).
const NumTiers = 3

// Histogram buckets a process's mapped pages by tier and hotness, in 4KB
// page units. It is the tracker's telemetry export: "how much of this
// process is hot, and where does it live".
type Histogram struct {
	// Hot[t] counts 4KB pages on tier t classified hot by the tracker.
	Hot [NumTiers]uint64 `json:"hot"`
	// Cold[t] counts the remaining (not-hot) 4KB pages on tier t.
	Cold [NumTiers]uint64 `json:"cold"`
}

// Total returns the histogram's page count.
func (h *Histogram) Total() uint64 {
	var n uint64
	for i := 0; i < NumTiers; i++ {
		n += h.Hot[i] + h.Cold[i]
	}
	return n
}

// PageView is one mapped page as the policy sees it: its placement. Views
// arrive in ascending VA order — part of the determinism contract.
type PageView struct {
	VA   pt.VirtAddr
	Size pt.PageSize
	// Node is the memory node backing the page; Tier its media tier.
	Node numa.NodeID
	Tier numa.MemTier
}

// PageSource is the tracker's classification of a process's mapped pages,
// which a policy pulls candidates from. *Tracker implements it.
type PageSource interface {
	// Scan calls yield with each mapped page of class c (Hot or Cold) on a
	// node in nodes, in ascending VA order, until yield returns false. It
	// reports whether it went through every such page. A page the caller
	// moves to another node while the scan runs is not yielded again.
	Scan(c Class, nodes NodeMask, yield func(PageView) bool) bool
}

// Telemetry is one tick's view handed to the policy.
type Telemetry struct {
	// Pages is the tracker's classification of the process's mapped data
	// pages as of this tick.
	Pages PageSource
	// Hist is the tick's per-tier hot/cold histogram over the mapped
	// pages, taken before the policy acts.
	Hist Histogram
	// PTTier is the tier of the node holding the primary page-table.
	// Replicas are capped to DRAM sockets by the kernel, so the primary is
	// the only table copy that can sit on a slow tier.
	PTTier numa.MemTier
	// HomeNode is the DRAM node of the process's home socket — the promote
	// target.
	HomeNode numa.NodeID
	// TierNodes lists the machine's slow-tier nodes in node order — the
	// demotion ladder (DRAM -> TierNodes[0] -> TierNodes[1] -> ...).
	TierNodes []numa.NodeID
}

// ActionKind discriminates tier actions.
type ActionKind int

const (
	// Promote moves a data page to a faster node (Target).
	Promote ActionKind = iota
	// Demote moves a data page to a slower node (Target).
	Demote
	// MovePT migrates the primary page-table to Target — the policy's
	// answer to "should page-table pages live on a slow tier".
	MovePT
)

func (k ActionKind) String() string {
	switch k {
	case Promote:
		return "promote"
	case Demote:
		return "demote"
	case MovePT:
		return "movept"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// Action is one tier placement decision. For Promote/Demote, VA and Size
// identify the page; for MovePT only Target matters.
type Action struct {
	Kind   ActionKind
	VA     pt.VirtAddr
	Size   pt.PageSize
	Target numa.NodeID
}

func (a Action) String() string {
	if a.Kind == MovePT {
		return fmt.Sprintf("movept->n%d", a.Target)
	}
	return fmt.Sprintf("%v@%#x->n%d", a.Kind, uint64(a.VA), a.Target)
}

// Policy decides tier placement from one tick's telemetry. Decide pulls
// its candidates from t.Pages and hands them to emit in priority order;
// emit is the mover, which applies each one at once and returns false when
// the tick's page budget is spent or an apply failed, and Decide then
// returns without emitting more. So a tick costs the candidates the budget
// reaches, not every page. Applying an action changes neither the
// histogram nor the classification of a page not yet pulled, so the
// candidates do not depend on how many were applied. Decide must be a
// pure function of the telemetry and the policy's own deterministic state:
// the engine ticks it at round barriers in every engine mode, and the
// applied action sequence is part of the replayable counter stream.
type Policy interface {
	Name() string
	Decide(t *Telemetry, emit func(Action) bool)
}
