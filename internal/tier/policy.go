package tier

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// PTMode selects how the policy treats page-table pages — the experiment
// the paper's hardware could not run: should translation structures ever
// live on a slow tier?
type PTMode int

const (
	// PTPin pins page-tables to DRAM: a primary found on a slow tier (a
	// stranded placement, or a prior demotion) is promoted to the home
	// node. The tiered analogue of the paper's §5.5 migration recovery.
	PTPin PTMode = iota
	// PTFloat leaves page-tables wherever they are: the policy never
	// moves them, so a table stranded on CXL stays there — the baseline
	// the pin/replication comparisons measure against.
	PTFloat
	// PTDemote actively demotes the primary page-table to the first slow
	// tier once the process's footprint is majority-cold, reclaiming fast
	// DRAM for hot data at the price of slow walks.
	PTDemote
)

func (m PTMode) String() string {
	switch m {
	case PTPin:
		return "ptpin"
	case PTFloat:
		return "ptfloat"
	case PTDemote:
		return "ptdemote"
	}
	return fmt.Sprintf("PTMode(%d)", int(m))
}

// HotColdConfig tunes the hot/cold tiering policy.
type HotColdConfig struct {
	// PT selects the page-table handling mode.
	PT PTMode
}

// HotCold is the standard tiering policy: hot pages on slow tiers promote
// to the home DRAM node, cold pages ride the demotion ladder one rung down
// (DRAM -> TierNodes[0] -> TierNodes[1] -> ...), and page-tables follow the
// configured PTMode. Candidates are emitted promotions first (latency wins
// beat capacity wins), each group in VA order, until the engine's mover
// has spent its per-tick budget.
type HotCold struct {
	cfg HotColdConfig
}

// NewHotCold builds the policy.
func NewHotCold(cfg HotColdConfig) *HotCold { return &HotCold{cfg: cfg} }

// Name implements Policy.
func (h *HotCold) Name() string { return "hotcold-" + h.cfg.PT.String() }

// Decide implements Policy.
func (h *HotCold) Decide(t *Telemetry, emit func(Action) bool) {
	// Page-table placement first: a moving table repoints every walker, so
	// it should not queue behind data moves in the per-tick budget.
	switch h.cfg.PT {
	case PTPin:
		if t.PTTier != numa.TierDRAM && !emit(Action{Kind: MovePT, Target: t.HomeNode}) {
			return
		}
	case PTDemote:
		if t.PTTier == numa.TierDRAM && len(t.TierNodes) > 0 {
			total := t.Hist.Total()
			var cold uint64
			for i := 0; i < NumTiers; i++ {
				cold += t.Hist.Cold[i]
			}
			if total > 0 && cold*2 >= total && !emit(Action{Kind: MovePT, Target: t.TierNodes[0]}) {
				return
			}
		}
	}
	// Promotions: hot pages living on a slow tier move to home DRAM. The
	// histogram counts such pages, so a tick without any skips the pass.
	if t.Hist.Hot[numa.TierCXL]+t.Hist.Hot[numa.TierNVM] > 0 {
		var slow NodeMask
		for _, n := range t.TierNodes {
			slow |= 1 << n
		}
		promote := func(pv PageView) bool {
			return emit(Action{Kind: Promote, VA: pv.VA, Size: pv.Size, Target: t.HomeNode})
		}
		if !t.Pages.Scan(Hot, slow, promote) {
			return
		}
	}
	// Demotions: cold pages move one rung down the ladder, if there is
	// one; pages on its last rung have nowhere to go.
	if len(t.TierNodes) == 0 {
		return
	}
	above := ^NodeMask(0) &^ (1 << t.TierNodes[len(t.TierNodes)-1])
	t.Pages.Scan(Cold, above, func(pv PageView) bool {
		target, ok := demoteTarget(pv.Node, pv.Tier, t.TierNodes)
		return !ok || emit(Action{Kind: Demote, VA: pv.VA, Size: pv.Size, Target: target})
	})
}

// demoteTarget returns the next-slower node for a page on node/tier: the
// first tier node for DRAM residents, the next tier node in node order for
// slow-tier residents, none for pages already on the last rung.
func demoteTarget(node numa.NodeID, t numa.MemTier, ladder []numa.NodeID) (numa.NodeID, bool) {
	if len(ladder) == 0 {
		return 0, false
	}
	if t == numa.TierDRAM {
		return ladder[0], true
	}
	for i, n := range ladder {
		if n == node {
			if i+1 < len(ladder) {
				return ladder[i+1], true
			}
			return 0, false
		}
	}
	return 0, false
}

// PolicyNames lists the built-in policy names NewPolicy accepts.
func PolicyNames() []string {
	return []string{"hotcold", "hotcold-ptpin", "hotcold-ptfloat", "hotcold-ptdemote"}
}

// NewPolicy builds a built-in policy by name. "hotcold" is an alias for
// "hotcold-ptpin".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "hotcold", "hotcold-ptpin":
		return NewHotCold(HotColdConfig{PT: PTPin}), nil
	case "hotcold-ptfloat":
		return NewHotCold(HotColdConfig{PT: PTFloat}), nil
	case "hotcold-ptdemote":
		return NewHotCold(HotColdConfig{PT: PTDemote}), nil
	default:
		return nil, fmt.Errorf("tier: unknown policy %q (have %v)", name, PolicyNames())
	}
}
