package kernel

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
)

// TierEngineConfig tunes the tiering engine.
type TierEngineConfig struct {
	// StepPages bounds the 4KB pages the Mover migrates per tick across
	// promotions, demotions and page-table moves together, keeping the
	// per-tick kernel work bounded exactly like incremental replication's
	// step budget. Default 64.
	StepPages int
	// Tracker tunes hotness classification (zero fields take defaults).
	Tracker tier.TrackerConfig
}

// TierEngine ticks a tier.Policy for one process at the round barriers of
// the workload engine, implementing the memtier Tracker/Policy/Mover split:
//
//   - Tracker: each tick it walks the process's VMAs in VA order (the same
//     deterministic walk AutoNUMA scans use), consumes the barrier-folded
//     access samples from mem.FrameMeta — reading and clearing them, so a
//     concurrent AutoNUMA phase pre-action and a tier policy split the same
//     sample stream — and feeds them to the tier.Tracker's decayed scores.
//   - Policy: the snapshot (pages in VA order, per-tier hot/cold histogram,
//     page-table placement) goes to Policy.Decide.
//   - Mover: Decide hands each candidate to the engine, which applies it
//     at once, through the same remap + TLB-shootdown path AutoNUMA data
//     migration uses, so counters stay bit-identical across engine modes.
//     At most StepPages 4KB pages move per tick: the first candidate that
//     does not fit, or an apply that errs, stops the policy. Remaining
//     candidates are re-emitted by the policy on later ticks — its input
//     state persists.
//
// All of it runs at quiescent points; like PolicyEngine, the engine owns no
// locks and must only be ticked from the workload engine's barrier.
type TierEngine struct {
	k       *Kernel
	p       *Process
	policy  tier.Policy
	tracker *tier.Tracker
	cfg     TierEngineConfig

	log      []ActionRecord
	hist     tier.Histogram // last tick's histogram
	promoted uint64         // 4KB pages promoted
	demoted  uint64         // 4KB pages demoted
	ptMoves  int

	tel   tier.Telemetry         // the tick's snapshot, reused
	tiers []numa.MemTier         // the tier of each node
	move  func(tier.Action) bool // e.moveOne, bound once
	// round, budget and err are the tick's state while Decide runs.
	round  int
	budget int
	err    error
}

// AttachTierPolicy installs a tiering engine for p. Like AttachPolicy, the
// engine is returned to be ticked at the workload engine's round barriers;
// attaching replaces any previous tier engine.
func (k *Kernel) AttachTierPolicy(p *Process, pol tier.Policy, cfg TierEngineConfig) *TierEngine {
	if cfg.StepPages <= 0 {
		cfg.StepPages = 64
	}
	e := &TierEngine{
		k: k, p: p, policy: pol, cfg: cfg,
		tracker: tier.NewTracker(cfg.Tracker),
	}
	e.move = e.moveOne
	for n := range numa.NodeID(k.topo.Nodes()) {
		e.tiers = append(e.tiers, k.topo.TierOf(n))
		if int(n) >= k.topo.DRAMNodes() {
			e.tel.TierNodes = append(e.tel.TierNodes, n)
		}
	}
	p.tierEngine = e
	return e
}

// Policy returns the wrapped policy.
func (e *TierEngine) Policy() tier.Policy { return e.policy }

// ActionLog returns the applied actions in order.
func (e *TierEngine) ActionLog() []ActionRecord { return e.log }

// Histogram returns the last tick's per-tier hot/cold histogram.
func (e *TierEngine) Histogram() tier.Histogram { return e.hist }

// Moved returns the cumulative 4KB pages promoted and demoted, and the
// number of page-table migrations applied.
func (e *TierEngine) Moved() (promoted, demoted uint64, ptMoves int) {
	return e.promoted, e.demoted, e.ptMoves
}

// Tick runs one tiering tick at a round barrier; round stamps the tick's
// actions.
func (e *TierEngine) Tick(round int) error {
	t := e.snapshot(round)
	e.round, e.budget, e.err = round, e.cfg.StepPages, nil
	e.policy.Decide(t, e.move)
	if e.err != nil {
		return e.err
	}
	// Data moves bill the process meter; drain it to the canonical core so
	// both engine modes charge the same core at the same barrier.
	if len(e.p.cores) > 0 {
		e.k.machine.AddCycles(e.k.callCore(e.p), drainMeterCycles(e.p))
	}
	return nil
}

// moveOne is the mover, the sink the policy's Decide emits to: it applies
// a under the tick's remaining budget and logs it if it took effect. It
// returns false, telling the policy to stop, once the budget is spent or
// an apply has failed; a candidate emitted after that is not applied.
func (e *TierEngine) moveOne(a tier.Action) bool {
	if e.budget <= 0 || e.err != nil {
		return false
	}
	applied, pages, err := e.apply(a, &e.budget)
	if err != nil {
		e.err = err
		return false
	}
	if applied {
		e.log = append(e.log, ActionRecord{Round: e.round, Action: a})
		switch a.Kind {
		case tier.Promote:
			e.promoted += pages
		case tier.Demote:
			e.demoted += pages
		case tier.MovePT:
			e.ptMoves++
		}
	}
	return e.budget > 0
}

// snapshot builds the tick's telemetry: the Tracker step. The page views
// go into the kernel's buffer, which every tier engine's tick reuses, also
// across Reset.
func (e *TierEngine) snapshot(round int) *tier.Telemetry {
	k, p := e.k, e.p
	views := k.tierViews[:0]
	var hist tier.Histogram
	for _, v := range p.vmas {
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			f := leaf.Frame()
			meta := k.pm.Meta(f)
			samples := meta.LocalAccesses + meta.RemoteAccesses
			if meta.LocalAccesses|meta.RemoteAccesses != 0 {
				// Clearing only sampled frames spares the rest a store.
				meta.LocalAccesses, meta.RemoteAccesses = 0, 0
			}
			_, _, hot, cold := e.tracker.Observe(va, samples)
			node := k.pm.NodeOf(f)
			tk := e.tiers[node]
			hist.Add(tk, hot, size.Bytes()>>pt.PageShift4K)
			views = append(views, tier.PageView{VA: va, Size: size, Node: node, Tier: tk, Hot: hot, Cold: cold})
		})
	}
	k.tierViews = views
	e.hist = hist
	primary := p.space.PrimaryNode()
	t := &e.tel
	t.Round, t.Pages, t.Hist = round, views, hist
	t.PTNode, t.PTTier = primary, k.topo.TierOf(primary)
	t.HomeNode = k.topo.NodeOf(p.home)
	return t
}

// apply executes one action under the remaining page budget, reporting
// whether it took effect and how many 4KB pages it moved. An action that
// does not fit the budget is skipped (and every later one: candidates are
// priority-ordered, so skipping ahead would reorder the mover's work).
func (e *TierEngine) apply(a tier.Action, budget *int) (bool, uint64, error) {
	k, p := e.k, e.p
	switch a.Kind {
	case tier.Promote, tier.Demote:
		pages := uint64(a.Size.Bytes() >> pt.PageShift4K)
		if int(pages) > *budget {
			*budget = 0
			return false, 0, nil
		}
		if err := k.migrateDataPage(p, a.VA, a.Size, a.Target); err != nil {
			// Allocation pressure on the target node: skip, the policy
			// re-emits the candidate while the signal persists.
			return false, 0, nil
		}
		*budget -= int(pages)
		return true, pages, nil
	case tier.MovePT:
		// Defer the move while background replication is copying the
		// table: migrating the primary would free source frames an
		// in-flight incremental job still references. The policy re-emits
		// the move once the jobs drain.
		if p.policyEngine != nil && p.policyEngine.InFlight() > 0 {
			return false, 0, nil
		}
		ptPages := p.space.PTPageCount()
		if ptPages > *budget {
			*budget = 0
			return false, 0, nil
		}
		if a.Target == p.space.PrimaryNode() {
			return false, 0, nil
		}
		if err := k.MigratePT(p, a.Target, false); err != nil {
			return false, 0, fmt.Errorf("kernel: tier page-table move: %w", err)
		}
		// Future page-table allocations follow the table.
		p.SetPTPolicy(PTFixed, a.Target)
		*budget -= ptPages
		return true, uint64(ptPages), nil
	default:
		return false, 0, fmt.Errorf("kernel: unknown tier action %v", a.Kind)
	}
}
