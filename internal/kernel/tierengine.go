package kernel

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
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
//   - Tracker: the kernel reports the process's leaf installs, removals and
//     remaps to the tier.Tracker as they happen, and the machine's barrier
//     fold reports each page it saw sampled. A tick reads and clears the
//     folded access samples in mem.FrameMeta of each sampled page's current
//     leaf — so a concurrent AutoNUMA phase pre-action and a tier policy
//     split the same sample stream — and the tracker decays every other
//     page lazily. The first tick after attach hands the tracker every
//     mapped page with the samples set-up left in FrameMeta, in one walk.
//   - Policy: the tick's telemetry (the tracker's classification, the
//     per-tier hot/cold histogram, page-table placement) goes to
//     Policy.Decide, which pulls candidates from the tracker in VA order.
//   - Mover: Decide hands each candidate to the engine, which applies it
//     at once, through the same remap + TLB-shootdown path AutoNUMA data
//     migration uses, so counters stay bit-identical across engine modes.
//     At most StepPages 4KB pages move per tick: the first candidate that
//     does not fit, or an apply that errs, stops the policy. Remaining
//     candidates are re-emitted by the policy on later ticks — its input
//     state persists.
//
// So a tick costs the pages sampled and the leaves changed since the last
// one, plus the candidates the budget reaches. All of it runs at quiescent
// points or under the process's fault lock; like PolicyEngine, the engine
// owns no locks and must only be ticked from the workload engine's
// barrier.
type TierEngine struct {
	k       *Kernel
	p       *Process
	policy  tier.Policy
	tracker *tier.Tracker
	cfg     TierEngineConfig
	// built is set by the first tick's walk; until then the tracker
	// ignores reports.
	built bool

	log      []ActionRecord
	hist     tier.Histogram // last tick's histogram
	promoted uint64         // 4KB pages promoted
	demoted  uint64         // 4KB pages demoted
	ptMoves  int

	tel  tier.Telemetry         // the tick's telemetry, reused
	move func(tier.Action) bool // e.moveOne, bound once
	read func(uint64) uint32    // e.samples, bound once
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
	e := &TierEngine{k: k, p: p, policy: pol, cfg: cfg}
	if n := len(k.spareTrackers); n > 0 {
		e.tracker, k.spareTrackers = k.spareTrackers[n-1], k.spareTrackers[:n-1]
		e.tracker.Reset(cfg.Tracker)
	} else {
		tiers := make([]numa.MemTier, k.topo.Nodes())
		for n := range tiers {
			tiers[n] = k.topo.TierOf(numa.NodeID(n))
		}
		e.tracker = tier.NewTracker(cfg.Tracker, tiers)
	}
	k.trackers = append(k.trackers, e.tracker)
	e.move, e.read = e.moveOne, e.samples
	e.tel.Pages = e.tracker
	for n := k.topo.DRAMNodes(); n < k.topo.Nodes(); n++ {
		e.tel.TierNodes = append(e.tel.TierNodes, numa.NodeID(n))
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
	if !e.built {
		e.build()
	}
	e.tracker.Tick(e.read)
	e.hist = e.tracker.Histogram()
	k, p, t := e.k, e.p, &e.tel
	t.Hist = e.hist
	t.PTTier = k.topo.TierOf(p.space.PrimaryNode())
	t.HomeNode = k.topo.NodeOf(p.home)
	e.round, e.budget, e.err = round, e.cfg.StepPages, nil
	e.policy.Decide(t, e.move)
	if e.err != nil {
		return e.err
	}
	// Data moves bill the process meter; drain it to the canonical core so
	// both engine modes charge the same core at the same barrier.
	if len(p.cores) > 0 {
		k.machine.AddCycles(k.callCore(p), drainMeterCycles(p))
	}
	return nil
}

// build hands the tracker every mapped page, each reported sampled so the
// first tick reads what set-up folded into FrameMeta.
func (e *TierEngine) build() {
	e.built = true
	for _, v := range e.p.vmas {
		e.p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			f := leaf.Frame()
			e.tracker.Map(va, size, e.k.pm.NodeOf(f), uint64(f))
			e.tracker.Sampled(va)
		})
	}
}

// samples returns and clears the samples folded into frame, the frame of
// a page's current leaf as the kernel last reported it: the head frame of
// a huge page.
func (e *TierEngine) samples(frame uint64) uint32 {
	meta := e.k.pm.Meta(mem.FrameID(frame))
	n := meta.LocalAccesses + meta.RemoteAccesses
	if n != 0 {
		meta.LocalAccesses, meta.RemoteAccesses = 0, 0
	}
	return n
}

// tierMapped reports a leaf of p installed at va, or remapped there, to
// its tier engine.
func (p *Process) tierMapped(va pt.VirtAddr, size pt.PageSize, frame mem.FrameID) {
	if e := p.tierEngine; e != nil && e.built {
		e.tracker.Map(va, size, p.kernel.pm.NodeOf(frame), uint64(frame))
	}
}

// tierUnmapped reports the leaf of p at va removed to its tier engine.
func (p *Process) tierUnmapped(va pt.VirtAddr) {
	if e := p.tierEngine; e != nil && e.built {
		e.tracker.Unmap(va)
	}
}

// FoldedSamples implements hw.SampleSink: the runs a barrier folded for a
// core go to the tier engine of the process running there.
func (k *Kernel) FoldedSamples(core numa.CoreID, runs []hw.Sample) {
	p := k.current[core].Load()
	if p == nil || p.tierEngine == nil || !p.tierEngine.built {
		return
	}
	for i := range runs {
		p.tierEngine.tracker.Sampled(runs[i].VA)
	}
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
