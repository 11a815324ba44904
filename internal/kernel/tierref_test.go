package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
)

// refHotColdDecide is tier.HotCold's Decide as it was: every candidate
// collected into a slice, the page-table move first, then promotions, then
// demotions, each group in VA order.
func refHotColdDecide(mode tier.PTMode, t *tier.Telemetry) []tier.Action {
	var out []tier.Action
	switch mode {
	case tier.PTPin:
		if t.PTTier != numa.TierDRAM {
			out = append(out, tier.Action{Kind: tier.MovePT, Target: t.HomeNode})
		}
	case tier.PTDemote:
		if t.PTTier == numa.TierDRAM && len(t.TierNodes) > 0 {
			total := t.Hist.Total()
			var cold uint64
			for i := 0; i < tier.NumTiers; i++ {
				cold += t.Hist.Cold[i]
			}
			if total > 0 && cold*2 >= total {
				out = append(out, tier.Action{Kind: tier.MovePT, Target: t.TierNodes[0]})
			}
		}
	}
	for _, pv := range t.Pages {
		if pv.Tier != numa.TierDRAM && pv.Hot {
			out = append(out, tier.Action{Kind: tier.Promote, VA: pv.VA, Size: pv.Size, Target: t.HomeNode})
		}
	}
	for _, pv := range t.Pages {
		if !pv.Cold || pv.Hot {
			continue
		}
		if target, ok := refDemoteTarget(pv.Node, pv.Tier, t.TierNodes); ok {
			out = append(out, tier.Action{Kind: tier.Demote, VA: pv.VA, Size: pv.Size, Target: target})
		}
	}
	return out
}

func refDemoteTarget(node numa.NodeID, t numa.MemTier, ladder []numa.NodeID) (numa.NodeID, bool) {
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

// refSnapshot is TierEngine.snapshot as it was: a fresh telemetry with its
// own ladder and page buffer every tick.
func (e *TierEngine) refSnapshot(round int) *tier.Telemetry {
	k, p := e.k, e.p
	var views []tier.PageView
	var hist tier.Histogram
	for _, v := range p.vmas {
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			f := leaf.Frame()
			meta := k.pm.Meta(f)
			samples := meta.LocalAccesses + meta.RemoteAccesses
			meta.LocalAccesses, meta.RemoteAccesses = 0, 0
			_, _, hot, cold := e.tracker.Observe(va, samples)
			node := k.pm.NodeOf(f)
			tk := k.topo.TierOf(node)
			hist.Add(tk, hot, uint64(size.Bytes()>>pt.PageShift4K))
			views = append(views, tier.PageView{VA: va, Size: size, Node: node, Tier: tk, Hot: hot, Cold: cold})
		})
	}
	e.hist = hist
	primary := p.space.PrimaryNode()
	t := &tier.Telemetry{
		Round:    round,
		Pages:    views,
		Hist:     hist,
		PTNode:   primary,
		PTTier:   k.topo.TierOf(primary),
		HomeNode: k.topo.NodeOf(p.home),
	}
	for n := k.topo.DRAMNodes(); n < k.topo.Nodes(); n++ {
		t.TierNodes = append(t.TierNodes, numa.NodeID(n))
	}
	return t
}

// tierRefEvents counts the mover's corner cases the reference tick met.
type tierRefEvents struct {
	failedMoves  int // data moves that did not apply, budget untouched
	overruns     int // a candidate larger than the budget left zeroed it
	hugeOverruns int // ... and it was a 2MB page after other candidates
	deferredPT   int // a page-table move deferred by an in-flight replication
	appliedPT    int
}

// refTick is TierEngine.Tick as it was: the policy's whole candidate list,
// then the prefix the page budget covers.
func (e *TierEngine) refTick(mode tier.PTMode, round int, ev *tierRefEvents) error {
	t := e.refSnapshot(round)
	budget := e.cfg.StepPages
	for i, a := range refHotColdDecide(mode, t) {
		if budget <= 0 {
			break
		}
		before, inflight := budget, e.p.policyEngine != nil && e.p.policyEngine.InFlight() > 0
		applied, pages, err := e.apply(a, &budget)
		if err != nil {
			return err
		}
		switch {
		case applied && a.Kind == tier.MovePT:
			ev.appliedPT++
		case a.Kind == tier.MovePT && inflight:
			ev.deferredPT++
		case !applied && budget == 0:
			ev.overruns++
			if a.Size == pt.Size2M && i > 0 {
				ev.hugeOverruns++
			}
		case !applied && budget == before:
			ev.failedMoves++
		}
		if applied {
			e.log = append(e.log, ActionRecord{Round: round, Action: a})
			switch a.Kind {
			case tier.Promote:
				e.promoted += pages
			case tier.Demote:
				e.demoted += pages
			case tier.MovePT:
				e.ptMoves++
			}
		}
	}
	if len(e.p.cores) > 0 {
		e.k.machine.AddCycles(e.k.callCore(e.p), drainMeterCycles(e.p))
	}
	return nil
}

// tierTwin is one side of the tier reference test: a tiered machine, one
// process with 4KB and THP memory, its tier engine and a policy engine
// that holds an incremental replication in flight for the first ticks.
type tierTwin struct {
	k  *Kernel
	p  *Process
	te *TierEngine
	pe *PolicyEngine
}

func newTierTwin(t *testing.T, tiers []numa.TierNode, mode tier.PTMode) *tierTwin {
	t.Helper()
	k := New(Config{Topology: numa.NewTieredTopology(2, 2, tiers), FramesPerNode: 16384, THP: true, PageCacheTarget: 64})
	cxl := numa.NodeID(2)
	opts := ProcessOpts{Name: "tiered", Home: 0}
	if mode == tier.PTPin {
		// A table stranded on CXL: the pinned policy moves it home.
		opts.PTPolicy, opts.PTNode = PTFixed, cxl
	}
	p := newProc(t, k, opts)
	if err := k.RunOn(p, []numa.CoreID{0, 1}); err != nil {
		t.Fatal(err)
	}
	// 4KB pages below a THP region below more 4KB pages, so a 2MB
	// candidate comes mid-list.
	for _, m := range []MmapOpts{
		{Writable: true, Populate: true},
		{Writable: true, THP: true, Populate: true},
		{Writable: true, Populate: true},
	} {
		length := uint64(160 << 12)
		if m.THP {
			length = 4 << 21
		}
		if _, err := k.Mmap(p, length, m); err != nil {
			t.Fatal(err)
		}
	}
	pol := tier.NewHotCold(tier.HotColdConfig{PT: mode})
	tw := &tierTwin{k: k, p: p, te: k.AttachTierPolicy(p, pol, TierEngineConfig{})}
	// A background replication copying one table page a tick defers any
	// page-table move until it finishes.
	tw.pe = k.AttachPolicy(p, core.NewStatic(), PolicyEngineConfig{StepPages: 1})
	if applied, err := tw.pe.apply(core.Action{Kind: core.ActionReplicate, Node: 1}); err != nil || !applied {
		t.Fatalf("starting the background replication: applied %v, %v", applied, err)
	}
	// Each slow node takes 150 more 4KB pages and no 2MB page: then
	// demotions to it fail and the mover moves on to the next candidate.
	for n := numa.NodeID(k.topo.DRAMNodes()); int(n) < k.topo.Nodes(); n++ {
		k.pm.SetPressure(n, k.pm.FreeFrames(n)-150)
	}
	return tw
}

// pages lists every mapped page of the twin's process as (VA, frame, size).
func (tw *tierTwin) pages() []string {
	var out []string
	for _, v := range tw.p.vmas {
		tw.p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			out = append(out, fmt.Sprintf("%#x:%d:%v", uint64(va), leaf.Frame(), size))
		})
	}
	return out
}

// heat stores one tick's access samples into the frames behind the pages
// the rng picks: a few hot runs, the rest left unsampled.
func heat(rng *rand.Rand, twins ...*tierTwin) {
	ref := twins[0]
	var vas []pt.VirtAddr
	for _, v := range ref.p.vmas {
		ref.p.forEachMapped(v, func(va pt.VirtAddr, _ pt.PTE, _ pt.PageSize) { vas = append(vas, va) })
	}
	for range rng.Intn(3) {
		start := rng.Intn(len(vas))
		n, samples := 1+rng.Intn(30), uint32(8+rng.Intn(8))
		for _, va := range vas[start:min(start+n, len(vas))] {
			for _, tw := range twins {
				leaf, _, ok := tw.p.mapper.Table().Lookup(va)
				if !ok {
					panic(fmt.Sprintf("heat: %#x unmapped", uint64(va)))
				}
				tw.k.pm.Meta(leaf.Frame()).LocalAccesses += samples
			}
		}
	}
}

// TestTierMoverMatchesReference runs the pulling mover (Tick) and the old
// collect-then-prefix loop (refTick) on twin systems through one seeded
// scenario: random runs of pages turn hot each tick while the rest go
// cold, on a cxl@0 and a cxl@0,nvm@1 machine, under all three page-table
// modes. After every tick the twins must agree on the action log, the
// moved counts, the histogram, every page's frame, every node's free
// frames and the calling core's cycles. The scenario is checked to reach
// the mover's corner cases: demotions that fail on a full CXL node while
// the mover goes on, a 2MB candidate that overruns the budget after other
// candidates, and page-table moves deferred by an in-flight replication
// and applied after it.
func TestTierMoverMatchesReference(t *testing.T) {
	ladders := map[string][]numa.TierNode{
		"cxl@0":       {{Kind: numa.TierCXL, Home: 0}},
		"cxl@0,nvm@1": {{Kind: numa.TierCXL, Home: 0}, {Kind: numa.TierNVM, Home: 1}},
	}
	for _, name := range []string{"cxl@0", "cxl@0,nvm@1"} {
		var ev tierRefEvents
		for _, mode := range []tier.PTMode{tier.PTPin, tier.PTFloat, tier.PTDemote} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				ref := newTierTwin(t, ladders[name], mode)
				got := newTierTwin(t, ladders[name], mode)
				rng := rand.New(rand.NewSource(int64(len(name)) + int64(mode)))
				for round := 1; round <= 60; round++ {
					heat(rng, ref, got)
					for _, tw := range []*tierTwin{ref, got} {
						if err := tw.pe.Tick(round); err != nil {
							t.Fatal(err)
						}
					}
					if err := ref.te.refTick(mode, round, &ev); err != nil {
						t.Fatal(err)
					}
					if err := got.te.Tick(round); err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("round %d", round)
					if a, b := fmt.Sprint(ref.te.ActionLog()), fmt.Sprint(got.te.ActionLog()); a != b {
						t.Fatalf("%s: action log\n got %s\n ref %s", at, b, a)
					}
					rp, rd, rm := ref.te.Moved()
					gp, gd, gm := got.te.Moved()
					if rp != gp || rd != gd || rm != gm {
						t.Fatalf("%s: moved (%d, %d, %d), reference (%d, %d, %d)", at, gp, gd, gm, rp, rd, rm)
					}
					if a, b := ref.te.Histogram(), got.te.Histogram(); a != b {
						t.Fatalf("%s: histogram %+v, reference %+v", at, b, a)
					}
					if a, b := ref.pages(), got.pages(); !slices.Equal(a, b) {
						t.Fatalf("%s: pages\n got %v\n ref %v", at, b, a)
					}
					compareFreeFrames(t, at, ref.k, got.k)
					if a, b := ref.k.machine.Stats(0).Cycles, got.k.machine.Stats(0).Cycles; a != b {
						t.Fatalf("%s: core 0 at %d cycles, reference %d", at, b, a)
					}
				}
				t.Logf("%d actions; events so far %+v", len(ref.te.ActionLog()), ev)
			})
		}
		if ev.failedMoves == 0 || ev.hugeOverruns == 0 || ev.deferredPT == 0 || ev.appliedPT == 0 {
			t.Errorf("%s: the scenario missed a corner case: %+v", name, ev)
		}
	}
}
