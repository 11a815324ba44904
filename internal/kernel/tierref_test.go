package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/fault"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
)

// refView is one page of the reference engine's materialized snapshot.
type refView struct {
	VA        pt.VirtAddr
	Size      pt.PageSize
	Node      numa.NodeID
	Tier      numa.MemTier
	Hot, Cold bool
}

// refTelemetry is the reference engine's per-tick snapshot: every mapped
// page in VA order.
type refTelemetry struct {
	Pages     []refView
	Hist      tier.Histogram
	PTTier    numa.MemTier
	HomeNode  numa.NodeID
	TierNodes []numa.NodeID
}

// refHotColdDecide is tier.HotCold's Decide as it was: every candidate
// collected into a slice, the page-table move first, then promotions, then
// demotions, each group in VA order.
func refHotColdDecide(mode tier.PTMode, t *refTelemetry) []tier.Action {
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

// refPageState is one page's history in the reference tracker.
type refPageState struct {
	score uint64
	idle  int
}

// refTierEngine is the tier engine as it was before the tracker took
// change reports: every tick it walks every mapped page, reads and clears
// the samples in the frame of the page's leaf, observes every page in an
// eager map-keyed tracker, materializes the whole view slice and runs
// HotCold over it, collecting every candidate and applying the prefix the
// page budget covers. It is attached to nothing, so its process reports
// no change to any engine.
type refTierEngine struct {
	k       *Kernel
	p       *Process
	mode    tier.PTMode
	cfg     TierEngineConfig
	tracker map[pt.VirtAddr]*refPageState

	log      []ActionRecord
	hist     tier.Histogram
	views    []refView // the last tick's snapshot
	promoted uint64
	demoted  uint64
	ptMoves  int
}

func newRefTierEngine(k *Kernel, p *Process, mode tier.PTMode, cfg TierEngineConfig) *refTierEngine {
	if cfg.StepPages <= 0 {
		cfg.StepPages = 64
	}
	if cfg.Tracker.HotThreshold == 0 {
		cfg.Tracker.HotThreshold = 8
	}
	if cfg.Tracker.ColdTicks <= 0 {
		cfg.Tracker.ColdTicks = 4
	}
	return &refTierEngine{k: k, p: p, mode: mode, cfg: cfg, tracker: make(map[pt.VirtAddr]*refPageState)}
}

func (e *refTierEngine) ActionLog() []ActionRecord { return e.log }
func (e *refTierEngine) Histogram() tier.Histogram { return e.hist }
func (e *refTierEngine) Moved() (promoted, demoted uint64, ptMoves int) {
	return e.promoted, e.demoted, e.ptMoves
}

// observe is the eager tracker rule: score -= score/4, + samples.
func (e *refTierEngine) observe(va pt.VirtAddr, samples uint32) (hot, cold bool) {
	st := e.tracker[va]
	if st == nil {
		st = &refPageState{}
		e.tracker[va] = st
	}
	st.score -= st.score / 4
	st.score += uint64(samples)
	if samples == 0 {
		st.idle++
	} else {
		st.idle = 0
	}
	return st.score >= e.cfg.Tracker.HotThreshold, st.idle >= e.cfg.Tracker.ColdTicks
}

// snapshot is TierEngine.snapshot as it was, with a fresh telemetry and
// page buffer every tick.
func (e *refTierEngine) snapshot() *refTelemetry {
	k, p := e.k, e.p
	var views []refView
	var hist tier.Histogram
	for _, v := range p.vmas {
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			f := leaf.Frame()
			meta := k.pm.Meta(f)
			samples := meta.LocalAccesses + meta.RemoteAccesses
			meta.LocalAccesses, meta.RemoteAccesses = 0, 0
			hot, cold := e.observe(va, samples)
			node := k.pm.NodeOf(f)
			tk := k.topo.TierOf(node)
			if pages := uint64(size.Bytes() >> pt.PageShift4K); hot {
				hist.Hot[tk] += pages
			} else {
				hist.Cold[tk] += pages
			}
			views = append(views, refView{VA: va, Size: size, Node: node, Tier: tk, Hot: hot, Cold: cold})
		})
	}
	e.hist, e.views = hist, views
	primary := p.space.PrimaryNode()
	t := &refTelemetry{
		Pages:    views,
		Hist:     hist,
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

// tick is TierEngine.Tick as it was: the policy's whole candidate list,
// then the prefix the page budget covers. Actions apply through the
// mover's apply, which this change leaves as it was.
func (e *refTierEngine) tick(round int, ev *tierRefEvents) error {
	t := e.snapshot()
	mover := &TierEngine{k: e.k, p: e.p}
	budget := e.cfg.StepPages
	for i, a := range refHotColdDecide(e.mode, t) {
		if budget <= 0 {
			break
		}
		before, inflight := budget, e.p.policyEngine != nil && e.p.policyEngine.InFlight() > 0
		applied, pages, err := mover.apply(a, &budget)
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

// tierTwin is one side of the tier reference tests: a tiered machine, one
// process with 4KB and THP memory, its tier engine (the reference or the
// kernel's) and a policy engine that holds an incremental replication in
// flight for the first ticks.
type tierTwin struct {
	k   *Kernel
	p   *Process
	te  *TierEngine    // the kernel's engine, on the twin under test
	ref *refTierEngine // the reference, on the other twin
	pe  *PolicyEngine
}

// tierTwinSpec shapes a tierTwin.
type tierTwinSpec struct {
	tiers []numa.TierNode
	mode  tier.PTMode
	cores []numa.CoreID
	cfg   TierEngineConfig
	// setup runs between populating the process and attaching the
	// engines: the accesses whose samples the first tick reads.
	setup func(*tierTwin)
}

func newTierTwin(t *testing.T, tiers []numa.TierNode, mode tier.PTMode, ref bool) *tierTwin {
	return newTierTwinSpec(t, tierTwinSpec{tiers: tiers, mode: mode, cores: []numa.CoreID{0, 1}}, ref)
}

func newTierTwinSpec(t *testing.T, spec tierTwinSpec, ref bool) *tierTwin {
	t.Helper()
	k := New(Config{Topology: numa.NewTieredTopology(2, 2, spec.tiers), FramesPerNode: 16384, THP: true, PageCacheTarget: 64})
	cxl := numa.NodeID(2)
	opts := ProcessOpts{Name: "tiered", Home: 0}
	if spec.mode == tier.PTPin {
		// A table stranded on CXL: the pinned policy moves it home.
		opts.PTPolicy, opts.PTNode = PTFixed, cxl
	}
	p := newProc(t, k, opts)
	if err := k.RunOn(p, spec.cores); err != nil {
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
	tw := &tierTwin{k: k, p: p}
	if spec.setup != nil {
		spec.setup(tw)
	}
	if ref {
		tw.ref = newRefTierEngine(k, p, spec.mode, spec.cfg)
	} else {
		tw.te = k.AttachTierPolicy(p, tier.NewHotCold(tier.HotColdConfig{PT: spec.mode}), spec.cfg)
	}
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

// tick runs the twin's tier engine.
func (tw *tierTwin) tick(round int, ev *tierRefEvents) error {
	if tw.ref != nil {
		return tw.ref.tick(round, ev)
	}
	return tw.te.Tick(round)
}

// engine returns the twin's tier engine as the tests compare it.
func (tw *tierTwin) engine() interface {
	ActionLog() []ActionRecord
	Histogram() tier.Histogram
	Moved() (uint64, uint64, int)
} {
	if tw.ref != nil {
		return tw.ref
	}
	return tw.te
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

// compareTierTwins fails the test unless the twins agree on the action
// log, the moved counts, the histogram, every page's frame, every node's
// free frames and every core's cycles.
func compareTierTwins(t *testing.T, at string, ref, got *tierTwin) {
	t.Helper()
	re, ge := ref.engine(), got.engine()
	if a, b := fmt.Sprint(re.ActionLog()), fmt.Sprint(ge.ActionLog()); a != b {
		t.Fatalf("%s: action log\n got %s\n ref %s", at, b, a)
	}
	rp, rd, rm := re.Moved()
	gp, gd, gm := ge.Moved()
	if rp != gp || rd != gd || rm != gm {
		t.Fatalf("%s: moved (%d, %d, %d), reference (%d, %d, %d)", at, gp, gd, gm, rp, rd, rm)
	}
	if a, b := re.Histogram(), ge.Histogram(); a != b {
		t.Fatalf("%s: histogram %+v, reference %+v", at, b, a)
	}
	if a, b := ref.pages(), got.pages(); !slices.Equal(a, b) {
		t.Fatalf("%s: pages\n got %v\n ref %v", at, b, a)
	}
	compareFreeFrames(t, at, ref.k, got.k)
	for c := range numa.CoreID(ref.k.topo.Cores()) {
		if a, b := ref.k.machine.Stats(c).Cycles, got.k.machine.Stats(c).Cycles; a != b {
			t.Fatalf("%s: core %d at %d cycles, reference %d", at, c, b, a)
		}
	}
}

// compareTierClasses fails the test unless, right after a tick, the
// tracker classifies every mapped page as the reference's snapshot of the
// tick did: hot, cold (and not hot), or neither. Pages the mover
// moved are on their new node in the tracker and on their old one in the
// snapshot, so the comparison leaves nodes out.
func compareTierClasses(t *testing.T, at string, ref *refTierEngine, got *TierEngine) {
	t.Helper()
	for _, c := range []tier.Class{tier.Hot, tier.Cold} {
		var want, have []string
		for _, v := range ref.views {
			if c == tier.Hot && v.Hot || c == tier.Cold && v.Cold && !v.Hot {
				want = append(want, fmt.Sprintf("%#x:%v", uint64(v.VA), v.Size))
			}
		}
		got.tracker.Scan(c, ^tier.NodeMask(0), func(pv tier.PageView) bool {
			have = append(have, fmt.Sprintf("%#x:%v", uint64(pv.VA), pv.Size))
			return true
		})
		if !slices.Equal(want, have) {
			t.Fatalf("%s: class %d pages\n got %v\n ref %v", at, c, have, want)
		}
	}
}

// plantSamples folds n samples of the page at va into the frame of its
// leaf the way the machine's barrier fold does: into FrameMeta, then to
// the sample sink, as a run taken on core.
func plantSamples(k *Kernel, c numa.CoreID, va pt.VirtAddr, n uint32) {
	p := k.current[c].Load()
	leaf, _, ok := pttest.Lookup(p.mapper.Table(), va)
	if !ok {
		panic(fmt.Sprintf("plantSamples: %#x unmapped", uint64(va)))
	}
	s := hw.Sample{Frame: leaf.Frame(), VA: va, Count: n, Local: true}
	k.pm.SampleAccess(s.Frame, k.topo.SocketOf(c), s.Local, s.Count)
	k.FoldedSamples(c, []hw.Sample{s})
}

// heat plants one tick's access samples into the frames behind the pages
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
				plantSamples(tw.k, 0, va, samples)
			}
		}
	}
}

// TestTierMoverMatchesReference runs the pulling mover (Tick) and the old
// collect-then-prefix loop over a full snapshot (the reference engine) on
// twin systems through one seeded scenario: random runs of pages turn hot
// each tick while the rest go cold, on a cxl@0 and a cxl@0,nvm@1 machine,
// under all three page-table modes. After every tick the twins must agree
// on the action log, the moved counts, the histogram, every page's frame,
// every node's free frames and every core's cycles. The scenario is
// checked to reach the mover's corner cases: demotions that fail on a full
// CXL node while the mover goes on, a 2MB candidate that overruns the
// budget after other candidates, and page-table moves deferred by an
// in-flight replication and applied after it.
func TestTierMoverMatchesReference(t *testing.T) {
	ladders := map[string][]numa.TierNode{
		"cxl@0":       {{Kind: numa.TierCXL, Home: 0}},
		"cxl@0,nvm@1": {{Kind: numa.TierCXL, Home: 0}, {Kind: numa.TierNVM, Home: 1}},
	}
	for _, name := range []string{"cxl@0", "cxl@0,nvm@1"} {
		var ev tierRefEvents
		for _, mode := range []tier.PTMode{tier.PTPin, tier.PTFloat, tier.PTDemote} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				ref := newTierTwin(t, ladders[name], mode, true)
				got := newTierTwin(t, ladders[name], mode, false)
				rng := rand.New(rand.NewSource(int64(len(name)) + int64(mode)))
				for round := 1; round <= 60; round++ {
					heat(rng, ref, got)
					for _, tw := range []*tierTwin{ref, got} {
						if err := tw.pe.Tick(round); err != nil {
							t.Fatal(err)
						}
						if err := tw.tick(round, &ev); err != nil {
							t.Fatal(err)
						}
					}
					compareTierTwins(t, fmt.Sprintf("round %d", round), ref, got)
				}
				t.Logf("%d actions; events so far %+v", len(ref.ref.ActionLog()), ev)
			})
		}
		if ev.failedMoves == 0 || ev.hugeOverruns == 0 || ev.deferredPT == 0 || ev.appliedPT == 0 {
			t.Errorf("%s: the scenario missed a corner case: %+v", name, ev)
		}
	}
}

// tierRun drives one twin of TestTierEngineMatchesFullWalk: it issues the
// same seeded access stream on the process's cores each round, folds the
// samples at the barrier, and applies the scenario's kernel events.
type tierRun struct {
	tw *tierTwin
	fe *FaultEngine
	// extra is the base of the VMA mapped mid-run, unmapped and mapped
	// again at the same address; lazy that of the demand-faulted VMA.
	extra, lazy pt.VirtAddr
}

// tierScenarioEvents counts what TestTierEngineMatchesFullWalk's scenario
// reached on the reference twin, beyond the mover's corner cases.
type tierScenarioEvents struct {
	demandFaults   uint64
	autonuma       int
	evacuated      int
	discards       int
	hugeTailOps    int
	hotPeak        uint64 // most hot 4KB pages in one tick's histogram
	cooledFromPeak bool   // the hot count fell below half its peak later
	promoted       uint64
	demoted        uint64
}

// access runs one round of the scenario's access stream: each core of the
// process takes a batch of ops over a hot window that slides across the
// address space (so pages turn hot and later decay back), a sprinkle of
// random pages (which keeps the rest warm or lets it go cold), random
// offsets inside the huge pages (only the head frame's samples count),
// and pages of the demand-faulted VMA; then the barrier folds.
func (r *tierRun) access(rng *rand.Rand, round int, ev *tierScenarioEvents) error {
	k, p := r.tw.k, r.tw.p
	var vas []pt.VirtAddr
	for _, v := range p.vmas {
		for va := v.Start; va < v.End; va += pt.VirtAddr(pt.Size4K.Bytes()) {
			vas = append(vas, va)
		}
	}
	cores := p.Cores()
	for ci, c := range cores {
		ops := make([]hw.AccessOp, 48)
		window := (round * 7 / 2) % len(vas)
		for i := range ops {
			var va pt.VirtAddr
			switch x := rng.Intn(10); {
			case x < 5:
				va = vas[(window+ci*5+rng.Intn(6))%len(vas)]
			case x < 7:
				va = vas[rng.Intn(len(vas))]
			case x < 9:
				huge := p.vmas[1] // the THP VMA
				off := pt.VirtAddr(rng.Int63n(int64(huge.End-huge.Start))) &^ 63
				va = huge.Start + off
				if off%pt.VirtAddr(pt.Size2M.Bytes()) >= pt.VirtAddr(pt.Size4K.Bytes()) && ev != nil {
					ev.hugeTailOps++
				}
			default:
				va = r.lazy + pt.VirtAddr(rng.Intn(512+64))<<pt.PageShift4K
			}
			ops[i] = hw.AccessOp{VA: va, Write: rng.Intn(4) == 0}
		}
		if err := k.machine.AccessBatch(c, ops); err != nil {
			return err
		}
	}
	k.machine.DrainCoherence(cores)
	return nil
}

// event applies the scenario's kernel event of the given round, if any.
func (r *tierRun) event(t *testing.T, round int, ev *tierScenarioEvents) {
	k, p := r.tw.k, r.tw.p
	var err error
	switch round {
	case 8:
		// mmap with populate mid-run.
		r.extra, err = k.Mmap(p, 2<<21+96<<12, MmapOpts{Writable: true, THP: true, Populate: true})
	case 20:
		err = k.Munmap(p, r.extra)
	case 27:
		// The same VA again: its pages resume the history they froze with.
		_, err = k.Mmap(p, 2<<21+96<<12, MmapOpts{Writable: true, THP: true, Populate: true, At: r.extra})
	case 31, 33:
		// hwpoison: the page is discarded and refaults on its next touch.
		before := r.fe.stats.DataDiscards
		r.fe.poisonData(uint64(round), fault.Event{Kind: fault.PoisonData, Proc: 0, Page: 17 * round})
		if ev != nil {
			ev.discards += r.fe.stats.DataDiscards - before
		}
	case 38, 52:
		// An AutoNUMA scan shares the sample stream.
		n := k.AutoNUMAScan(p, DefaultAutoNUMAConfig())
		if ev != nil {
			ev.autonuma += n
		}
	case 45:
		// A migrate_to phase: the process and its data move to socket 1.
		err = k.MigrateProcess(p, 1, MigrateOpts{Data: true})
	case 60:
		// A node goes offline and its pages evacuate: the last rung of a
		// two-rung ladder, so demotions to it fail from now on, or else
		// the process's home DRAM, so promotions do.
		node := numa.NodeID(k.topo.Nodes() - 1)
		if k.topo.Nodes()-k.topo.DRAMNodes() < 2 {
			node = k.topo.NodeOf(p.home)
		}
		before := r.fe.stats.EvacuatedPages
		r.fe.offlineNode(uint64(round), fault.Event{Kind: fault.OfflineNode, Node: node})
		if ev != nil {
			ev.evacuated += r.fe.stats.EvacuatedPages - before
		}
	}
	if err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
}

// TestTierEngineMatchesFullWalk runs the kernel's tier engine, which
// tracks only what the barrier fold and the kernel's leaf-change reports
// tell it, beside the reference engine, which observes every mapped page
// every tick from a full walk, on twin systems driven by real accesses
// from a core of each socket, so first touch spreads the table and the
// policy engine's background replicas rebuild it. The scenario covers samples taken during set-up before attach, demand
// faults and an mmap with populate mid-run, a munmap and a re-mmap at the
// same VA, THP leaves touched at every offset, poison-data discard and
// refault, AutoNUMA scans sharing the sample stream, a migrate_to phase,
// a node-offline evacuation, pages heated past the hot threshold that
// decay back, full slow nodes, budget overruns and a deferred page-table
// move, on a cxl@0 and a cxl@0,nvm@1 machine under all three page-table
// modes, ticking every round and every third round. After every tick the
// twins must agree on the action log, the moved counts, the histogram,
// every page's frame, every node's free frames and every core's cycles.
func TestTierEngineMatchesFullWalk(t *testing.T) {
	ladders := map[string][]numa.TierNode{
		"cxl@0":       {{Kind: numa.TierCXL, Home: 0}},
		"cxl@0,nvm@1": {{Kind: numa.TierCXL, Home: 0}, {Kind: numa.TierNVM, Home: 1}},
	}
	for _, name := range []string{"cxl@0", "cxl@0,nvm@1"} {
		var mover tierRefEvents
		var ev tierScenarioEvents
		for _, mode := range []tier.PTMode{tier.PTPin, tier.PTFloat, tier.PTDemote} {
			for _, every := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%v/every%d", name, mode, every), func(t *testing.T) {
					seed := int64(len(name))*10 + int64(mode)*3 + int64(every)
					twins := make([]*tierRun, 2)
					for i := range twins {
						r := &tierRun{}
						spec := tierTwinSpec{
							tiers: ladders[name], mode: mode, cores: []numa.CoreID{0, 2},
							cfg: TierEngineConfig{StepPages: 48},
							setup: func(tw *tierTwin) {
								var err error
								if r.lazy, err = tw.k.Mmap(tw.p, 1<<21+64<<12, MmapOpts{Writable: true, THP: true}); err != nil {
									t.Fatal(err)
								}
								r.tw = tw
								rng := rand.New(rand.NewSource(seed))
								for round := -5; round < 0; round++ {
									if err := r.access(rng, round+100, nil); err != nil {
										t.Fatal(err)
									}
								}
							},
						}
						r.tw = newTierTwinSpec(t, spec, i == 0)
						r.fe = r.tw.k.AttachFaultEngine(nil, []*Process{r.tw.p}, []string{"tiered"})
						twins[i] = r
					}
					ref, got := twins[0], twins[1]
					rng := []*rand.Rand{rand.New(rand.NewSource(seed + 1)), rand.New(rand.NewSource(seed + 1))}
					for round := 1; round <= 75; round++ {
						for i, r := range twins {
							var e *tierScenarioEvents
							if i == 0 {
								e = &ev
							}
							r.event(t, round, e)
							if err := r.access(rng[i], round, e); err != nil {
								t.Fatalf("round %d: %v", round, err)
							}
							if err := r.tw.pe.Tick(round); err != nil {
								t.Fatal(err)
							}
							if round%every == 0 {
								if err := r.tw.tick(round, &mover); err != nil {
									t.Fatal(err)
								}
							}
						}
						at := fmt.Sprintf("round %d", round)
						compareTierTwins(t, at, ref.tw, got.tw)
						if round%every == 0 {
							compareTierClasses(t, at, ref.tw.ref, got.tw.te)
						}
						if h := ref.tw.ref.Histogram(); round%every == 0 {
							hot := h.Hot[0] + h.Hot[1] + h.Hot[2]
							ev.hotPeak = max(ev.hotPeak, hot)
							ev.cooledFromPeak = ev.cooledFromPeak || hot*2 < ev.hotPeak
						}
					}
					var faults uint64
					for c := range numa.CoreID(ref.tw.k.topo.Cores()) {
						faults += ref.tw.k.machine.Stats(c).Faults
					}
					ev.demandFaults += faults
					p, d, _ := ref.tw.ref.Moved()
					ev.promoted += p
					ev.demoted += d
				})
			}
		}
		t.Logf("%s: mover %+v, scenario %+v", name, mover, ev)
		if mover.failedMoves == 0 || mover.hugeOverruns == 0 || mover.deferredPT == 0 || mover.appliedPT == 0 {
			t.Errorf("%s: the scenario missed a mover corner case: %+v", name, mover)
		}
		if ev.demandFaults == 0 || ev.autonuma == 0 || ev.evacuated == 0 || ev.discards == 0 || ev.hugeTailOps == 0 ||
			ev.hotPeak == 0 || !ev.cooledFromPeak || ev.promoted == 0 || ev.demoted == 0 {
			t.Errorf("%s: the scenario missed a case: %+v", name, ev)
		}
	}
}
