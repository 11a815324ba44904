package hw

import (
	"errors"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/pvops/pvopstest"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

type fixture struct {
	topo *numa.Topology
	pm   *mem.PhysMem
	cost *numa.CostModel
	m    *Machine
	mp   *pvops.Mapper
	ctx  *pvops.OpCtx
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return newFixtureOn(t, translate.Spec{})
}

// newFixtureOn is newFixture on the backend spec describes, with a table
// as deep as the backend's paging.
func newFixtureOn(t testing.TB, spec translate.Spec) *fixture {
	t.Helper()
	topo := numa.NewTopology(4, 2)
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 8192})
	cost := numa.NewCostModel(topo, numa.DefaultCostParams())
	be := newBackend(t, spec, topo, cost, pm)
	m := New(Config{Topology: topo, Cost: cost, Mem: pm, Backend: be})
	ctx := &pvops.OpCtx{}
	mp, err := pvops.NewMapper(ctx, pm, pvopstest.NewNative(pm, cost), be.Levels(), pvops.PTPlacement{Primary: 0})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{topo: topo, pm: pm, cost: cost, m: m, mp: mp, ctx: ctx}
}

// newBackend builds the translation backend spec describes.
func newBackend(t testing.TB, spec translate.Spec, topo *numa.Topology, cost *numa.CostModel, pm *mem.PhysMem) translate.Backend {
	t.Helper()
	be, err := translate.New(spec, translate.Deps{Topo: topo, Cost: cost, Mem: pm})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func (fx *fixture) mapPage(t testing.TB, va pt.VirtAddr, node numa.NodeID) mem.FrameID {
	t.Helper()
	f, err := fx.pm.AllocData(node)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.mp.Map(fx.ctx, va, pt.Size4K, f, pt.FlagWrite|pt.FlagUser, pvops.PTPlacement{Primary: node}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNewRequiresBackend: the machine has no default translation
// hardware; a Config without a Backend is a programming error.
func TestNewRequiresBackend(t *testing.T) {
	topo := numa.NewTopology(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("New without a Backend did not panic")
		}
	}()
	New(Config{
		Topology: topo,
		Cost:     numa.NewCostModel(topo, numa.DefaultCostParams()),
		Mem:      mem.New(mem.Config{Topology: topo, FramesPerNode: 1024}),
	})
}

func TestAccessRequiresContext(t *testing.T) {
	fx := newFixture(t)
	if err := fx.m.Access(0, 0x1000, false); !errors.Is(err, ErrNoContext) {
		t.Fatalf("err = %v, want ErrNoContext", err)
	}
}

func TestAccessCountsWalksAndTLBHits(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	fx.mapPage(t, va, 0)
	fx.m.LoadContext(0, fx.mp.Root(), 4)

	if err := fx.m.Access(0, va, false); err != nil {
		t.Fatal(err)
	}
	s := fx.m.Stats(0)
	if s.Walks != 1 {
		t.Errorf("Walks = %d, want 1 (cold TLB)", s.Walks)
	}
	if s.WalkCycles == 0 {
		t.Error("no walk cycles charged")
	}

	// Second access: TLB hit, no new walk.
	if err := fx.m.Access(0, va, false); err != nil {
		t.Fatal(err)
	}
	s = fx.m.Stats(0)
	if s.Walks != 1 {
		t.Errorf("Walks after hit = %d, want 1", s.Walks)
	}
	if s.Ops != 2 {
		t.Errorf("Ops = %d, want 2", s.Ops)
	}
	if ts := fx.m.TLBStats(0); ts.Lookups != 2 || ts.Misses != 1 {
		t.Errorf("TLB stats = %+v, want 2 lookups and 1 miss", ts)
	}
}

func TestSegfaultWithoutHandler(t *testing.T) {
	fx := newFixture(t)
	fx.mapPage(t, 0x1000, 0)
	fx.m.LoadContext(0, fx.mp.Root(), 4)
	err := fx.m.Access(0, 0x999000, false)
	if !errors.Is(err, ErrSegfault) {
		t.Fatalf("err = %v, want ErrSegfault", err)
	}
}

type testHandler struct {
	fx     *fixture
	node   numa.NodeID
	faults int
	fail   bool
}

func (h *testHandler) HandleFault(core numa.CoreID, va pt.VirtAddr, write bool) (numa.Cycles, error) {
	h.faults++
	if h.fail {
		return 100, errors.New("no VMA covers address")
	}
	f, err := h.fx.pm.AllocData(h.node)
	if err != nil {
		return 0, err
	}
	base := pt.PageBase(va, pt.Size4K)
	if err := h.fx.mp.Map(h.fx.ctx, base, pt.Size4K, f, pt.FlagWrite|pt.FlagUser, pvops.PTPlacement{Primary: h.node}); err != nil {
		return 0, err
	}
	return 5000, nil
}

func TestFaultAndRetry(t *testing.T) {
	fx := newFixture(t)
	h := &testHandler{fx: fx, node: 1}
	fx.m.SetFaultHandler(h)
	fx.m.LoadContext(0, fx.mp.Root(), 4)

	if err := fx.m.Access(0, 0x7000, true); err != nil {
		t.Fatal(err)
	}
	if h.faults == 0 {
		t.Fatal("fault handler never invoked")
	}
	s := fx.m.Stats(0)
	if s.Faults == 0 || s.FaultCycles == 0 {
		t.Errorf("fault stats = %+v", s)
	}
	// Mapped now; translation resolved.
	leaf, _, ok := pttest.Lookup(fx.mp.Table(), 0x7000)
	if !ok {
		t.Fatal("fault did not map the page")
	}
	// The walker set A and D (write access) via raw stores.
	if !leaf.Accessed() || leaf&pt.FlagDirty == 0 {
		t.Errorf("leaf = %v, want A+D set by walker", leaf)
	}
}

func TestFailingFaultIsSegfault(t *testing.T) {
	fx := newFixture(t)
	h := &testHandler{fx: fx, fail: true}
	fx.m.SetFaultHandler(h)
	fx.m.LoadContext(0, fx.mp.Root(), 4)
	if err := fx.m.Access(0, 0x7000, false); !errors.Is(err, ErrSegfault) {
		t.Fatalf("err = %v, want ErrSegfault", err)
	}
}

func TestRemotePTCostsMore(t *testing.T) {
	// Two identical single-page tables, one with all PT pages local, the
	// other remote: the remote walk must cost more.
	measure := func(ptNode numa.NodeID) numa.Cycles {
		fx := newFixture(t)
		va := pt.VirtAddr(0x1000)
		f, _ := fx.pm.AllocData(0)
		if err := fx.mp.Map(fx.ctx, va, pt.Size4K, f, pt.FlagWrite, pvops.PTPlacement{Primary: ptNode}); err != nil {
			t.Fatal(err)
		}
		// Note: the mapper root is on node 0 in both cases, but with a
		// cold PSC every level is visited; lower levels dominate.
		fx.m.LoadContext(0, fx.mp.Root(), 4)
		if err := fx.m.Access(0, va, false); err != nil {
			t.Fatal(err)
		}
		return fx.m.Stats(0).WalkCycles
	}
	local := measure(0)
	remote := measure(2)
	if remote <= local {
		t.Errorf("remote PT walk (%d) not costlier than local (%d)", remote, local)
	}
}

func TestInterferenceInflatesWalk(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	f, _ := fx.pm.AllocData(0)
	if err := fx.mp.Map(fx.ctx, va, pt.Size4K, f, pt.FlagWrite, pvops.PTPlacement{Primary: 1}); err != nil {
		t.Fatal(err)
	}
	fx.m.LoadContext(0, fx.mp.Root(), 4)
	if err := fx.m.Access(0, va, false); err != nil {
		t.Fatal(err)
	}
	quiet := fx.m.Stats(0).WalkCycles

	fx.m.ResetStats()
	fx.m.FlushAll(0)
	for _, l := range fx.m.llcs {
		l.Reset()
	}
	fx.cost.SetLoaded(1, true)
	if err := fx.m.Access(0, va, false); err != nil {
		t.Fatal(err)
	}
	loaded := fx.m.Stats(0).WalkCycles
	if loaded <= quiet {
		t.Errorf("loaded walk (%d) not costlier than quiet (%d)", loaded, quiet)
	}
}

func TestPSCSkipsUpperLevels(t *testing.T) {
	fx := newFixture(t)
	// Map two pages in the same L1 table.
	fx.mapPage(t, 0x1000, 0)
	fx.mapPage(t, 0x2000, 0)
	fx.m.LoadContext(0, fx.mp.Root(), 4)

	if err := fx.m.Access(0, 0x1000, false); err != nil {
		t.Fatal(err)
	}
	first := fx.m.Stats(0)
	if err := fx.m.Access(0, 0x2000, false); err != nil {
		t.Fatal(err)
	}
	second := fx.m.Stats(0)
	// The second walk starts at level 1 thanks to the PDE cache: fewer
	// memory touches.
	firstTouches := first.WalkLLCHits + first.WalkMemAccesses
	secondTouches := (second.WalkLLCHits + second.WalkMemAccesses) - firstTouches
	if firstTouches != 4 {
		t.Errorf("first walk touched %d levels, want 4", firstTouches)
	}
	if secondTouches != 1 {
		t.Errorf("second walk touched %d levels, want 1 (PSC skip)", secondTouches)
	}
}

func TestLLCCachesPTLines(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	fx.mapPage(t, va, 0)
	fx.m.LoadContext(0, fx.mp.Root(), 4)

	if err := fx.m.Access(0, va, false); err != nil {
		t.Fatal(err)
	}
	miss1 := fx.m.Stats(0).WalkMemAccesses
	// Evict the translation but not the LLC: re-walk hits the LLC.
	fx.m.FlushAll(0)
	if err := fx.m.Access(0, va, false); err != nil {
		t.Fatal(err)
	}
	s := fx.m.Stats(0)
	if s.WalkMemAccesses != miss1 {
		t.Errorf("second walk went to DRAM (%d vs %d), want LLC hits", s.WalkMemAccesses, miss1)
	}
	if s.WalkLLCHits == 0 {
		t.Error("no LLC hits recorded")
	}
}

func TestWriteWalkInvalidatesOtherSockets(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	fx.mapPage(t, va, 0)
	// Socket 0 and socket 1 cores both walk the same table.
	core0, core1 := numa.CoreID(0), numa.CoreID(2) // socket 0 and 1
	fx.m.LoadContext(core0, fx.mp.Root(), 4)
	fx.m.LoadContext(core1, fx.mp.Root(), 4)

	// Read walks on both: lines end up in both LLCs.
	if err := fx.m.Access(core0, va, false); err != nil {
		t.Fatal(err)
	}
	if err := fx.m.Access(core1, va, false); err != nil {
		t.Fatal(err)
	}
	// Write walk on socket 0 invalidates socket 1's leaf line.
	held := fx.m.llcs[1].Resident()
	fx.m.FlushAll(core0)
	if err := fx.m.Access(core0, va, true); err != nil {
		t.Fatal(err)
	}
	if got := fx.m.llcs[1].Resident(); got >= held {
		t.Error("write walk did not invalidate the other socket's LLC")
	}
	// Socket 1's next walk misses the leaf line again.
	fx.m.FlushAll(core1)
	before := fx.m.Stats(core1).WalkMemAccesses
	if err := fx.m.Access(core1, va, false); err != nil {
		t.Fatal(err)
	}
	if got := fx.m.Stats(core1).WalkMemAccesses; got == before {
		t.Error("socket 1 walk served entirely from LLC despite invalidation")
	}
}

// TestShootdownInvalidatesTargets: a page shootdown makes the initiator
// and every target re-walk, and once the page is unmapped no core finds a
// stale translation for it.
func TestShootdownInvalidatesTargets(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx *fixture) {
		va := pt.VirtAddr(0x1000)
		fx.mapPage(t, va, 0)
		fx.load(0, 1)
		if err := fx.m.Access(0, va, false); err != nil {
			t.Fatal(err)
		}
		if err := fx.m.Access(1, va, false); err != nil {
			t.Fatal(err)
		}

		fx.m.ShootdownPage(0, va, []numa.CoreID{0, 1})
		// Both cores re-walk.
		w0 := fx.m.Stats(0).Walks
		w1 := fx.m.Stats(1).Walks
		if err := fx.m.Access(0, va, false); err != nil {
			t.Fatal(err)
		}
		if err := fx.m.Access(1, va, false); err != nil {
			t.Fatal(err)
		}
		if fx.m.Stats(0).Walks != w0+1 || fx.m.Stats(1).Walks != w1+1 {
			t.Error("shootdown did not force re-walks")
		}
		fx.unmap(t, va)
		fx.m.ShootdownPage(0, va, []numa.CoreID{0, 1})
		fx.assertNoStale(t, []pt.VirtAddr{va}, 0, 1)
	})
}

func TestHugePageWalkShorter(t *testing.T) {
	fx := newFixture(t)
	base, err := fx.pm.AllocHuge(0)
	if err != nil {
		t.Fatal(err)
	}
	va := pt.VirtAddr(0x40000000)
	if err := fx.mp.Map(fx.ctx, va, pt.Size2M, base, pt.FlagWrite, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}
	fx.m.LoadContext(0, fx.mp.Root(), 4)
	if err := fx.m.Access(0, va+0x3000, false); err != nil {
		t.Fatal(err)
	}
	s := fx.m.Stats(0)
	if got := s.WalkLLCHits + s.WalkMemAccesses; got != 3 {
		t.Errorf("2MB walk touched %d levels, want 3", got)
	}
	// The TLB covers the whole 2MB region now.
	if err := fx.m.Access(0, va+0x1FF000, false); err != nil {
		t.Fatal(err)
	}
	if fx.m.Stats(0).Walks != 1 {
		t.Error("access within huge page re-walked")
	}
}

func TestAddCyclesAndReset(t *testing.T) {
	fx := newFixture(t)
	fx.mapPage(t, 0x1000, 0)
	fx.m.LoadContext(0, fx.mp.Root(), 4)
	fx.m.LoadContext(1, fx.mp.Root(), 4)
	if err := fx.m.Access(0, 0x1000, false); err != nil {
		t.Fatal(err)
	}
	before := fx.m.Stats(1).Cycles
	fx.m.AddCycles(1, 1<<40)
	if got := fx.m.Stats(1).Cycles; got != before+(1<<40) {
		t.Errorf("core 1 cycles = %d after AddCycles, want %d", got, before+(1<<40))
	}
	fx.m.ResetStats()
	if fx.m.Stats(0).Ops != 0 || fx.m.Stats(1).Cycles != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestDataLocalityModel(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	fx.mapPage(t, va, 3) // remote data
	fx.m.LoadContext(0, fx.mp.Root(), 4)

	// Warm the TLB so only data cost varies.
	if err := fx.m.Access(0, va, false); err != nil {
		t.Fatal(err)
	}
	run := func(rate float64) numa.Cycles {
		fx.m.ResetStats()
		fx.m.SetDataLocality(0, rate)
		for i := 0; i < 1000; i++ {
			if err := fx.m.Access(0, va, false); err != nil {
				t.Fatal(err)
			}
		}
		return fx.m.Stats(0).Cycles
	}
	allMiss := run(0)
	allHit := run(1)
	if allHit >= allMiss {
		t.Errorf("cached data (%d) not cheaper than remote DRAM (%d)", allHit, allMiss)
	}
}

func TestAccessSamplingForAutoNUMA(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	f := fx.mapPage(t, va, 3) // data on node 3
	fx.m.LoadContext(0, fx.mp.Root(), 4)
	for i := 0; i < 10; i++ {
		if err := fx.m.Access(0, va, false); err != nil {
			t.Fatal(err)
		}
	}
	meta := fx.pm.Meta(f)
	if meta.AccessSocket != 0 {
		t.Errorf("AccessSocket = %d, want 0", meta.AccessSocket)
	}
	if meta.RemoteAccesses != 10 {
		t.Errorf("RemoteAccesses = %d, want 10", meta.RemoteAccesses)
	}
	if meta.LocalAccesses != 0 {
		t.Errorf("LocalAccesses = %d, want 0", meta.LocalAccesses)
	}
}
