package core

import (
	"errors"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mem/memtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/pvops/pvopstest"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

type fixture struct {
	topo  *numa.Topology
	pm    *mem.PhysMem
	cost  *numa.CostModel
	cache *mem.PageCache
	be    *Backend
	mp    *pvops.Mapper
	space *Space
	ctx   *pvops.OpCtx
}

func newFixture(t testing.TB, primary numa.NodeID) *fixture {
	t.Helper()
	return newFixtureLevels(t, primary, 4)
}

// newFixtureLevels is newFixture with a levels-deep table.
func newFixtureLevels(t testing.TB, primary numa.NodeID, levels uint8) *fixture {
	t.Helper()
	topo := numa.NewTopology(4, 2)
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 8192})
	cost := numa.NewCostModel(topo, numa.DefaultCostParams())
	cache := mem.NewPageCache(pm, 0)
	be := NewBackend(pm, cost, cache)
	ctx := &pvops.OpCtx{Meter: &pvops.Meter{}}
	mp, err := pvops.NewMapper(ctx, pm, be, levels, pvops.PTPlacement{Primary: primary})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		topo: topo, pm: pm, cost: cost, cache: cache,
		be: be, mp: mp, space: NewSpace(pm, be, mp), ctx: ctx,
	}
}

func (fx *fixture) mapPage(t testing.TB, va pt.VirtAddr, dataNode numa.NodeID) mem.FrameID {
	t.Helper()
	f, err := fx.pm.AllocData(dataNode)
	if err != nil {
		t.Fatal(err)
	}
	place := pvops.PTPlacement{Primary: fx.space.PrimaryNode(), Replicas: fx.space.Mask()}
	if err := fx.mp.Map(fx.ctx, va, pt.Size4K, f, pt.FlagWrite|pt.FlagUser, place); err != nil {
		t.Fatal(err)
	}
	return f
}

// allRoots returns one pt.Table per replica of the root.
func (fx *fixture) allRoots() []*pt.Table {
	var tables []*pt.Table
	for _, f := range ringMembers(fx.pm, fx.mp.Root()) {
		tables = append(tables, pt.NewTable(fx.pm, f, fx.mp.Levels()))
	}
	return tables
}

// writeProtect clears the write permission of va's 4KB leaf through the
// mapper's leaf visitor, the store path mprotect takes.
func writeProtect(ctx *pvops.OpCtx, mp *pvops.Mapper, va pt.VirtAddr) {
	mp.VisitLeaves(ctx, va, va+pt.VirtAddr(pt.Size4K.Bytes()), func(lv pvops.LeafVisit) (pt.PTE, bool) {
		return lv.Old.ClearFlags(pt.FlagWrite), true
	})
}

// assertEquivalent checks the central replica-equivalence invariant: every
// replica translates every va in vas identically (same frame, same
// permission flags, same page size).
func assertEquivalent(t *testing.T, fx *fixture, vas []pt.VirtAddr) {
	t.Helper()
	tables := fx.allRoots()
	for _, va := range vas {
		ref, refSize, refOK := pttest.Lookup(tables[0], va)
		for i, tbl := range tables[1:] {
			e, size, ok := pttest.Lookup(tbl, va)
			if ok != refOK {
				t.Fatalf("replica %d: lookup(%#x) ok=%v, primary ok=%v", i+1, uint64(va), ok, refOK)
			}
			if !ok {
				continue
			}
			if size != refSize {
				t.Errorf("replica %d: size %v != %v at %#x", i+1, size, refSize, uint64(va))
			}
			if e.Frame() != ref.Frame() {
				t.Errorf("replica %d: frame %d != %d at %#x", i+1, e.Frame(), ref.Frame(), uint64(va))
			}
			// Permission flags must match; hardware A/D bits may differ.
			mask := pt.FlagPresent | pt.FlagWrite | pt.FlagUser | pt.FlagHuge
			if e.Flags()&mask != ref.Flags()&mask {
				t.Errorf("replica %d: flags %v != %v at %#x", i+1, e.Flags(), ref.Flags(), uint64(va))
			}
		}
	}
}

// assertIndependent checks that no replica's interior entries point into
// another replica's pages: each replica's upper levels must be socket-local
// where a local copy exists.
func assertIndependent(t *testing.T, fx *fixture) {
	t.Helper()
	for _, tbl := range fx.allRoots() {
		home := fx.pm.NodeOf(tbl.Root())
		tbl.Visit(func(level uint8, ref pt.EntryRef, e pt.PTE) bool {
			if level == 1 || e.Huge() {
				return true
			}
			child := e.Frame()
			if fx.pm.Meta(child).Kind != mem.KindPageTable {
				t.Errorf("interior entry at level %d points to non-PT frame %d", level, child)
				return true
			}
			if _, ok := ringMemberOn(fx.pm, child, home); ok && fx.pm.NodeOf(child) != home {
				t.Errorf("replica on node %d: level-%d entry points to node %d despite local copy",
					home, level, fx.pm.NodeOf(child))
			}
			return true
		})
	}
}

func TestRingOperations(t *testing.T) {
	fx := newFixture(t, 0)
	a, _ := fx.pm.AllocPageTable(0, 1)
	b, _ := fx.pm.AllocPageTable(1, 1)
	c, _ := fx.pm.AllocPageTable(2, 1)

	if got := ringSize(fx.pm, a); got != 1 {
		t.Errorf("singleton ring size = %d, want 1", got)
	}
	ringInsert(fx.pm, a, b)
	ringInsert(fx.pm, a, c)
	if got := ringSize(fx.pm, a); got != 3 {
		t.Errorf("ring size = %d, want 3", got)
	}
	// Every member sees the same ring.
	for _, f := range []mem.FrameID{a, b, c} {
		if got := ringSize(fx.pm, f); got != 3 {
			t.Errorf("ring size from %d = %d, want 3", f, got)
		}
	}
	if m, ok := ringMemberOn(fx.pm, a, 1); !ok || m != b {
		t.Errorf("ringMemberOn(1) = %d,%v, want %d", m, ok, b)
	}
	if _, ok := ringMemberOn(fx.pm, a, 3); ok {
		t.Error("ringMemberOn(3) should fail")
	}

	ringUnlink(fx.pm, b)
	if got := ringSize(fx.pm, a); got != 2 {
		t.Errorf("ring size after unlink = %d, want 2", got)
	}
	if fx.pm.ReplicaNext(b) != mem.NilFrame {
		t.Error("unlinked frame still points into ring")
	}
	ringUnlink(fx.pm, c)
	if fx.pm.ReplicaNext(a) != mem.NilFrame {
		t.Error("two-member ring did not collapse to nil")
	}
}

func TestBackendNativeEquivalenceWhenOff(t *testing.T) {
	// With no replicas, the Mitosis backend must produce byte-identical
	// tables to the native backend for the same operation sequence.
	topo := numa.NewTopology(4, 2)
	runOps := func(be pvops.Backend, pm *mem.PhysMem) *pt.Table {
		ctx := &pvops.OpCtx{}
		mp, err := pvops.NewMapper(ctx, pm, be, 4, pvops.PTPlacement{Primary: 1})
		if err != nil {
			t.Fatal(err)
		}
		place := pvops.PTPlacement{Primary: 1}
		for i := 0; i < 100; i++ {
			f, err := pm.AllocData(numa.NodeID(i % 4))
			if err != nil {
				t.Fatal(err)
			}
			va := pt.VirtAddr(uint64(i) * 0x201000) // spread over L1 tables
			if err := mp.Map(ctx, va, pt.Size4K, f, pt.FlagWrite, place); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i += 3 {
			va := pt.VirtAddr(uint64(i) * 0x201000)
			writeProtect(ctx, mp, va)
		}
		for i := 0; i < 100; i += 7 {
			va := pt.VirtAddr(uint64(i) * 0x201000)
			if _, err := mp.Unmap(ctx, va, pt.Size4K); err != nil {
				t.Fatal(err)
			}
		}
		return mp.Table()
	}

	pmN := mem.New(mem.Config{Topology: topo, FramesPerNode: 8192})
	costN := numa.NewCostModel(topo, numa.DefaultCostParams())
	tN := runOps(pvopstest.NewNative(pmN, costN), pmN)

	pmM := mem.New(mem.Config{Topology: topo, FramesPerNode: 8192})
	costM := numa.NewCostModel(topo, numa.DefaultCostParams())
	tM := runOps(NewBackend(pmM, costM, mem.NewPageCache(pmM, 0)), pmM)

	// Compare translations (frame IDs match because the allocation
	// sequences are identical).
	for i := 0; i < 100; i++ {
		va := pt.VirtAddr(uint64(i) * 0x201000)
		eN, sN, okN := pttest.Lookup(tN, va)
		eM, sM, okM := pttest.Lookup(tM, va)
		if okN != okM || sN != sM || (okN && eN != eM) {
			t.Fatalf("divergence at %#x: native (%v,%v,%v) vs mitosis (%v,%v,%v)",
				uint64(va), eN, sN, okN, eM, sM, okM)
		}
	}
}

func TestReplicateExistingTable(t *testing.T) {
	fx := newFixture(t, 0)
	var vas []pt.VirtAddr
	for i := 0; i < 200; i++ {
		va := pt.VirtAddr(uint64(i) * 0x40201000) // spread over L2/L3
		fx.mapPage(t, va, numa.NodeID(i%4))
		vas = append(vas, va)
	}
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(fx.space.ReplicaNodes()); got != 4 {
		t.Fatalf("replica nodes = %v, want 4 nodes", fx.space.ReplicaNodes())
	}
	assertEquivalent(t, fx, vas)
	assertIndependent(t, fx)
}

func TestMapsAfterReplicationPropagate(t *testing.T) {
	fx := newFixture(t, 0)
	fx.mapPage(t, 0x1000, 0)
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	// New mappings after replication must appear in all replicas, with
	// new page-table pages allocated ring-wide.
	var vas []pt.VirtAddr
	for i := 1; i < 100; i++ {
		va := pt.VirtAddr(uint64(i) * 0x40201000)
		fx.mapPage(t, va, numa.NodeID(i%4))
		vas = append(vas, va)
	}
	assertEquivalent(t, fx, vas)
	assertIndependent(t, fx)
}

func TestUnmapAndProtectPropagate(t *testing.T) {
	fx := newFixture(t, 1)
	var vas []pt.VirtAddr
	for i := 0; i < 50; i++ {
		va := pt.VirtAddr(uint64(i) * 0x201000)
		fx.mapPage(t, va, 0)
		vas = append(vas, va)
	}
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i += 2 {
		if _, err := fx.mp.Unmap(fx.ctx, vas[i], pt.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 50; i += 2 {
		writeProtect(fx.ctx, fx.mp, vas[i])
	}
	assertEquivalent(t, fx, vas)
	// Unmapped in every replica:
	for _, tbl := range fx.allRoots() {
		if _, _, ok := pttest.Lookup(tbl, vas[0]); ok {
			t.Error("unmapped va still present in a replica")
		}
		e, _, ok := pttest.Lookup(tbl, vas[1])
		if !ok || e.Writable() {
			t.Error("protect not propagated to a replica")
		}
	}
}

func TestRootForSelectsLocalReplica(t *testing.T) {
	fx := newFixture(t, 0)
	fx.mapPage(t, 0x1000, 0)
	// Before replication every socket gets the primary.
	for s := numa.SocketID(0); s < 4; s++ {
		if got := fx.space.RootFor(s); got != fx.mp.Root() {
			t.Errorf("RootFor(%d) = %d, want primary %d", s, got, fx.mp.Root())
		}
	}
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	for s := numa.SocketID(0); s < 4; s++ {
		root := fx.space.RootFor(s)
		if got := fx.pm.NodeOf(root); got != fx.topo.NodeOf(s) {
			t.Errorf("RootFor(%d) on node %d, want %d", s, got, fx.topo.NodeOf(s))
		}
	}
}

func TestSetMaskPartialAndShrink(t *testing.T) {
	fx := newFixture(t, 0)
	var vas []pt.VirtAddr
	for i := 0; i < 30; i++ {
		va := pt.VirtAddr(uint64(i) * 0x201000)
		fx.mapPage(t, va, 0)
		vas = append(vas, va)
	}
	if err := fx.space.SetMask(fx.ctx, []numa.NodeID{1, 3}); err != nil {
		t.Fatal(err)
	}
	nodes := fx.space.ReplicaNodes()
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 1 || nodes[2] != 3 {
		t.Fatalf("replica nodes = %v, want [0 1 3]", nodes)
	}
	// Socket 2 has no local replica; it gets the primary.
	if got := fx.pm.NodeOf(fx.space.RootFor(2)); got != 0 {
		t.Errorf("RootFor(2) on node %d, want 0 (primary)", got)
	}
	assertEquivalent(t, fx, vas)

	ptPagesOnNode3 := memtest.AllocatedPT(fx.pm, 3)
	if ptPagesOnNode3 == 0 {
		t.Fatal("no replica pages on node 3")
	}
	// Shrink: node 3 replica torn down, its PT pages freed.
	if err := fx.space.SetMask(fx.ctx, []numa.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if got := memtest.AllocatedPT(fx.pm, 3); got != 0 {
		t.Errorf("node 3 still holds %d PT pages after mask shrink", got)
	}
	assertEquivalent(t, fx, vas)
	assertIndependent(t, fx)
}

func TestCollapseRestoresSingleTable(t *testing.T) {
	fx := newFixture(t, 2)
	var vas []pt.VirtAddr
	for i := 0; i < 20; i++ {
		va := pt.VirtAddr(uint64(i) * 0x201000)
		fx.mapPage(t, va, 2)
		vas = append(vas, va)
	}
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	fx.space.Collapse(fx.ctx)
	if fx.space.Replicated() {
		t.Error("space still replicated after Collapse")
	}
	if got := ringSize(fx.pm, fx.mp.Root()); got != 1 {
		t.Errorf("root ring size = %d, want 1", got)
	}
	for n := numa.NodeID(0); n < 4; n++ {
		if n != 2 && memtest.AllocatedPT(fx.pm, n) != 0 {
			t.Errorf("node %d holds %d PT pages after Collapse", n, memtest.AllocatedPT(fx.pm, n))
		}
	}
	assertEquivalent(t, fx, vas)
}

func TestMigrationMovesTable(t *testing.T) {
	fx := newFixture(t, 0)
	var vas []pt.VirtAddr
	for i := 0; i < 40; i++ {
		va := pt.VirtAddr(uint64(i) * 0x201000)
		fx.mapPage(t, va, 0)
		vas = append(vas, va)
	}
	ptOn0 := memtest.AllocatedPT(fx.pm, 0)
	if ptOn0 == 0 {
		t.Fatal("no PT pages on origin")
	}
	if err := fx.space.Migrate(fx.ctx, 3, false); err != nil {
		t.Fatal(err)
	}
	if got := fx.space.PrimaryNode(); got != 3 {
		t.Errorf("primary node = %d, want 3", got)
	}
	// Eager free: origin node keeps no page-table pages.
	if got := memtest.AllocatedPT(fx.pm, 0); got != 0 {
		t.Errorf("origin still holds %d PT pages", got)
	}
	if got := memtest.AllocatedPT(fx.pm, 3); got != ptOn0 {
		t.Errorf("target holds %d PT pages, want %d", got, ptOn0)
	}
	assertEquivalent(t, fx, vas)

	// Translations still resolve to the same data frames.
	e, _, ok := pttest.Lookup(fx.mp.Table(), vas[7])
	if !ok {
		t.Fatal("translation lost after migration")
	}
	if got := fx.pm.NodeOf(e.Frame()); got != 0 {
		t.Errorf("data frame moved to node %d; migration must not move data", got)
	}
}

func TestMigrationKeepOrigin(t *testing.T) {
	fx := newFixture(t, 0)
	for i := 0; i < 10; i++ {
		fx.mapPage(t, pt.VirtAddr(uint64(i)*0x1000), 0)
	}
	if err := fx.space.Migrate(fx.ctx, 1, true); err != nil {
		t.Fatal(err)
	}
	if got := fx.space.PrimaryNode(); got != 1 {
		t.Errorf("primary node = %d, want 1", got)
	}
	if memtest.AllocatedPT(fx.pm, 0) == 0 {
		t.Error("origin replica freed despite keepOrigin")
	}
	// The kept origin must stay consistent with future updates.
	va := pt.VirtAddr(0x100000)
	fx.mapPage(t, va, 1)
	for _, tbl := range fx.allRoots() {
		if _, _, ok := pttest.Lookup(tbl, va); !ok {
			t.Error("update not propagated to kept origin replica")
		}
	}
	// Migrating back is cheap: the origin copy is still there.
	if err := fx.space.Migrate(fx.ctx, 0, false); err != nil {
		t.Fatal(err)
	}
	if got := fx.space.PrimaryNode(); got != 0 {
		t.Errorf("primary node after re-migration = %d, want 0", got)
	}
}

func TestADBitsORedAcrossReplicas(t *testing.T) {
	fx := newFixture(t, 0)
	va := pt.VirtAddr(0x5000)
	fx.mapPage(t, va, 0)
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	// Hardware (the page walker) sets A/D in exactly one replica — here,
	// socket 2's copy, written raw just as the walker does.
	root2 := fx.space.RootFor(2)
	ref, leaf, ok := leafRef(pt.NewTable(fx.pm, root2, 4), va)
	if !ok {
		t.Fatal("descent found no leaf")
	}
	pt.WriteEntryRaw(fx.pm, ref, leaf.WithFlags(pt.FlagAccessed|pt.FlagDirty))

	// A structural read through the primary does not see the bits...
	e := fx.be.ReadPTE(fx.ctx, fx.primaryRef(va))
	if e.Accessed() || e&pt.FlagDirty != 0 {
		t.Error("primary copy unexpectedly carries A/D bits")
	}
	// ...but GatherAD ORs them in (§5.4).
	e = fx.be.GatherAD(fx.ctx, fx.primaryRef(va))
	if !e.Accessed() || e&pt.FlagDirty == 0 {
		t.Errorf("GatherAD = %v, want A and D set", e)
	}
	// ClearAD resets every replica.
	fx.be.ClearAD(fx.ctx, fx.primaryRef(va))
	e = fx.be.GatherAD(fx.ctx, fx.primaryRef(va))
	if e.Accessed() || e&pt.FlagDirty != 0 {
		t.Errorf("A/D bits survive ClearAD: %v", e)
	}
}

func TestStrictAllocationFailureSurfacesError(t *testing.T) {
	fx := newFixture(t, 0)
	fx.mapPage(t, 0x1000, 0)
	// Exhaust node 3 so replication there must fail.
	for {
		if _, err := fx.pm.AllocData(3); err != nil {
			break
		}
	}
	err := fx.space.SetMask(fx.ctx, []numa.NodeID{3})
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// The failure is strict to the full node: a node with room still
	// takes a replica.
	if err := fx.space.SetMask(fx.ctx, []numa.NodeID{2}); err != nil {
		t.Fatalf("replication on node 2: %v", err)
	}
}

// TestLeafStoreReachesEveryReplica: a leaf store into a replicated table
// lands in the primary's leaf table and in each of the three replicas' own.
func TestLeafStoreReachesEveryReplica(t *testing.T) {
	fx := newFixture(t, 0)
	fx.mapPage(t, 0x1000, 0)
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	data := fx.mapPage(t, 0x2000, 0)
	tables := fx.allRoots()
	if len(tables) != 4 {
		t.Fatalf("%d copies of the table, want 4", len(tables))
	}
	leafTables := map[mem.FrameID]bool{}
	for i, tbl := range tables {
		ref, leaf, ok := leafRef(tbl, 0x2000)
		if !ok || leaf.Frame() != data {
			t.Errorf("copy %d maps 0x2000 to %v (present %v), want frame %d", i, leaf, ok, data)
		}
		leafTables[ref.Frame] = true
	}
	if len(leafTables) != 4 {
		t.Errorf("the store reached %d distinct leaf tables, want 4", len(leafTables))
	}
}

func TestPropagationModesCostDiffers(t *testing.T) {
	// Ring propagation must charge less than walk propagation for the
	// same logical work (the paper's 2N vs 4N argument).
	run := func(prop Propagation) numa.Cycles {
		fx := newFixture(t, 0)
		fx.be.SetPropagation(prop)
		fx.mapPage(t, 0x1000, 0)
		if err := fx.space.Replicate(fx.ctx); err != nil {
			t.Fatal(err)
		}
		m := pvops.Meter{}
		ctx := &pvops.OpCtx{Meter: &m}
		for i := 1; i < 200; i++ {
			f, _ := fx.pm.AllocData(0)
			va := pt.VirtAddr(0x400000 + uint64(i)*0x1000)
			place := pvops.PTPlacement{Primary: 0, Replicas: fx.space.Mask()}
			if err := fx.mp.Map(ctx, va, pt.Size4K, f, pt.FlagWrite, place); err != nil {
				t.Fatal(err)
			}
		}
		return m.Cycles
	}
	ring := run(PropagateRing)
	walk := run(PropagateWalk)
	if ring >= walk {
		t.Errorf("ring propagation (%d cycles) not cheaper than walk (%d)", ring, walk)
	}
}

func TestAutoPolicy(t *testing.T) {
	p := DefaultAutoPolicy()
	// Short-running process: never recommended.
	if p.Recommend(&translate.CoreStats{Ops: 10, Cycles: 1000, WalkCycles: 900, Walks: 10}) {
		t.Error("recommended for short-running process")
	}
	// Long-running with heavy walk overhead: recommended.
	if !p.Recommend(&translate.CoreStats{Ops: 1e6, Cycles: 1e9, WalkCycles: 3e8, Walks: 1e6}) {
		t.Error("not recommended despite 30% walk cycles")
	}
	// Long-running but TLB-friendly: not recommended.
	if p.Recommend(&translate.CoreStats{Ops: 1e6, Cycles: 1e9, WalkCycles: 1e6, Walks: 100}) {
		t.Error("recommended despite negligible walk share")
	}
}

// TestPageTableAllocFreeZeroAlloc pins that handing a page-table frame out
// of the reservation pool and releasing it again allocates nothing on the
// host, for an unreplicated table and for one with three replicas: the
// release walks the replica ring in place. The pool holds the frames, so
// after a warm-up pair their payloads are recycled too.
func TestPageTableAllocFreeZeroAlloc(t *testing.T) {
	for _, replicas := range [][]numa.NodeID{nil, {1, 2, 3}} {
		topo := numa.NewTopology(4, 2)
		pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 8192})
		cache := mem.NewPageCache(pm, 64)
		cache.Refill()
		be := NewBackend(pm, numa.NewCostModel(topo, numa.DefaultCostParams()), cache)
		ctx := &pvops.OpCtx{Meter: &pvops.Meter{}}
		spec := pvops.AllocSpec{Level: 1, Primary: 0, Replicas: replicas}
		pair := func() {
			f, err := be.AllocPT(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := ringSize(pm, f); got != 1+len(replicas) {
				t.Fatalf("ring of %d frames, want %d", got, 1+len(replicas))
			}
			be.ClearAD(ctx, pt.EntryRef{Frame: f, Index: 7})
			be.ReleasePT(ctx, f)
		}
		pair()
		if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
			t.Errorf("%d replicas: alloc/release pair allocates %.1f times, want 0", len(replicas), allocs)
		}
		for n := numa.NodeID(0); n < 4; n++ {
			if got := cache.Cached(n); got != 64 {
				t.Errorf("%d replicas: node %d pool holds %d frames after the pairs, want 64", len(replicas), n, got)
			}
		}
	}
}
