package virt

import (
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

type fixture struct {
	topo *numa.Topology
	pm   *mem.PhysMem
	cost *numa.CostModel
	vm   *VM
}

func newFixture(t testing.TB, hostNode numa.NodeID) *fixture {
	t.Helper()
	topo := numa.NewTopology(4, 2)
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 16384})
	cost := numa.NewCostModel(topo, numa.DefaultCostParams())
	be := core.NewBackend(pm, cost, mem.NewPageCache(pm, 0))
	vm, err := NewVM(pm, be, hostNode)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{topo: topo, pm: pm, cost: cost, vm: vm}
}

// buildGuest maps n pages in a fresh guest space, data backed on dataNode.
func buildGuest(t testing.TB, fx *fixture, gptNode, dataNode numa.NodeID, n int) (*GuestSpace, []pt.VirtAddr) {
	t.Helper()
	gs, err := fx.vm.NewGuestSpace(gptNode)
	if err != nil {
		t.Fatal(err)
	}
	var vas []pt.VirtAddr
	for i := 0; i < n; i++ {
		gf, err := fx.vm.AllocGuestFrame(dataNode)
		if err != nil {
			t.Fatal(err)
		}
		va := pt.VirtAddr(uint64(i) * 0x201000) // spread over guest L1 tables
		if err := gs.Map(va, gf, pt.Size4K, pt.FlagWrite|pt.FlagUser, gptNode); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	return gs, vas
}

func TestWalk2DTranslates(t *testing.T) {
	fx := newFixture(t, 0)
	gs, vas := buildGuest(t, fx, 0, 0, 20)
	for _, va := range vas {
		res, err := fx.vm.Walk2D(fx.cost, gs, 0, va)
		if err != nil {
			t.Fatalf("walk %#x: %v", uint64(va), err)
		}
		if res.HostFrame == mem.NilFrame {
			t.Fatal("no host frame")
		}
		// Paper §7.4: up to 24 accesses for a nested walk on x86-64.
		if res.Accesses != 24 {
			t.Errorf("accesses = %d, want 24 (4 levels x (4+1) + 4)", res.Accesses)
		}
	}
}

func TestWalk2DFaults(t *testing.T) {
	fx := newFixture(t, 0)
	gs, _ := buildGuest(t, fx, 0, 0, 1)
	if _, err := fx.vm.Walk2D(fx.cost, gs, 0, 0x123456789000); err == nil {
		t.Fatal("walk of unmapped gva succeeded")
	}
}

func TestNestedWalkAllLocalWhenEverythingLocal(t *testing.T) {
	fx := newFixture(t, 0)
	gs, vas := buildGuest(t, fx, 0, 0, 5)
	res, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteAccesses != 0 {
		t.Errorf("remote accesses = %d, want 0", res.RemoteAccesses)
	}
}

func TestRemoteNestedTableAmplifies(t *testing.T) {
	// Nested table on node 1, guest tables and data local to socket 0:
	// every nested-level access is remote — 20 of 24.
	fx := newFixture(t, 1)
	gs, vas := buildGuest(t, fx, 0, 0, 5)
	res, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteAccesses != 20 {
		t.Errorf("remote accesses = %d, want 20 (all nested levels)", res.RemoteAccesses)
	}
}

func TestReplicateNestedRestoresLocality(t *testing.T) {
	fx := newFixture(t, 1)
	gs, vas := buildGuest(t, fx, 0, 0, 10)
	if err := fx.vm.ReplicateNested([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	res, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteAccesses != 0 {
		t.Errorf("remote accesses = %d, want 0 after nested replication", res.RemoteAccesses)
	}
	// Guest frames allocated after replication keep the nested replicas
	// consistent.
	gf, err := fx.vm.AllocGuestFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	va := pt.VirtAddr(0x7000000000)
	if err := gs.Map(va, gf, pt.Size4K, pt.FlagWrite, gs.HomeNode()); err != nil {
		t.Fatal(err)
	}
	for s := numa.SocketID(0); s < 4; s++ {
		res, err := fx.vm.Walk2D(fx.cost, gs, s, va)
		if err != nil {
			t.Fatalf("socket %d: %v", s, err)
		}
		if res.HostFrame != fx.vm.hostFrameOf(gf) {
			t.Errorf("socket %d translated to %d, want %d", s, res.HostFrame, fx.vm.hostFrameOf(gf))
		}
	}
}

func TestReplicateGuestTables(t *testing.T) {
	// Guest tables on node 1 (remote to socket 0); replicating them onto
	// node 0 removes the guest-entry remote reads.
	fx := newFixture(t, 0)
	gs, vas := buildGuest(t, fx, 1, 0, 10)

	before, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[3])
	if err != nil {
		t.Fatal(err)
	}
	if before.RemoteAccesses == 0 {
		t.Fatal("expected remote guest-table reads before replication")
	}
	if err := gs.ReplicateGuest([]numa.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	after, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[3])
	if err != nil {
		t.Fatal(err)
	}
	if after.HostFrame != before.HostFrame {
		t.Fatal("guest replication changed the translation")
	}
	// With the nested table local (VM home is node 0), replicating the
	// guest tables removes all remaining remote accesses.
	if after.RemoteAccesses != 0 {
		t.Errorf("remote accesses = %d, want 0 after guest replication", after.RemoteAccesses)
	}
	if after.RemoteAccesses >= before.RemoteAccesses {
		t.Errorf("guest replication did not reduce remote accesses (%d -> %d)",
			before.RemoteAccesses, after.RemoteAccesses)
	}
	// Updates after replication propagate to all guest replicas.
	gf, _ := fx.vm.AllocGuestFrame(0)
	va := pt.VirtAddr(0x7100000000)
	if err := gs.Map(va, gf, pt.Size4K, pt.FlagWrite, gs.HomeNode()); err != nil {
		t.Fatal(err)
	}
	for _, s := range []numa.SocketID{0, 1} {
		if _, err := fx.vm.Walk2D(fx.cost, gs, s, va); err != nil {
			t.Fatalf("socket %d: new mapping missing from replica: %v", s, err)
		}
	}
}

func TestBothLevelsReplicated(t *testing.T) {
	// Worst case: VM and guest initialized on node 1, vCPU runs on socket
	// 0 — then both levels replicate and the whole 24-access walk is local.
	fx := newFixture(t, 1)
	gs, vas := buildGuest(t, fx, 1, 1, 8)

	worst, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0])
	if err != nil {
		t.Fatal(err)
	}
	if worst.RemoteAccesses != 24 {
		t.Errorf("worst case remote accesses = %d, want 24", worst.RemoteAccesses)
	}
	if err := fx.vm.ReplicateNested([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := gs.ReplicateGuest([]numa.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	best, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0])
	if err != nil {
		t.Fatal(err)
	}
	if best.RemoteAccesses != 0 {
		t.Errorf("remote accesses = %d, want 0 with both levels replicated", best.RemoteAccesses)
	}
	if best.HostFrame != worst.HostFrame {
		t.Error("replication changed the translation")
	}
	if best.Cycles >= worst.Cycles {
		t.Errorf("replicated walk (%d cycles) not cheaper than worst case (%d)", best.Cycles, worst.Cycles)
	}
}

// Guest and nested 2MB leaves shorten the 2D walk: 3 guest levels x (4+1)
// accesses plus a 3-access final nested translation = 18, versus the
// 24-access worst case for 4KB pages end to end (§7.4).
func TestWalk2DGuestHugeLeaf(t *testing.T) {
	fx := newFixture(t, 0)
	gs, err := fx.vm.NewGuestSpace(0)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := fx.vm.AllocGuestHuge(0)
	if err != nil {
		t.Fatal(err)
	}
	va := pt.VirtAddr(0x40000000) // 1GB-aligned, so 2MB-aligned
	if err := gs.Map(va, gf, pt.Size2M, pt.FlagWrite|pt.FlagUser, 0); err != nil {
		t.Fatal(err)
	}
	// Probe an offset inside the huge page: the composed translation must
	// land on the right 4KB host frame.
	off := pt.VirtAddr(0x1F5000)
	res, err := fx.vm.Walk2D(fx.cost, gs, 0, va+off)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 18 {
		t.Errorf("accesses = %d, want 18 (3 guest levels x 5 + 3 nested)", res.Accesses)
	}
	if res.Size != pt.Size2M {
		t.Errorf("effective size = %v, want 2MB", res.Size)
	}
	want := fx.vm.hostFrameOf(gf) + mem.FrameID(uint64(off)>>12)
	if res.HostFrame != want {
		t.Errorf("host frame = %d, want %d (base + in-page offset)", res.HostFrame, want)
	}
	// The pre-fix walker descended into the huge leaf as if it were a
	// table pointer; the base of the page must also translate correctly.
	res0, err := fx.vm.Walk2D(fx.cost, gs, 0, va)
	if err != nil {
		t.Fatal(err)
	}
	if res0.HostFrame != fx.vm.hostFrameOf(gf) {
		t.Errorf("host frame at base = %d, want %d", res0.HostFrame, fx.vm.hostFrameOf(gf))
	}
}

// A guest 2MB leaf whose backing is nested-mapped at 4KB granularity (the
// mismatched case) still composes the correct host frame, with a 4KB
// effective translation size.
func TestWalk2DGuestHugeOverNested4K(t *testing.T) {
	fx := newFixture(t, 0)
	gs, err := fx.vm.NewGuestSpace(0)
	if err != nil {
		t.Fatal(err)
	}
	// Build a 2MB-aligned run of individually nested-mapped guest frames.
	var first GuestFrame
	var hfs []mem.FrameID
	for i := 0; i < 512; i++ {
		gf, err := fx.vm.AllocGuestFrame(0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = gf
			if uint64(gf)%512 != 0 {
				t.Skipf("guest frame run not 2MB-aligned (starts at %d)", gf)
			}
		}
		hfs = append(hfs, fx.vm.hostFrameOf(gf))
	}
	va := pt.VirtAddr(0x80000000)
	if err := gs.Map(va, first, pt.Size2M, pt.FlagWrite|pt.FlagUser, 0); err != nil {
		t.Fatal(err)
	}
	off := pt.VirtAddr(37 << 12)
	res, err := fx.vm.Walk2D(fx.cost, gs, 0, va+off)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != pt.Size4K {
		t.Errorf("effective size = %v, want 4KB (nested side is 4KB)", res.Size)
	}
	if res.HostFrame != hfs[37] {
		t.Errorf("host frame = %d, want %d", res.HostFrame, hfs[37])
	}
	// 3 guest levels x 5 + 4 for the final 4KB nested translation.
	if res.Accesses != 19 {
		t.Errorf("accesses = %d, want 19", res.Accesses)
	}
}

// A malformed tree (PS bit at the nested root level) errors clearly
// instead of descending into garbage.
func TestNptTranslateMalformed(t *testing.T) {
	fx := newFixture(t, 0)
	gs, vas := buildGuest(t, fx, 0, 0, 1)
	// Corrupt the nested root: set PS on its first present entry.
	root := fx.vm.NestedRootFor(0)
	tbl := fx.pm.Table(root)
	for i := range tbl {
		e := pt.PTE(tbl[i])
		if e.Present() {
			tbl[i] = uint64(e | pt.FlagHuge)
			break
		}
	}
	if _, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0]); err == nil {
		t.Fatal("walk over malformed nested table succeeded")
	}
}

// Dropping a guest replica repoints the vCPUs at the primary and frees the
// replica's table frames.
func TestDropGuestReplica(t *testing.T) {
	fx := newFixture(t, 0)
	gs, vas := buildGuest(t, fx, 1, 0, 10)
	if err := gs.ReplicateGuest([]numa.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	before, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0])
	if err != nil {
		t.Fatal(err)
	}
	if !gs.DropGuestReplica(0) {
		t.Fatal("replica on node 0 not found")
	}
	if gs.DropGuestReplica(0) {
		t.Fatal("second drop reported a replica")
	}
	after, err := fx.vm.Walk2D(fx.cost, gs, 0, vas[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.HostFrame != before.HostFrame {
		t.Error("dropping the replica changed the translation")
	}
	if after.RemoteAccesses <= before.RemoteAccesses {
		t.Errorf("walk after drop should be more remote (%d -> %d)", before.RemoteAccesses, after.RemoteAccesses)
	}
}
