package pvops_test

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
)

type fixture struct {
	pm   *mem.PhysMem
	cost *numa.CostModel
	be   *pvopstest.Native
	ctx  *pvops.OpCtx
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	topo := numa.NewTopology(4, 2)
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 4096})
	cost := numa.NewCostModel(topo, numa.DefaultCostParams())
	return &fixture{
		pm:   pm,
		cost: cost,
		be:   pvopstest.NewNative(pm, cost),
		ctx:  &pvops.OpCtx{Meter: &pvops.Meter{}},
	}
}

func newMapper(t testing.TB, fx *fixture) *pvops.Mapper {
	t.Helper()
	mp, err := pvops.NewMapper(fx.ctx, fx.pm, fx.be, 4, pvops.PTPlacement{Primary: 0})
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestMapperMapLookup(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)

	data, _ := fx.pm.AllocData(1)
	va := pt.VirtAddr(0x7f0000400000)
	if err := mp.Map(fx.ctx, va, pt.Size4K, data, pt.FlagWrite|pt.FlagUser, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}

	leaf, size, ok := pttest.Lookup(mp.Table(), va)
	if !ok || size != pt.Size4K {
		t.Fatalf("Lookup: ok=%v size=%v", ok, size)
	}
	if leaf.Frame() != data {
		t.Errorf("leaf frame = %d, want %d", leaf.Frame(), data)
	}
	if !leaf.Writable() || leaf&pt.FlagUser == 0 {
		t.Errorf("leaf flags lost: %v", leaf)
	}
}

func TestMapperDoubleMapFails(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	data, _ := fx.pm.AllocData(0)
	va := pt.VirtAddr(0x1000)
	if err := mp.Map(fx.ctx, va, pt.Size4K, data, 0, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}
	err := mp.Map(fx.ctx, va, pt.Size4K, data, 0, pvops.PTPlacement{Primary: 0})
	if !errors.Is(err, pvops.ErrMapped) {
		t.Fatalf("err = %v, want pvops.ErrMapped", err)
	}
}

func TestMapperUnmap(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	data, _ := fx.pm.AllocData(0)
	va := pt.VirtAddr(0x2000)
	if err := mp.Map(fx.ctx, va, pt.Size4K, data, pt.FlagWrite, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}
	old, err := mp.Unmap(fx.ctx, va, pt.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	if old.Frame() != data {
		t.Errorf("unmap returned frame %d, want %d", old.Frame(), data)
	}
	if _, _, ok := pttest.Lookup(mp.Table(), va); ok {
		t.Error("translation survives unmap")
	}
	if _, err := mp.Unmap(fx.ctx, va, pt.Size4K); !errors.Is(err, pvops.ErrNotMapped) {
		t.Errorf("second unmap err = %v, want pvops.ErrNotMapped", err)
	}
}

func TestMapperHugeMap(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	base, err := fx.pm.AllocHuge(2)
	if err != nil {
		t.Fatal(err)
	}
	va := pt.VirtAddr(0x40000000) // 1GB, 2MB-aligned
	if err := mp.Map(fx.ctx, va, pt.Size2M, base, pt.FlagWrite, pvops.PTPlacement{Primary: 2}); err != nil {
		t.Fatal(err)
	}
	leaf, size, ok := pttest.Lookup(mp.Table(), va+0x12345)
	if !ok || size != pt.Size2M {
		t.Fatalf("huge lookup: ok=%v size=%v", ok, size)
	}
	if !leaf.Huge() {
		t.Error("PS bit missing")
	}
	// Mapping a 4KB page inside the huge range must fail.
	data, _ := fx.pm.AllocData(0)
	err = mp.Map(fx.ctx, va+0x1000, pt.Size4K, data, 0, pvops.PTPlacement{Primary: 0})
	if !errors.Is(err, pvops.ErrHugeConflict) {
		t.Errorf("err = %v, want pvops.ErrHugeConflict", err)
	}
}

func TestMapperRemap(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	oldF, _ := fx.pm.AllocData(0)
	newF, _ := fx.pm.AllocData(3)
	va := pt.VirtAddr(0x5000)
	if err := mp.Map(fx.ctx, va, pt.Size4K, oldF, pt.FlagWrite|pt.FlagAccessed|pt.FlagDirty, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}
	old, err := mp.Remap(fx.ctx, va, pt.Size4K, newF)
	if err != nil {
		t.Fatal(err)
	}
	if old.Frame() != oldF {
		t.Errorf("Remap old frame = %d, want %d", old.Frame(), oldF)
	}
	leaf, _, _ := pttest.Lookup(mp.Table(), va)
	if leaf.Frame() != newF {
		t.Errorf("new frame = %d, want %d", leaf.Frame(), newF)
	}
	if leaf.Accessed() || leaf&pt.FlagDirty != 0 {
		t.Error("Remap must clear A/D bits")
	}
	if !leaf.Writable() {
		t.Error("Remap must preserve permission flags")
	}
}

func TestMapperDestroyFreesAllTables(t *testing.T) {
	fx := newFixture(t)
	before := [4]uint64{}
	for n := 0; n < 4; n++ {
		before[n] = fx.pm.FreeFrames(numa.NodeID(n))
	}
	mp := newMapper(t, fx)
	var datas []mem.FrameID
	for i := 0; i < 64; i++ {
		f, _ := fx.pm.AllocData(numa.NodeID(i % 4))
		datas = append(datas, f)
		va := pt.VirtAddr(uint64(i) * (1 << 30)) // spread across L3 entries
		if err := mp.Map(fx.ctx, va, pt.Size4K, f, 0, pvops.PTPlacement{Primary: numa.NodeID(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	mp.Destroy(fx.ctx)
	for _, f := range datas {
		fx.pm.Free(f)
	}
	for n := 0; n < 4; n++ {
		if got := fx.pm.FreeFrames(numa.NodeID(n)); got != before[n] {
			t.Errorf("node %d leaked %d frames", n, before[n]-got)
		}
	}
}

func TestMapperPTPlacement(t *testing.T) {
	fx := newFixture(t)
	mp, err := pvops.NewMapper(fx.ctx, fx.pm, fx.be, 4, pvops.PTPlacement{Primary: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := fx.pm.NodeOf(mp.Root()); got != 2 {
		t.Errorf("root on node %d, want 2", got)
	}
	data, _ := fx.pm.AllocData(3)
	if err := mp.Map(fx.ctx, 0x1000, pt.Size4K, data, 0, pvops.PTPlacement{Primary: 3}); err != nil {
		t.Fatal(err)
	}
	// Every intermediate table created by the Map must live on node 3.
	mp.Table().VisitInterior(func(level uint8, _ pt.EntryRef, e pt.PTE) bool {
		if got := fx.pm.NodeOf(e.Frame()); got != 3 {
			t.Errorf("level-%d table on node %d, want 3", level-1, got)
		}
		return true
	})
}

// TestMeterAccounting: a map charges one page-table allocation per missing
// table, one store per entry it writes and one load per level its walk
// reads, and allocates the tables it charges for.
func TestMeterAccounting(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	p := fx.cost.Params()
	ptPages := memtest.AllocatedPT(fx.pm, 0)
	*fx.ctx.Meter = pvops.Meter{}
	data, _ := fx.pm.AllocData(0)
	if err := mp.Map(fx.ctx, 0x1000, pt.Size4K, data, 0, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}
	if got := memtest.AllocatedPT(fx.pm, 0) - ptPages; got != 3 {
		t.Errorf("allocated %d page-table pages, want 3 (L3,L2,L1)", got)
	}
	// Three tables, four stores (3 inner + leaf), and four loads: the
	// root's entry and each fresh table's.
	if got, want := fx.ctx.Meter.Cycles, 3*(p.PTAllocInit+p.PageZero)+4*p.PTEStore+4*p.PTELoad; got != want {
		t.Errorf("first map charged %d cycles, want %d", got, want)
	}

	// A second map in the same L1 table allocates nothing: a four-level
	// walk and the leaf store.
	ptPages = memtest.AllocatedPT(fx.pm, 0)
	*fx.ctx.Meter = pvops.Meter{}
	data2, _ := fx.pm.AllocData(0)
	if err := mp.Map(fx.ctx, 0x2000, pt.Size4K, data2, 0, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}
	if got := memtest.AllocatedPT(fx.pm, 0) - ptPages; got != 0 {
		t.Errorf("second map allocated %d page-table pages, want 0", got)
	}
	if got, want := fx.ctx.Meter.Cycles, p.PTEStore+4*p.PTELoad; got != want {
		t.Errorf("second map charged %d cycles, want %d", got, want)
	}
}

func TestNativeClearAD(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	data, _ := fx.pm.AllocData(0)
	va := pt.VirtAddr(0x9000)
	if err := mp.Map(fx.ctx, va, pt.Size4K, data, pt.FlagAccessed|pt.FlagDirty, pvops.PTPlacement{Primary: 0}); err != nil {
		t.Fatal(err)
	}
	d := mp.Table().Descend(va)
	fx.be.ClearAD(fx.ctx, pt.EntryRef{Frame: d.Frame, Index: pt.Index(va, d.Level)})
	leaf, _, _ := pttest.Lookup(mp.Table(), va)
	if leaf.Accessed() || leaf&pt.FlagDirty != 0 {
		t.Errorf("A/D bits survive ClearAD: %v", leaf)
	}
	if !leaf.Present() {
		t.Error("ClearAD must not clear present")
	}
}

func TestMapperAlignmentPanics(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	data, _ := fx.pm.AllocData(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unaligned huge map")
		}
	}()
	_ = mp.Map(fx.ctx, 0x1000, pt.Size2M, data, 0, pvops.PTPlacement{Primary: 0})
}
