package translate

import (
	"fmt"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/pvops/pvopstest"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
)

// conformancePages is the region every backend's conformance run maps: one
// page for the page shootdown, a range below the full-flush threshold, a
// range above it, and pages no shootdown names.
const conformancePages = 1 + 8 + fullFlushThreshold + 1 + 5

// conformanceRig drives one translate.Core directly against a page table
// built through the native PV-Ops backend.
type conformanceRig struct {
	t     *testing.T
	pm    *mem.PhysMem
	pv    pvops.Backend
	core  Core
	ctx   Ctx
	opctx *pvops.OpCtx
	mp    *pvops.Mapper // the loaded address space
	vas   []pt.VirtAddr
}

func newConformanceRig(t *testing.T, backend string) *conformanceRig {
	topo := numa.NewTopology(2, 1)
	cost := numa.NewCostModel(topo, numa.DefaultCostParams())
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 1 << 12})
	be, err := New(Spec{Backend: backend}, Deps{Topo: topo, Cost: cost, Mem: pm})
	if err != nil {
		t.Fatal(err)
	}
	r := &conformanceRig{
		t:     t,
		pm:    pm,
		pv:    pvopstest.NewNative(pm, cost),
		core:  be.NewCore(0),
		opctx: &pvops.OpCtx{},
	}
	r.ctx = Ctx{
		Home:    topo.NodeOf(0),
		Levels:  be.Levels(),
		LLC:     mmucache.NewLLC(mmucache.DefaultLLCConfig()),
		Stats:   &CoreStats{},
		Pending: &[]mmucache.LineID{},
	}
	for i := range conformancePages {
		r.vas = append(r.vas, pt.VirtAddr(0x40000000+uint64(i)<<pt.PageShift4K))
	}
	return r
}

// space builds an address space mapping every page of the region to a
// fresh data frame.
func (r *conformanceRig) space() *pvops.Mapper {
	mp, err := pvops.NewMapper(r.opctx, r.pm, r.pv, r.ctx.Levels, pvops.PTPlacement{})
	if err != nil {
		r.t.Fatal(err)
	}
	for _, va := range r.vas {
		f, err := r.pm.AllocData(0)
		if err != nil {
			r.t.Fatal(err)
		}
		if err := mp.Map(r.opctx, va, pt.Size4K, f, pt.FlagWrite|pt.FlagUser, pvops.PTPlacement{}); err != nil {
			r.t.Fatal(err)
		}
	}
	return mp
}

// load switches the core to mp's root, as a context switch does.
func (r *conformanceRig) load(mp *pvops.Mapper) {
	r.mp = mp
	r.ctx.CR3 = mp.Root()
	r.core.FlushContext(&r.ctx)
}

// frameOf is the data frame the loaded table maps va to, or NilFrame.
func (r *conformanceRig) frameOf(va pt.VirtAddr) mem.FrameID {
	leaf, _, ok := pttest.Lookup(r.mp.Table(), va)
	if !ok {
		return mem.NilFrame
	}
	return leaf.Frame()
}

// fill runs the machine's access path for every mapped page: a probe, and
// on a miss a walk and a fill.
func (r *conformanceRig) fill() {
	for _, va := range r.vas {
		if _, _, hit := r.core.Probe(&r.ctx, va, false); hit {
			continue
		}
		leaf, size, _, ok := r.core.WalkOnce(&r.ctx, va, false)
		if want := r.frameOf(va); ok != (want != mem.NilFrame) || ok && leaf.Frame() != want {
			r.t.Fatalf("walk of %#x = (%v, ok %v), table maps frame %d", uint64(va), leaf, ok, want)
		}
		if ok {
			r.core.Fill(&r.ctx, va, leaf, size, r.pm.NodeOf(leaf.Frame()))
		}
	}
}

// check probes every page of the region once. A hit must return the frame
// the loaded table maps, never a translation the table no longer holds;
// pages in hit must hit and pages in miss must miss.
func (r *conformanceRig) check(step string, hit, miss []pt.VirtAddr) {
	r.t.Helper()
	want := map[pt.VirtAddr]string{}
	for _, va := range hit {
		want[va] = "hit"
	}
	for _, va := range miss {
		want[va] = "miss"
	}
	for _, va := range r.vas {
		e, _, ok := r.core.Probe(&r.ctx, va, false)
		switch f := r.frameOf(va); {
		case ok && f == mem.NilFrame:
			r.t.Errorf("%s: probe of unmapped %#x returned stale frame %d", step, uint64(va), e.Frame(va))
		case ok && e.Frame(va) != f:
			r.t.Errorf("%s: probe of %#x returned stale frame %d, table maps %d", step, uint64(va), e.Frame(va), f)
		case ok && want[va] == "miss":
			r.t.Errorf("%s: probe of %#x hit, want a miss", step, uint64(va))
		case !ok && want[va] == "hit":
			r.t.Errorf("%s: probe of %#x missed, want a hit", step, uint64(va))
		}
	}
}

// unmap removes the pages from the loaded table, as munmap does before it
// shoots them down.
func (r *conformanceRig) unmap(vas []pt.VirtAddr) {
	for _, va := range vas {
		if _, err := r.mp.Unmap(r.opctx, va, pt.Size4K); err != nil {
			r.t.Fatal(err)
		}
	}
}

// TestBackendConformance drives each backend's translate.Core directly
// through fill, a page shootdown, range shootdowns below and above the
// full-flush threshold, a context flush and a reset. After each step no
// probe may return a translation the loaded table does not hold, and the
// translations each step must keep (or drop) are probed for.
func TestBackendConformance(t *testing.T) {
	for _, backend := range []string{BackendX8664, BackendX8664LA57, BackendVictima} {
		t.Run(backend, func(t *testing.T) {
			r := newConformanceRig(t, backend)
			first := r.space()
			r.load(first)
			vas := r.vas
			page, below, above, kept := vas[:1], vas[1:9], vas[9:9+fullFlushThreshold+1], vas[9+fullFlushThreshold+1:]

			r.fill()
			r.check("fill", vas, nil)

			r.unmap(page)
			r.core.ShootdownPage(&r.ctx, page[0])
			r.check("page shootdown", vas[1:], page)

			r.unmap(below)
			r.core.ShootdownRange(&r.ctx, below)
			r.check(fmt.Sprintf("%d-page range shootdown", len(below)), vas[9:], vas[:9])

			r.unmap(above)
			r.core.ShootdownRange(&r.ctx, above)
			r.check(fmt.Sprintf("%d-page range shootdown", len(above)), nil, vas[:len(vas)-len(kept)])

			// A context switch to another address space that maps the
			// same pages to other frames must not see the first one's.
			r.fill()
			r.load(r.space())
			r.check("context flush to another space", nil, nil)
			r.fill()
			r.check("fill of the second space", vas, nil)
			r.load(first)
			r.check("context flush back", nil, nil)

			r.fill()
			r.core.Reset()
			if s := r.core.TLBStats(); s != (tlb.Stats{}) {
				t.Errorf("TLB stats after Reset = %+v, want zero", s)
			}
			r.check("reset", nil, vas)
			r.fill()
			r.check("fill after reset", kept, nil)
		})
	}
}
