package pvops_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/pvops/pvopstest"
)

func TestVisitLeavesOrderAndBounds(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	place := pvops.PTPlacement{Primary: 0}

	// Map pages across several L1/L2 boundaries.
	var mapped []pt.VirtAddr
	for i := 0; i < 40; i++ {
		va := pt.VirtAddr(uint64(i) * 0x250000) // 2.3MB stride: crosses L1 tables
		va = pt.PageBase(va, pt.Size4K)
		f, _ := fx.pm.AllocData(0)
		if err := mp.Map(fx.ctx, va, pt.Size4K, f, pt.FlagWrite, place); err != nil {
			t.Fatal(err)
		}
		mapped = append(mapped, va)
	}

	var seen []pt.VirtAddr
	mp.VisitLeaves(fx.ctx, 0, pt.VirtAddr(1)<<40, func(lv pvops.LeafVisit) (pt.PTE, bool) {
		seen = append(seen, lv.VA)
		if lv.Size != pt.Size4K {
			t.Errorf("size = %v at %#x", lv.Size, uint64(lv.VA))
		}
		return 0, false
	})
	if len(seen) != len(mapped) {
		t.Fatalf("visited %d leaves, want %d", len(seen), len(mapped))
	}
	for i := range seen {
		if seen[i] != mapped[i] {
			t.Errorf("visit order [%d] = %#x, want %#x", i, uint64(seen[i]), uint64(mapped[i]))
		}
		if i > 0 && seen[i] <= seen[i-1] {
			t.Error("visit not in ascending order")
		}
	}

	// Bounded visit sees only in-range leaves.
	var bounded []pt.VirtAddr
	mp.VisitLeaves(fx.ctx, mapped[3], mapped[10]+1, func(lv pvops.LeafVisit) (pt.PTE, bool) {
		bounded = append(bounded, lv.VA)
		return 0, false
	})
	if len(bounded) != 8 {
		t.Errorf("bounded visit saw %d leaves, want 8", len(bounded))
	}
}

func TestVisitLeavesRewrite(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	place := pvops.PTPlacement{Primary: 0}
	for i := 0; i < 10; i++ {
		f, _ := fx.pm.AllocData(0)
		if err := mp.Map(fx.ctx, pt.VirtAddr(0x1000*uint64(i+1)), pt.Size4K, f, pt.FlagWrite, place); err != nil {
			t.Fatal(err)
		}
	}
	mp.VisitLeaves(fx.ctx, 0, 1<<20, func(lv pvops.LeafVisit) (pt.PTE, bool) {
		return lv.Old.ClearFlags(pt.FlagWrite), true
	})
	for i := 0; i < 10; i++ {
		leaf, _, ok := pttest.Lookup(mp.Table(), pt.VirtAddr(0x1000*uint64(i+1)))
		if !ok || leaf.Writable() {
			t.Errorf("page %d: ok=%v writable=%v, want read-only", i, ok, leaf.Writable())
		}
	}
}

func TestVisitLeavesHugePages(t *testing.T) {
	fx := newFixture(t)
	mp := newMapper(t, fx)
	place := pvops.PTPlacement{Primary: 0}
	h, err := fx.pm.AllocHuge(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Map(fx.ctx, 0x40000000, pt.Size2M, h, pt.FlagWrite, place); err != nil {
		t.Fatal(err)
	}
	f, _ := fx.pm.AllocData(0)
	if err := mp.Map(fx.ctx, 0x40200000, pt.Size4K, f, pt.FlagWrite, place); err != nil {
		t.Fatal(err)
	}
	var sizes []pt.PageSize
	mp.VisitLeaves(fx.ctx, 0x40000000, 0x40400000, func(lv pvops.LeafVisit) (pt.PTE, bool) {
		sizes = append(sizes, lv.Size)
		return 0, false
	})
	if len(sizes) != 2 || sizes[0] != pt.Size2M || sizes[1] != pt.Size4K {
		t.Errorf("sizes = %v, want [2MB 4KB]", sizes)
	}
}

// Property: VisitLeaves finds exactly the pages that individual Lookups
// find, for any random mapping pattern and visit window.
func TestVisitLeavesMatchesLookup(t *testing.T) {
	f := func(seed int64, lo16, hi16 uint16) bool {
		r := rand.New(rand.NewSource(seed))
		topo := numa.NewTopology(2, 1)
		pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 8192})
		cost := numa.NewCostModel(topo, numa.DefaultCostParams())
		ctx := &pvops.OpCtx{}
		mp, err := pvops.NewMapper(ctx, pm, pvopstest.NewNative(pm, cost), 4, pvops.PTPlacement{Primary: 0})
		if err != nil {
			return false
		}
		mapped := map[pt.VirtAddr]bool{}
		for i := 0; i < 60; i++ {
			va := pt.VirtAddr(uint64(r.Intn(1<<16))) << 12
			if mapped[va] {
				continue
			}
			fr, err := pm.AllocData(0)
			if err != nil {
				return false
			}
			if err := mp.Map(ctx, va, pt.Size4K, fr, 0, pvops.PTPlacement{Primary: 0}); err != nil {
				return false
			}
			mapped[va] = true
		}
		start := pt.VirtAddr(uint64(lo16)) << 12
		end := pt.VirtAddr(uint64(hi16)) << 12
		if end <= start {
			start, end = end, start+4096
		}
		visited := map[pt.VirtAddr]bool{}
		mp.VisitLeaves(ctx, start, end, func(lv pvops.LeafVisit) (pt.PTE, bool) {
			visited[lv.VA] = true
			return 0, false
		})
		for va := range mapped {
			inRange := va >= start && va < end
			if visited[va] != inRange {
				return false
			}
		}
		return len(visited) <= len(mapped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
