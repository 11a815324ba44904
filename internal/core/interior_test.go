package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// refTreePages is treePages as it was: a Visit of every entry, leaves
// included, keeping the interior entries that point at page-table frames.
func refTreePages(s *Space) []mem.FrameID {
	t := s.mapper.Table()
	pages := []mem.FrameID{t.Root()}
	t.Visit(func(level uint8, _ pt.EntryRef, e pt.PTE) bool {
		if level > 1 && !e.Huge() && s.pm.Meta(e.Frame()).Kind == mem.KindPageTable {
			pages = append(pages, e.Frame())
		}
		return true
	})
	return pages
}

type interiorEntry struct {
	level uint8
	ref   pt.EntryRef
	e     pt.PTE
}

// mapRandom maps n random pages below 64 GB through the fixture's mapper:
// 4KB pages in clusters and, with huge, 2MB and 1GB pages too. Huge leaves
// carry tag frames; nothing reads them.
func (fx *fixture) mapRandom(t *testing.T, rng *rand.Rand, n int, huge bool) {
	t.Helper()
	place := pvops.PTPlacement{Primary: fx.space.PrimaryNode(), Replicas: fx.space.Mask()}
	for range n {
		va := pt.VirtAddr(rng.Intn(64)) << 30
		size := pt.Size4K
		switch r := rng.Intn(10); {
		case huge && r == 0:
			size = pt.Size1G
		case huge && r < 4:
			size = pt.Size2M
			va += pt.VirtAddr(rng.Intn(512)) << 21
		default:
			va += pt.VirtAddr(rng.Intn(8))<<21 + pt.VirtAddr(rng.Intn(512))<<12
		}
		frame := mem.FrameID(1 << 30)
		if size == pt.Size4K {
			f, err := fx.pm.AllocData(numa.NodeID(rng.Intn(4)))
			if err != nil {
				t.Fatal(err)
			}
			frame = f
		}
		err := fx.mp.Map(fx.ctx, va, size, frame, pt.FlagWrite|pt.FlagUser, place)
		if err != nil && size == pt.Size4K {
			fx.pm.Free(frame)
		}
	}
}

// checkTree compares the interior traversal with Visit on every copy of
// the table, and PTPageCount and treePages with the slice-building count.
func (fx *fixture) checkTree(t *testing.T, state string) {
	t.Helper()
	want := refTreePages(fx.space)
	if got := fx.space.treePages(); !slices.Equal(got, want) {
		t.Fatalf("%s: treePages %v, reference %v", state, got, want)
	}
	if got := fx.space.PTPageCount(); got != len(want) {
		t.Fatalf("%s: PTPageCount %d, reference %d", state, got, len(want))
	}
	for _, tbl := range fx.allRoots() {
		var got, ref []interiorEntry
		tbl.VisitInterior(func(level uint8, r pt.EntryRef, e pt.PTE) bool {
			got = append(got, interiorEntry{level, r, e})
			return true
		})
		tbl.Visit(func(level uint8, r pt.EntryRef, e pt.PTE) bool {
			if level > 1 && !e.Huge() {
				ref = append(ref, interiorEntry{level, r, e})
			}
			return true
		})
		if !slices.Equal(got, ref) {
			t.Fatalf("%s: copy at root %d: VisitInterior reported %v, Visit's interior entries are %v", state, tbl.Root(), got, ref)
		}
	}
}

// TestPTPageCountMatchesReference checks PTPageCount, treePages and the
// interior traversal of every table copy against the leaf-visiting
// reference on 4- and 5-level trees, with 4KB leaves alone and with 2MB
// and 1GB leaves, unreplicated, replicated on every node, grown while
// replicated, migrated (keeping and dropping the origin) and collapsed.
func TestPTPageCountMatchesReference(t *testing.T) {
	for _, levels := range []uint8{4, 5} {
		for _, huge := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d-level/huge=%v", levels, huge), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(levels) * 7))
				fx := newFixtureLevels(t, 1, levels)
				fx.mapRandom(t, rng, 300, huge)
				fx.checkTree(t, "unreplicated")
				if err := fx.space.Replicate(fx.ctx); err != nil {
					t.Fatal(err)
				}
				fx.checkTree(t, "replicated")
				fx.mapRandom(t, rng, 100, huge)
				fx.checkTree(t, "grown while replicated")
				if err := fx.space.SetMask(fx.ctx, []numa.NodeID{3}); err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					node numa.NodeID
					keep bool
				}{{2, true}, {0, false}, {3, false}} {
					if err := fx.space.Migrate(fx.ctx, c.node, c.keep); err != nil {
						t.Fatal(err)
					}
					fx.mapRandom(t, rng, 30, huge)
					fx.checkTree(t, fmt.Sprintf("migrated to node %d (keep origin %v)", c.node, c.keep))
				}
				fx.space.Collapse(fx.ctx)
				fx.checkTree(t, "collapsed")
				if err := fx.space.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPTPageCountAllocatesNothing pins the count's zero-allocation
// contract: a policy tick prices a replica with it at every barrier.
func TestPTPageCountAllocatesNothing(t *testing.T) {
	fx := newFixture(t, 0)
	fx.mapRandom(t, rand.New(rand.NewSource(3)), 200, true)
	if err := fx.space.Replicate(fx.ctx); err != nil {
		t.Fatal(err)
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() { n = fx.space.PTPageCount() }); allocs != 0 {
		t.Errorf("PTPageCount allocates %.1f times a call", allocs)
	}
	if n < 10 {
		t.Errorf("PTPageCount = %d on a tree of 200 mappings", n)
	}
}
