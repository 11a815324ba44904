package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mem/memtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// TestReplicaEquivalenceUnderRandomOps is the central property test: after
// ANY sequence of map/unmap/protect/setmask/migrate operations, every
// replica must translate every address identically, and interior pointers
// must stay socket-local wherever a local child exists (invariants 1 and 2
// of DESIGN.md).
func TestReplicaEquivalenceUnderRandomOps(t *testing.T) {
	property := func(seed int64, opCount uint8) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newFixture(t, numa.NodeID(r.Intn(4)))
		mapped := make(map[pt.VirtAddr]bool)
		vaPool := make([]pt.VirtAddr, 64)
		for i := range vaPool {
			// Spread addresses across L1..L3 boundaries.
			vaPool[i] = pt.VirtAddr(uint64(r.Intn(1<<20)) * 0x1000)
		}

		ops := int(opCount)%96 + 16
		for i := 0; i < ops; i++ {
			va := vaPool[r.Intn(len(vaPool))]
			place := pvops.PTPlacement{Primary: fx.space.PrimaryNode(), Replicas: fx.space.Mask()}
			switch r.Intn(10) {
			case 0, 1, 2, 3: // map
				if mapped[va] {
					continue
				}
				f, err := fx.pm.AllocData(numa.NodeID(r.Intn(4)))
				if err != nil {
					continue
				}
				if err := fx.mp.Map(fx.ctx, va, pt.Size4K, f, pt.FlagWrite|pt.FlagUser, place); err != nil {
					t.Logf("map: %v", err)
					return false
				}
				mapped[va] = true
			case 4, 5: // unmap
				if !mapped[va] {
					continue
				}
				old, err := fx.mp.Unmap(fx.ctx, va, pt.Size4K)
				if err != nil {
					t.Logf("unmap: %v", err)
					return false
				}
				fx.pm.Free(old.Frame())
				delete(mapped, va)
			case 6: // protect
				if !mapped[va] {
					continue
				}
				writeProtect(fx.ctx, fx.mp, va)
			case 7: // setmask
				var nodes []numa.NodeID
				for n := numa.NodeID(0); n < 4; n++ {
					if r.Intn(2) == 1 {
						nodes = append(nodes, n)
					}
				}
				if err := fx.space.SetMask(fx.ctx, nodes); err != nil {
					t.Logf("setmask: %v", err)
					return false
				}
			case 8: // migrate
				if err := fx.space.Migrate(fx.ctx, numa.NodeID(r.Intn(4)), r.Intn(2) == 1); err != nil {
					t.Logf("migrate: %v", err)
					return false
				}
			case 9: // hardware A/D set on a random replica + gather
				if !mapped[va] {
					continue
				}
				roots := ringMembers(fx.pm, fx.mp.Root())
				ref, leaf, ok := leafRef(pt.NewTable(fx.pm, roots[r.Intn(len(roots))], 4), va)
				if !ok {
					t.Logf("descent of mapped va found no leaf")
					return false
				}
				pt.WriteEntryRaw(fx.pm, ref, leaf.WithFlags(pt.FlagAccessed))
				if got := fx.be.GatherAD(fx.ctx, fx.primaryRef(va)); !got.Accessed() {
					t.Logf("GatherAD lost the accessed bit: %v", got)
					return false
				}
			}
		}

		// Verify invariant 1: replica equivalence over the whole VA pool.
		tables := fx.allRoots()
		for _, va := range vaPool {
			e0, s0, ok0 := pttest.Lookup(tables[0], va)
			if ok0 != mapped[va] {
				t.Logf("primary lookup(%#x) = %v, tracker says %v", uint64(va), ok0, mapped[va])
				return false
			}
			for _, tbl := range tables[1:] {
				e, s, ok := pttest.Lookup(tbl, va)
				if ok != ok0 {
					t.Logf("replica diverges on presence at %#x", uint64(va))
					return false
				}
				if !ok {
					continue
				}
				mask := pt.FlagPresent | pt.FlagWrite | pt.FlagUser | pt.FlagHuge
				if s != s0 || e.Frame() != e0.Frame() || e.Flags()&mask != e0.Flags()&mask {
					t.Logf("replica diverges at %#x: %v/%v vs %v/%v", uint64(va), e, s, e0, s0)
					return false
				}
			}
		}

		// Verify invariant 2: interior locality.
		for _, tbl := range tables {
			home := fx.pm.NodeOf(tbl.Root())
			bad := false
			tbl.Visit(func(level uint8, _ pt.EntryRef, e pt.PTE) bool {
				if level == 1 || e.Huge() {
					return true
				}
				child := e.Frame()
				if _, ok := ringMemberOn(fx.pm, child, home); ok && fx.pm.NodeOf(child) != home {
					bad = true
					return false
				}
				return true
			})
			if bad {
				t.Logf("interior pointer not socket-local on node %d", home)
				return false
			}
		}

		// Verify ring integrity: every PT page's ring closes and holds at
		// most one member per node.
		ringsOK := true
		tables[0].Visit(func(level uint8, _ pt.EntryRef, e pt.PTE) bool {
			if level == 1 || e.Huge() {
				return true
			}
			seen := map[numa.NodeID]bool{}
			for _, m := range ringMembers(fx.pm, e.Frame()) {
				n := fx.pm.NodeOf(m)
				if seen[n] {
					ringsOK = false
					return false
				}
				seen[n] = true
			}
			return true
		})
		return ringsOK
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNoPTLeaksUnderRandomLifecycles verifies invariant 4/6: after arbitrary
// replicate/migrate/collapse cycles and a final Destroy, no page-table
// frames remain anywhere.
func TestNoPTLeaksUnderRandomLifecycles(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newFixture(t, 0)
		var frames []mem.FrameID
		for i := 0; i < 50; i++ {
			f, err := fx.pm.AllocData(numa.NodeID(r.Intn(4)))
			if err != nil {
				return false
			}
			frames = append(frames, f)
			va := pt.VirtAddr(uint64(r.Intn(1<<18)) * 0x1000)
			place := pvops.PTPlacement{Primary: fx.space.PrimaryNode(), Replicas: fx.space.Mask()}
			if err := fx.mp.Map(fx.ctx, va, pt.Size4K, f, 0, place); err != nil {
				fx.pm.Free(f)
				frames = frames[:len(frames)-1]
			}
		}
		for i := 0; i < 6; i++ {
			switch r.Intn(3) {
			case 0:
				var nodes []numa.NodeID
				for n := numa.NodeID(0); n < 4; n++ {
					if r.Intn(2) == 1 {
						nodes = append(nodes, n)
					}
				}
				if err := fx.space.SetMask(fx.ctx, nodes); err != nil {
					return false
				}
			case 1:
				if err := fx.space.Migrate(fx.ctx, numa.NodeID(r.Intn(4)), r.Intn(2) == 1); err != nil {
					return false
				}
			case 2:
				fx.space.Collapse(fx.ctx)
			}
		}
		fx.space.Collapse(fx.ctx)
		fx.mp.Destroy(fx.ctx)
		fx.cache.Drain()
		for _, f := range frames {
			fx.pm.Free(f)
		}
		for n := numa.NodeID(0); n < 4; n++ {
			if memtest.AllocatedPT(fx.pm, n) != 0 {
				t.Logf("node %d leaked %d PT pages", n, memtest.AllocatedPT(fx.pm, n))
				return false
			}
			if fx.pm.FreeFrames(n) != fx.pm.TotalFrames()/uint64(fx.topo.Nodes()) {
				t.Logf("node %d leaked frames", n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
