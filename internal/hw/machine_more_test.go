package hw

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// shootdownBackends are the translation backends the shootdown tests run
// on.
var shootdownBackends = []string{translate.BackendX8664, translate.BackendX8664LA57, translate.BackendVictima}

// forEachBackend runs test as one subtest per translation backend, each on
// a fresh fixture.
func forEachBackend(t *testing.T, test func(*testing.T, *fixture)) {
	for _, backend := range shootdownBackends {
		t.Run(backend, func(t *testing.T) {
			test(t, newFixtureOn(t, translate.Spec{Backend: backend}))
		})
	}
}

// load loads the fixture's table on cores.
func (fx *fixture) load(cores ...numa.CoreID) {
	for _, c := range cores {
		fx.m.LoadContext(c, fx.mp.Root(), fx.mp.Levels())
	}
}

// unmap removes va's 4KB translation from the table; a core that still
// translates va afterwards holds a stale entry.
func (fx *fixture) unmap(t *testing.T, vas ...pt.VirtAddr) {
	t.Helper()
	for _, va := range vas {
		if _, err := fx.mp.Unmap(fx.ctx, va, pt.Size4K); err != nil {
			t.Fatal(err)
		}
	}
}

// assertNoStale checks that a load of each of vas on each core faults: the
// pages are unmapped, so any translation a core still finds is stale.
func (fx *fixture) assertNoStale(t *testing.T, vas []pt.VirtAddr, cores ...numa.CoreID) {
	t.Helper()
	for _, c := range cores {
		for _, va := range vas {
			if err := fx.m.Access(c, va, false); !errors.Is(err, ErrSegfault) {
				t.Errorf("core %d: load of unmapped %#x after the shootdown returned %v, want a fault", c, uint64(va), err)
			}
		}
	}
}

// TestShootdownRangeBatchesIPI: a range shootdown costs one IPI whatever
// its page count, makes the target re-walk every page, and leaves no stale
// translation of the pages once they are unmapped.
func TestShootdownRangeBatchesIPI(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx *fixture) {
		var vas []pt.VirtAddr
		for i := 0; i < 8; i++ {
			va := pt.VirtAddr(0x1000 * uint64(i+1))
			fx.mapPage(t, va, 0)
			vas = append(vas, va)
		}
		fx.load(0, 1)
		for _, va := range vas {
			if err := fx.m.Access(1, va, false); err != nil {
				t.Fatal(err)
			}
		}
		before := fx.m.Stats(0).Cycles
		fx.m.ShootdownRange(0, vas, []numa.CoreID{0, 1})
		// One IPI regardless of page count: cost is a single constant.
		if got := fx.m.Stats(0).Cycles - before; got != 2000 {
			t.Errorf("shootdown cost = %d, want one 2000-cycle IPI", got)
		}
		// Core 1 re-walks every page.
		w := fx.m.Stats(1).Walks
		for _, va := range vas {
			if err := fx.m.Access(1, va, false); err != nil {
				t.Fatal(err)
			}
		}
		if got := fx.m.Stats(1).Walks - w; got != uint64(len(vas)) {
			t.Errorf("re-walks = %d, want %d", got, len(vas))
		}
		fx.unmap(t, vas...)
		fx.m.ShootdownRange(0, vas, []numa.CoreID{0, 1})
		fx.assertNoStale(t, vas, 0, 1)
	})
}

// TestShootdownRangeFullFlushAboveThreshold: a range above the backend's
// full-flush ceiling flushes the hardware translation caches, so a page
// outside the range re-walks, except on Victima, whose LLC-resident blocks
// outside the range persist (software invalidates exactly the blocks of
// the range). No core keeps a translation of the unmapped range.
func TestShootdownRangeFullFlushAboveThreshold(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx *fixture) {
		var vas []pt.VirtAddr
		for i := 0; i < 40; i++ { // above the 33-page ceiling
			va := pt.VirtAddr(0x1000 * uint64(i+1))
			fx.mapPage(t, va, 0)
			vas = append(vas, va)
		}
		other := pt.VirtAddr(0x800000)
		fx.mapPage(t, other, 0)
		fx.load(0)
		for _, va := range append(vas, other) {
			if err := fx.m.Access(0, va, false); err != nil {
				t.Fatal(err)
			}
		}
		walks := fx.m.Stats(0).Walks
		fx.unmap(t, vas...)
		fx.m.ShootdownRange(0, vas, []numa.CoreID{0})
		if err := fx.m.Access(0, other, false); err != nil {
			t.Fatal(err)
		}
		want := walks + 1
		if fx.m.Backend().Name() == translate.BackendVictima {
			want = walks
		}
		if got := fx.m.Stats(0).Walks; got != want {
			t.Errorf("walks after the load of a page outside the range = %d, want %d", got, want)
		}
		fx.assertNoStale(t, vas, 0)
	})
}

// TestShootdownRangeEmptyIsFree: an empty range sends no IPI and flushes
// nothing.
func TestShootdownRangeEmptyIsFree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, fx *fixture) {
		va := pt.VirtAddr(0x1000)
		fx.mapPage(t, va, 0)
		fx.load(0)
		if err := fx.m.Access(0, va, false); err != nil {
			t.Fatal(err)
		}
		before, walks := fx.m.Stats(0).Cycles, fx.m.Stats(0).Walks
		fx.m.ShootdownRange(0, nil, []numa.CoreID{0, 1})
		if got := fx.m.Stats(0).Cycles; got != before {
			t.Errorf("empty shootdown charged %d cycles", got-before)
		}
		if err := fx.m.Access(0, va, false); err != nil {
			t.Fatal(err)
		}
		if got := fx.m.Stats(0).Walks; got != walks {
			t.Errorf("empty shootdown flushed a translation: walks %d -> %d", walks, got)
		}
	})
}

func TestWalkOverlapScalesWalkCycles(t *testing.T) {
	measure := func(overlap float64) numa.Cycles {
		fx := newFixture(t)
		va := pt.VirtAddr(0x1000)
		fx.mapPage(t, va, 3) // remote PT not needed; any walk works
		fx.m.LoadContext(0, fx.mp.Root(), 4)
		fx.m.SetWalkOverlap(0, overlap)
		if err := fx.m.Access(0, va, false); err != nil {
			t.Fatal(err)
		}
		return fx.m.Stats(0).WalkCycles
	}
	full := measure(1.0)
	half := measure(0.5)
	if half >= full {
		t.Errorf("overlap 0.5 walk cycles (%d) not below 1.0 (%d)", half, full)
	}
	if half < full*4/10 || half > full*6/10 {
		t.Errorf("overlap 0.5 = %d, want about half of %d", half, full)
	}
}

func TestWalkOverlapValidation(t *testing.T) {
	fx := newFixture(t)
	for _, bad := range []float64{0, -0.1, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetWalkOverlap(%v): expected panic", bad)
				}
			}()
			fx.m.SetWalkOverlap(0, bad)
		}()
	}
}

// Property: the machine's translation (through TLB + walker, faults off)
// always agrees with a software walk of the same table, for any mapping
// pattern and access sequence.
func TestMachineMatchesSoftwareWalk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newFixture(t)
		place := pvops.PTPlacement{Primary: 0}
		type mapping struct {
			va    pt.VirtAddr
			frame uint64
		}
		var maps []mapping
		for i := 0; i < 50; i++ {
			va := pt.VirtAddr(uint64(r.Intn(1<<16))) << 12
			fr, err := fx.pm.AllocData(numa.NodeID(r.Intn(4)))
			if err != nil {
				return false
			}
			if err := fx.mp.Map(fx.ctx, va, pt.Size4K, fr, pt.FlagWrite, place); err != nil {
				fx.pm.Free(fr)
				continue
			}
			maps = append(maps, mapping{va, uint64(fr)})
		}
		fx.m.LoadContext(0, fx.mp.Root(), 4)
		tbl := fx.mp.Table()
		for i := 0; i < 300; i++ {
			m := maps[r.Intn(len(maps))]
			off := pt.VirtAddr(r.Intn(4096)) &^ 7
			if err := fx.m.Access(0, m.va+off, r.Intn(2) == 0); err != nil {
				return false
			}
			// The software walk must agree with what the hardware path
			// translated (the machine would have faulted otherwise).
			leaf, _, ok := pttest.Lookup(tbl, m.va+off)
			if !ok || uint64(leaf.Frame()) != m.frame {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: cycle accounting is monotone — every access adds at least the
// pipeline cost, and walk cycles never exceed total cycles.
func TestCycleAccountingInvariants(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newFixture(t)
		place := pvops.PTPlacement{Primary: 0}
		var vas []pt.VirtAddr
		for i := 0; i < 20; i++ {
			va := pt.VirtAddr(uint64(i)) << 21 // spread over L1 tables
			fr, _ := fx.pm.AllocData(0)
			if err := fx.mp.Map(fx.ctx, va, pt.Size4K, fr, pt.FlagWrite, place); err != nil {
				return false
			}
			vas = append(vas, va)
		}
		fx.m.LoadContext(0, fx.mp.Root(), 4)
		prev := fx.m.Stats(0).Cycles
		for i := 0; i < int(opsRaw); i++ {
			if err := fx.m.Access(0, vas[r.Intn(len(vas))], false); err != nil {
				return false
			}
			cur := fx.m.Stats(0)
			if cur.Cycles <= prev {
				return false // must strictly increase
			}
			if cur.WalkCycles > cur.Cycles {
				return false
			}
			prev = cur.Cycles
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
