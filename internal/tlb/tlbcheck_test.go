package tlb

import (
	"math/rand"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

func TestMissRate2M(t *testing.T) {
	tl := New(DefaultConfig())
	r := rand.New(rand.NewSource(1))
	const pages = 448 // 896MB of 2MB pages
	base := uint64(1) << 40
	miss := 0
	for i := 0; i < 100000; i++ {
		va := pt.VirtAddr(base + uint64(r.Intn(pages))<<21 + uint64(r.Intn(1<<21))&^63)
		_, hit := tl.Lookup(va)
		if hit == Miss {
			miss++
			tl.Insert(va, pt.NewPTE(mem.FrameID(i), pt.FlagPresent|pt.FlagHuge), pt.Size2M)
		}
	}
	t.Logf("miss rate = %.3f", float64(miss)/100000)
}

// A 1GB mapping computes host frames with a 1GB offset mask: any 4KB page
// inside the gigapage translates to base + its in-page frame offset. The
// pre-fix code aliased 1GB entries into the 2MB arrays at 2MB granularity,
// so offsets beyond 2MB produced the wrong physical address.
func TestInsert1GFrameOffsets(t *testing.T) {
	tl := New(DefaultConfig())
	va := pt.VirtAddr(3) << 30
	base := mem.FrameID(1 << 18) // 1GB-aligned frame
	tl.Insert(va, pt.NewPTE(base, pt.FlagPresent|pt.FlagWrite|pt.FlagHuge), pt.Size1G)

	for _, off := range []uint64{0, 0x1000, 2 << 20, 700 << 20, (1 << 30) - 0x1000} {
		e, hit := tl.Lookup(va + pt.VirtAddr(off))
		if hit == Miss {
			t.Fatalf("offset %#x: miss inside 1GB mapping", off)
		}
		if e.Size != pt.Size1G {
			t.Fatalf("offset %#x: entry size %v, want 1GB", off, e.Size)
		}
		want := base + mem.FrameID(off>>12)
		if got := e.Frame(va + pt.VirtAddr(off)); got != want {
			t.Errorf("offset %#x: frame %d, want %d", off, got, want)
		}
	}
	// The next gigapage misses.
	if _, hit := tl.Lookup(va + (1 << 30)); hit != Miss {
		t.Error("lookup in the next gigapage hit")
	}
}

// A shootdown for any address inside a 2MB mapping drops every covering
// entry at both TLB levels — including the L1 copy promotion creates.
func TestShootdown2MCoversBothLevels(t *testing.T) {
	tl := New(DefaultConfig())
	va := pt.VirtAddr(0x40000000)
	tl.Insert(va, pt.NewPTE(512, pt.FlagPresent|pt.FlagHuge), pt.Size2M)
	// Touch it so it sits in L1 and L2.
	if _, hit := tl.Lookup(va + 0x1000); hit == Miss {
		t.Fatal("2MB entry not visible after insert")
	}
	tl.InvalidatePage(va + 0x1FF000) // any covered address
	for _, probe := range []pt.VirtAddr{va, va + 0x1000, va + 0x1FF000} {
		if _, hit := tl.Lookup(probe); hit != Miss {
			t.Errorf("probe %#x: 2MB translation survived the shootdown (hit %v)", uint64(probe), hit)
		}
	}
}

// The pre-fix InvalidatePage only cleared the single 2MB-aligned VPN slice
// of a 1GB mapping, so a shootdown for one address left the rest of the
// gigapage translatable — a stale-TLB hazard. Both levels must drop the
// whole mapping.
func TestShootdown1GCoversWholeMapping(t *testing.T) {
	tl := New(DefaultConfig())
	va := pt.VirtAddr(7) << 30
	tl.Insert(va, pt.NewPTE(mem.FrameID(1<<18), pt.FlagPresent|pt.FlagHuge), pt.Size1G)
	if _, hit := tl.Lookup(va + 900<<20); hit == Miss {
		t.Fatal("1GB entry not visible after insert")
	}
	// Shoot down an address in a *different* 2MB slice of the gigapage.
	tl.InvalidatePage(va + 4<<20)
	for _, off := range []uint64{0, 4 << 20, 900 << 20, (1 << 30) - 0x1000} {
		if _, hit := tl.Lookup(va + pt.VirtAddr(off)); hit != Miss {
			t.Errorf("offset %#x: 1GB translation survived the shootdown (hit %v)", off, hit)
		}
	}
}

// Mixed-size entries covering the same address all fall to one shootdown.
func TestShootdownDropsAllSizes(t *testing.T) {
	tl := New(DefaultConfig())
	va := pt.VirtAddr(5) << 30
	tl.Insert(va, pt.NewPTE(10, pt.FlagPresent), pt.Size4K)
	tl.Insert(va, pt.NewPTE(20, pt.FlagPresent|pt.FlagHuge), pt.Size2M)
	tl.Insert(va, pt.NewPTE(mem.FrameID(1<<18), pt.FlagPresent|pt.FlagHuge), pt.Size1G)
	tl.InvalidatePage(va)
	if _, hit := tl.Lookup(va); hit != Miss {
		t.Error("a covering translation survived the shootdown")
	}
}
