package tlb

import (
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

func testConfig() Config {
	return Config{
		L1Entries4K: 8, L1Ways4K: 2,
		L1Entries2M: 4, L1Ways2M: 2,
		L2Entries: 32, L2Ways: 4,
	}
}

func TestInsertLookup4K(t *testing.T) {
	tl := New(testConfig())
	va := pt.VirtAddr(0x12345000)
	leaf := pt.NewPTE(777, pt.FlagPresent|pt.FlagWrite)
	tl.Insert(va, leaf, pt.Size4K)

	e, hit := tl.Lookup(va)
	if hit != HitL1 {
		t.Fatalf("hit = %v, want HitL1", hit)
	}
	if e.Leaf != leaf || e.Size != pt.Size4K {
		t.Errorf("entry = %+v", e)
	}
	if got := e.Frame(va + 0x123); got != 777 {
		t.Errorf("Frame = %d, want 777", got)
	}
	// A different page misses.
	if _, hit := tl.Lookup(va + 0x1000); hit != Miss {
		t.Errorf("unexpected hit for unmapped page")
	}
}

func TestInsertLookup2M(t *testing.T) {
	tl := New(testConfig())
	va := pt.VirtAddr(0x40000000)
	leaf := pt.NewPTE(512, pt.FlagPresent|pt.FlagHuge)
	tl.Insert(va, leaf, pt.Size2M)

	// Anywhere inside the 2MB page hits.
	e, hit := tl.Lookup(va + 0x1F5123)
	if hit != HitL1 {
		t.Fatalf("hit = %v, want HitL1", hit)
	}
	// Frame adjusts for the 4KB offset within the huge page.
	want := 512 + (0x1F5123 >> 12)
	if got := e.Frame(va + 0x1F5123); uint64(got) != uint64(want) {
		t.Errorf("Frame = %d, want %d", got, want)
	}
}

func TestL2PromotionToL1(t *testing.T) {
	tl := New(testConfig())
	// Fill the L1 set for va with conflicting entries; va survives in L2.
	va := pt.VirtAddr(0x1000)
	tl.Insert(va, pt.NewPTE(1, pt.FlagPresent), pt.Size4K)
	sets := uint64(8 / 2) // L1 sets
	for i := uint64(1); i <= 2; i++ {
		conflict := pt.VirtAddr((uint64(va)>>12 + i*sets) << 12)
		tl.Insert(conflict, pt.NewPTE(mem.FrameID(100+i), pt.FlagPresent), pt.Size4K)
	}
	// va was evicted from its L1 set but should still be in L2.
	e, hit := tl.Lookup(va)
	if hit != HitL2 {
		t.Fatalf("hit = %v, want HitL2", hit)
	}
	if e.Leaf.Frame() != 1 {
		t.Errorf("frame = %d, want 1", e.Leaf.Frame())
	}
	// After promotion, the next lookup is an L1 hit.
	if _, hit := tl.Lookup(va); hit != HitL1 {
		t.Errorf("post-promotion hit = %v, want HitL1", hit)
	}
}

func TestLRUWithinSet(t *testing.T) {
	tl := New(Config{L1Entries4K: 2, L1Ways4K: 2, L1Entries2M: 2, L1Ways2M: 2, L2Entries: 4, L2Ways: 4})
	// Single set, 2 ways: a, b, touch a, insert c -> b evicted.
	a, b, c := pt.VirtAddr(0x1000), pt.VirtAddr(0x2000), pt.VirtAddr(0x3000)
	tl.Insert(a, pt.NewPTE(1, pt.FlagPresent), pt.Size4K)
	tl.Insert(b, pt.NewPTE(2, pt.FlagPresent), pt.Size4K)
	tl.Lookup(a)
	tl.Insert(c, pt.NewPTE(3, pt.FlagPresent), pt.Size4K)

	tl.Stats = Stats{}
	if _, hit := tl.Lookup(a); hit != HitL1 {
		t.Error("a should survive (MRU)")
	}
	// b evicted from L1; may still be in L2 (bigger). Check L1 via stats.
	if _, hit := tl.Lookup(b); hit == HitL1 {
		t.Error("b should have been evicted from L1")
	}
}

func TestInvalidatePage(t *testing.T) {
	tl := New(testConfig())
	va := pt.VirtAddr(0x5000)
	tl.Insert(va, pt.NewPTE(9, pt.FlagPresent), pt.Size4K)
	tl.InvalidatePage(va)
	if _, hit := tl.Lookup(va); hit != Miss {
		t.Error("translation survives InvalidatePage")
	}
	// 2MB entries covering the VA are dropped too.
	va2 := pt.VirtAddr(0x40000000)
	tl.Insert(va2, pt.NewPTE(11, pt.FlagPresent|pt.FlagHuge), pt.Size2M)
	tl.InvalidatePage(va2 + 0x5000)
	if _, hit := tl.Lookup(va2 + 0x6000); hit != Miss {
		t.Error("2MB translation survives InvalidatePage inside its range")
	}
}

func TestFlush(t *testing.T) {
	tl := New(testConfig())
	for i := 0; i < 16; i++ {
		tl.Insert(pt.VirtAddr(uint64(i)<<12), pt.NewPTE(777, pt.FlagPresent), pt.Size4K)
	}
	tl.Flush()
	for i := 0; i < 16; i++ {
		if _, hit := tl.Lookup(pt.VirtAddr(uint64(i) << 12)); hit != Miss {
			t.Fatalf("entry %d survives Flush", i)
		}
	}
}

func TestStats(t *testing.T) {
	tl := New(testConfig())
	va := pt.VirtAddr(0x1000)
	if _, hit := tl.Lookup(va); hit != Miss {
		t.Fatalf("cold lookup = %v, want a miss", hit)
	}
	tl.Insert(va, pt.NewPTE(1, pt.FlagPresent), pt.Size4K)
	if _, hit := tl.Lookup(va); hit != HitL1 {
		t.Fatalf("lookup after insert = %v, want an L1 hit", hit)
	}
	if s := tl.Stats; s.Lookups != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	tl.ResetStats()
	if tl.Stats.Lookups != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{L1Entries4K: 0, L1Ways4K: 1, L1Entries2M: 2, L1Ways2M: 1, L2Entries: 4, L2Ways: 1},
		{L1Entries4K: 3, L1Ways4K: 2, L1Entries2M: 2, L1Ways2M: 1, L2Entries: 4, L2Ways: 1},
		{L1Entries4K: 6, L1Ways4K: 2, L1Entries2M: 2, L1Ways2M: 1, L2Entries: 4, L2Ways: 1}, // 3 sets: not pow2
		// Wider than a uint8 recency permutation can order.
		{L1Entries4K: 16, L1Ways4K: 4, L1Entries2M: 8, L1Ways2M: 4, L2Entries: 512, L2Ways: 512},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: after inserting a translation it is immediately visible, and
// invalidating it makes it immediately invisible, regardless of the
// surrounding insert traffic within one set's capacity window.
func TestInsertInvalidateVisibility(t *testing.T) {
	f := func(pages []uint16) bool {
		tl := New(DefaultConfig())
		for _, p := range pages {
			va := pt.VirtAddr(uint64(p) << 12)
			tl.Insert(va, pt.NewPTE(777, pt.FlagPresent), pt.Size4K)
			if _, hit := tl.Lookup(va); hit == Miss {
				return false
			}
			tl.InvalidatePage(va)
			if _, hit := tl.Lookup(va); hit != Miss {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the TLB never fabricates a translation that was not inserted.
func TestNoFabricatedTranslations(t *testing.T) {
	f := func(insertPages, lookupPages []uint16) bool {
		tl := New(DefaultConfig())
		inserted := map[uint64]bool{}
		for _, p := range insertPages {
			va := pt.VirtAddr(uint64(p) << 12)
			tl.Insert(va, pt.NewPTE(mem.FrameID(p), pt.FlagPresent), pt.Size4K)
			inserted[uint64(p)] = true
		}
		for _, p := range lookupPages {
			va := pt.VirtAddr(uint64(p) << 12)
			e, hit := tl.Lookup(va)
			if hit == Miss {
				continue
			}
			if !inserted[uint64(p)] {
				return false
			}
			if e.Leaf.Frame() != mem.FrameID(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A 256-way set is the widest a uint8 recency permutation orders, and it
// keeps all 256 translations.
func TestWidestSetKeepsEveryWay(t *testing.T) {
	tl := New(Config{L1Entries4K: 4, L1Ways4K: 4, L1Entries2M: 4, L1Ways2M: 4, L2Entries: 256, L2Ways: 256})
	const pages = 256
	for i := 0; i < pages; i++ {
		va := pt.VirtAddr(uint64(i) << pt.PageShift4K)
		if _, hit := tl.Lookup(va); hit != Miss {
			t.Fatalf("page %d hit before its fill", i)
		}
		tl.InsertMapped(va, pt.NewPTE(mem.FrameID(100+i), pt.FlagPresent), pt.Size4K, 0)
	}
	for i := 0; i < pages; i++ {
		va := pt.VirtAddr(uint64(i) << pt.PageShift4K)
		e, hit := tl.Lookup(va)
		if hit == Miss {
			t.Fatalf("page %d of %d evicted from a %d-way set", i, pages, pages)
		}
		if e.Frame(va) != mem.FrameID(100+i) {
			t.Fatalf("page %d: frame %d", i, e.Frame(va))
		}
	}
}
