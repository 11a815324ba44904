package mmucache

import (
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

func TestPSCInsertLookup(t *testing.T) {
	p := NewPSC(DefaultPSCConfig())
	va := pt.VirtAddr(0x7f0012345000)

	if _, _, ok := p.Lookup(va, 4); ok {
		t.Fatal("empty PSC hit")
	}
	// Cache the L2 (PDE) entry: walk may resume at level 1.
	p.Insert(va, 2, 42)
	lvl, child, ok := p.Lookup(va, 4)
	if !ok || lvl != 1 || child != 42 {
		t.Fatalf("Lookup = (%d,%d,%v), want (1,42,true)", lvl, child, ok)
	}
	// The whole 2MB region covered by the PDE hits.
	base := pt.PageBase(va, pt.Size2M)
	if _, _, ok := p.Lookup(base+0x1FF000, 4); !ok {
		t.Error("PSC miss within the same 2MB region")
	}
	// A different 2MB region misses at L2.
	if lvl, _, ok := p.Lookup(base+0x200000, 4); ok && lvl == 1 {
		t.Error("PSC L2 hit for wrong region")
	}
}

func TestPSCPrefersDeepestLevel(t *testing.T) {
	p := NewPSC(DefaultPSCConfig())
	va := pt.VirtAddr(0x7f0012345000)
	p.Insert(va, 4, 4444) // PML4E: resume at 3
	p.Insert(va, 3, 3333) // PDPTE: resume at 2
	p.Insert(va, 2, 2222) // PDE: resume at 1

	lvl, child, ok := p.Lookup(va, 4)
	if !ok || lvl != 1 || child != 2222 {
		t.Fatalf("Lookup = (%d,%d,%v), want deepest (1,2222,true)", lvl, child, ok)
	}
	// Another address sharing only the PML4E prefix resumes at 3.
	other := va + (1 << 30) // different PDPT index
	lvl, child, ok = p.Lookup(other, 4)
	if !ok || lvl != 3 || child != 4444 {
		t.Fatalf("Lookup(other) = (%d,%d,%v), want (3,4444,true)", lvl, child, ok)
	}
}

func TestPSCLRUEviction(t *testing.T) {
	cfg := PSCConfig{}
	cfg.EntriesPerLevel[2] = 2
	p := NewPSC(cfg)
	a := pt.VirtAddr(0x000000)
	b := pt.VirtAddr(0x200000)
	c := pt.VirtAddr(0x400000)
	p.Insert(a, 2, 1)
	p.Insert(b, 2, 2)
	p.Lookup(a, 4)    // a becomes MRU
	p.Insert(c, 2, 3) // evicts b
	if _, _, ok := p.Lookup(b, 4); ok {
		t.Error("b should have been evicted")
	}
	if _, _, ok := p.Lookup(a, 4); !ok {
		t.Error("a should survive")
	}
	if _, _, ok := p.Lookup(c, 4); !ok {
		t.Error("c should be present")
	}
}

func TestPSCUpdateExisting(t *testing.T) {
	p := NewPSC(DefaultPSCConfig())
	va := pt.VirtAddr(0x200000)
	p.Insert(va, 2, 10)
	p.Insert(va, 2, 20) // remap: child changed
	_, child, ok := p.Lookup(va, 4)
	if !ok || child != 20 {
		t.Fatalf("child = %d, want 20", child)
	}
}

func TestPSCFlush(t *testing.T) {
	p := NewPSC(DefaultPSCConfig())
	p.Insert(0x200000, 2, 1)
	p.Flush()
	if _, _, ok := p.Lookup(0x200000, 4); ok {
		t.Error("entry survives Flush")
	}
}

func TestPSCStartLevelRespected(t *testing.T) {
	p := NewPSC(DefaultPSCConfig())
	p.Insert(0x200000, 4, 9)
	// A lookup bounded to level 3 must not consult the level-4 cache.
	if _, _, ok := p.Lookup(0x200000, 3); ok {
		t.Error("lookup consulted a level above startLevel")
	}
}

func TestLineOf(t *testing.T) {
	// 8 PTEs per line.
	if LineOf(1, 0) != LineOf(1, 7) {
		t.Error("entries 0..7 must share a line")
	}
	if LineOf(1, 7) == LineOf(1, 8) {
		t.Error("entries 7 and 8 must differ")
	}
	if LineOf(1, 0) == LineOf(2, 0) {
		t.Error("different frames must differ")
	}
}

func TestLLCHitMiss(t *testing.T) {
	l := NewLLC(LLCConfig{Lines: 64, Ways: 4})
	id := LineOf(mem.FrameID(5), 8)
	if l.Access(id) {
		t.Fatal("first access should miss")
	}
	if !l.Access(id) {
		t.Fatal("second access should hit")
	}
	if n := l.Resident(); n != 1 {
		t.Errorf("Resident() = %d, want 1", n)
	}
}

func TestLLCEviction(t *testing.T) {
	l := NewLLC(LLCConfig{Lines: 4, Ways: 4}) // one set
	ids := []LineID{1, 2, 3, 4, 5}
	for _, id := range ids {
		l.Access(id)
	}
	if l.Access(1) {
		t.Error("line 1 should have been evicted (LRU)")
	}
	if !l.Access(5) {
		t.Error("line 5 should be resident")
	}
}

func TestLLCInvalidate(t *testing.T) {
	l := NewLLC(LLCConfig{Lines: 64, Ways: 4})
	id, other := LineID(77), LineID(78)
	l.Access(id)
	l.Access(other)
	l.Invalidate(id)
	if n := l.Resident(); n != 1 {
		t.Errorf("Resident() = %d after one invalidation of two lines, want 1", n)
	}
	// Invalidating an absent line is a no-op.
	l.Invalidate(LineID(999999))
	if n := l.Resident(); n != 1 {
		t.Errorf("Resident() = %d after invalidating an absent line, want 1", n)
	}
	if l.Access(id) {
		t.Error("invalidated line still hits")
	}
	if !l.Access(other) {
		t.Error("the other line did not survive")
	}
}

func TestLLCFlush(t *testing.T) {
	l := NewLLC(DefaultLLCConfig())
	for i := 0; i < 100; i++ {
		l.Access(LineID(i))
	}
	l.Flush()
	if l.Access(LineID(5)) {
		t.Error("line survives Flush")
	}
}

func TestLLCConfigValidation(t *testing.T) {
	bad := []LLCConfig{
		{Lines: 0, Ways: 4},
		{Lines: 7, Ways: 4},
		{Lines: 24, Ways: 4},    // 6 sets: not a power of two
		{Lines: 128, Ways: 128}, // wider than a set's 64-bit valid mask
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewLLC(cfg)
		}()
	}
}

// A PSC row wider than a uint8 recency permutation can order panics
// instead of silently keeping 256 tags; 256 itself builds.
func TestPSCConfigValidation(t *testing.T) {
	var cfg PSCConfig
	cfg.EntriesPerLevel[2] = 256
	NewPSC(cfg)
	cfg.EntriesPerLevel[2] = 300
	defer func() {
		if recover() == nil {
			t.Error("NewPSC accepted a 300-entry row")
		}
	}()
	NewPSC(cfg)
}
