package pt

import (
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

func newTestMem(t testing.TB) *mem.PhysMem {
	t.Helper()
	return mem.New(mem.Config{
		Topology:      numa.NewTopology(4, 2),
		FramesPerNode: 4096,
	})
}

func TestPTEEncoding(t *testing.T) {
	e := NewPTE(0x1234, FlagPresent|FlagWrite|FlagUser)
	if !e.Present() || !e.Writable() || e&FlagUser == 0 {
		t.Errorf("flags lost: %v", e)
	}
	if e.Accessed() || e&FlagDirty != 0 || e.Huge() {
		t.Errorf("unexpected flags set: %v", e)
	}
	if got := e.Frame(); got != 0x1234 {
		t.Errorf("Frame = %#x, want 0x1234", got)
	}
}

func TestPTEFlagOps(t *testing.T) {
	e := NewPTE(99, FlagPresent)
	e = e.WithFlags(FlagAccessed | FlagDirty)
	if !e.Accessed() || e&FlagDirty == 0 {
		t.Errorf("WithFlags failed: %v", e)
	}
	e = e.ClearFlags(FlagAccessed)
	if e.Accessed() || e&FlagDirty == 0 {
		t.Errorf("ClearFlags failed: %v", e)
	}
	if e.Frame() != 99 {
		t.Errorf("flag ops corrupted frame: %d", e.Frame())
	}
}

// Property: frame and flags round-trip through a PTE independently.
func TestPTERoundTrip(t *testing.T) {
	f := func(frameRaw uint64, flagsRaw uint8) bool {
		frame := mem.FrameID(frameRaw & 0xFFFFFFFFFF)
		flags := PTE(flagsRaw) & (FlagPresent | FlagWrite | FlagUser | FlagAccessed | FlagDirty | FlagHuge)
		e := NewPTE(frame, flags)
		return e.Frame() == frame && e.Flags() == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexExtraction(t *testing.T) {
	// va = L4 idx 3, L3 idx 5, L2 idx 7, L1 idx 9, offset 0x123
	va := VirtAddr(3<<39 | 5<<30 | 7<<21 | 9<<12 | 0x123)
	cases := []struct {
		level uint8
		want  int
	}{{4, 3}, {3, 5}, {2, 7}, {1, 9}}
	for _, c := range cases {
		if got := Index(va, c.level); got != c.want {
			t.Errorf("Index(level %d) = %d, want %d", c.level, got, c.want)
		}
	}
	if got := PageOffset(va, Size4K); got != 0x123 {
		t.Errorf("PageOffset = %#x, want 0x123", got)
	}
	if got := PageBase(va, Size4K); got != va-0x123 {
		t.Errorf("PageBase = %#x", uint64(got))
	}
	if got := PageOffset(va, Size2M); got != uint64(9<<12|0x123) {
		t.Errorf("2MB PageOffset = %#x", got)
	}
}

func TestPageSizes(t *testing.T) {
	if Size4K.Bytes() != 4096 || Size2M.Bytes() != 2<<20 || Size1G.Bytes() != 1<<30 {
		t.Error("page size bytes wrong")
	}
	if Size4K.LeafLevel() != 1 || Size2M.LeafLevel() != 2 || Size1G.LeafLevel() != 3 {
		t.Error("leaf levels wrong")
	}
}

// TestHelperPanics pins the checks and messages of Index, Bytes and
// LeafLevel on out-of-range arguments.
func TestHelperPanics(t *testing.T) {
	for _, c := range []struct {
		want string
		f    func()
	}{
		{"pt: level 0 out of range [1,5]", func() { Index(0, 0) }},
		{"pt: level 6 out of range [1,5]", func() { Index(0, 6) }},
		{"pt: unknown page size 3", func() { PageSize(3).Bytes() }},
		{"pt: unknown page size -1", func() { PageSize(-1).Bytes() }},
		{"pt: unknown page size 3", func() { PageSize(3).LeafLevel() }},
		{"pt: unknown page size -1", func() { PageSize(-1).LeafLevel() }},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic %v, want %q", got, c.want)
				}
			}()
			c.f()
		}()
	}
	for level := uint8(1); level <= 5; level++ {
		Index(1<<56, level) // no panic
	}
}

// buildTable hand-constructs a small 4-level table mapping one 4KB page and
// one 2MB page, bypassing pvops (raw writes are fine inside pt tests).
func buildTable(t *testing.T, pm *mem.PhysMem) (*Table, VirtAddr, VirtAddr, mem.FrameID, mem.FrameID) {
	t.Helper()
	alloc := func(node numa.NodeID, level uint8) mem.FrameID {
		f, err := pm.AllocPageTable(node, level)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	root := alloc(0, 4)
	l3 := alloc(1, 3)
	l2 := alloc(2, 2)
	l1 := alloc(3, 1)
	data, err := pm.AllocData(0)
	if err != nil {
		t.Fatal(err)
	}
	hugeBase, err := pm.AllocHuge(1)
	if err != nil {
		t.Fatal(err)
	}

	va4k := VirtAddr(1<<39 | 2<<30 | 3<<21 | 4<<12)
	va2m := VirtAddr(1<<39 | 2<<30 | 5<<21)

	inner := FlagPresent | FlagWrite | FlagUser
	WriteEntryRaw(pm, EntryRef{root, Index(va4k, 4)}, NewPTE(l3, inner))
	WriteEntryRaw(pm, EntryRef{l3, Index(va4k, 3)}, NewPTE(l2, inner))
	WriteEntryRaw(pm, EntryRef{l2, Index(va4k, 2)}, NewPTE(l1, inner))
	WriteEntryRaw(pm, EntryRef{l1, Index(va4k, 1)}, NewPTE(data, FlagPresent|FlagWrite))
	WriteEntryRaw(pm, EntryRef{l2, Index(va2m, 2)}, NewPTE(hugeBase, FlagPresent|FlagWrite|FlagHuge))

	return NewTable(pm, root, 4), va4k, va2m, data, hugeBase
}

func TestDescend4K(t *testing.T) {
	pm := newTestMem(t)
	tbl, va4k, _, data, _ := buildTable(t, pm)

	d := tbl.Descend(va4k)
	if d.Level != 1 || pm.Meta(d.Frame).PTLevel != 1 {
		t.Errorf("descent stopped at level %d in a level-%d table, want the leaf table", d.Level, pm.Meta(d.Frame).PTLevel)
	}
	if size, ok := d.Mapped(); !ok || size != Size4K {
		t.Errorf("Mapped = (%v, %v), want (4KB, true)", size, ok)
	}
	if got := d.Entry.Frame(); got != data {
		t.Errorf("leaf frame = %d, want %d", got, data)
	}
	if other := tbl.Descend(va4k + 0x123); other != d {
		t.Errorf("descent of an address in the same page = %+v, want %+v", other, d)
	}
}

func TestDescend2M(t *testing.T) {
	pm := newTestMem(t)
	tbl, _, va2m, _, hugeBase := buildTable(t, pm)

	d := tbl.Descend(va2m + 0x5123) // offset inside the huge page
	if d.Level != 2 {
		t.Errorf("descent stopped at level %d, want 2 (the PS bit ends it)", d.Level)
	}
	if size, ok := d.Mapped(); !ok || size != Size2M {
		t.Fatalf("Mapped = (%v, %v), want (2MB, true)", size, ok)
	}
	if got := d.Entry.Frame(); got != hugeBase {
		t.Errorf("leaf frame = %d, want %d", got, hugeBase)
	}
}

func TestDescendNotPresent(t *testing.T) {
	pm := newTestMem(t)
	tbl, va4k, _, _, _ := buildTable(t, pm)

	d := tbl.Descend(va4k + 0x200000) // different L2 index, not mapped
	if _, ok := d.Mapped(); ok {
		t.Fatal("descent should find no leaf")
	}
	if d.Level != 2 || d.Entry != 0 {
		t.Errorf("descent stopped at level %d on %v, want the empty level-2 entry", d.Level, d.Entry)
	}
}

func TestVisitAndCounts(t *testing.T) {
	pm := newTestMem(t)
	tbl, _, _, _, _ := buildTable(t, pm)

	counts := tbl.CountEntries()
	// 1 L4 entry, 1 L3 entry, 2 L2 entries (one table ptr + one huge leaf),
	// 1 L1 entry.
	if counts[4] != 1 || counts[3] != 1 || counts[2] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v", counts)
	}

	pages := tbl.Pages()
	if len(pages[4]) != 1 || len(pages[3]) != 1 || len(pages[2]) != 1 || len(pages[1]) != 1 {
		t.Errorf("pages per level = {4:%d 3:%d 2:%d 1:%d}",
			len(pages[4]), len(pages[3]), len(pages[2]), len(pages[1]))
	}

	// Early termination.
	visited := 0
	tbl.Visit(func(uint8, EntryRef, PTE) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Errorf("Visit with early stop visited %d, want 1", visited)
	}
}

func TestSnapshotDump(t *testing.T) {
	pm := newTestMem(t)
	tbl, _, _, _, _ := buildTable(t, pm)

	d := Snapshot(tbl)
	// Root page on node 0.
	if d.Cells[4][0].Pages != 1 {
		t.Errorf("L4 pages on socket 0 = %d, want 1", d.Cells[4][0].Pages)
	}
	// L3 page on node 1, L2 on node 2, L1 on node 3.
	if d.Cells[3][1].Pages != 1 || d.Cells[2][2].Pages != 1 || d.Cells[1][3].Pages != 1 {
		t.Errorf("page placement wrong: L3@1=%d L2@2=%d L1@3=%d",
			d.Cells[3][1].Pages, d.Cells[2][2].Pages, d.Cells[1][3].Pages)
	}
	// The single L4 entry (on node 0) points to node 1: 100% remote.
	if got := d.Cells[4][0].RemoteFraction(0); got != 1.0 {
		t.Errorf("L4 remote fraction = %v, want 1.0", got)
	}
	// L2 cell on node 2 has two pointers: one to L1 on node 3, one huge
	// leaf to node 1. Both remote.
	if got := d.Cells[2][2].Valid(); got != 2 {
		t.Errorf("L2 valid entries = %d, want 2", got)
	}
	if got := d.Cells[2][2].RemoteFraction(2); got != 1.0 {
		t.Errorf("L2 remote fraction = %v, want 1.0", got)
	}

	total, per := d.LeafPTEs()
	if total != 1 {
		t.Errorf("leaf PTE total = %d, want 1 (4KB leaf only)", total)
	}
	if per[3] != 1 {
		t.Errorf("leaf PTEs per socket = %v, want socket 3 to hold it", per)
	}
	// Observer on socket 3 sees it local; all others remote.
	if f := d.RemoteLeafFraction(3); f != 0 {
		t.Errorf("remote leaf fraction from socket 3 = %v, want 0", f)
	}
	if f := d.RemoteLeafFraction(0); f != 1 {
		t.Errorf("remote leaf fraction from socket 0 = %v, want 1", f)
	}

	if s := d.Format(); len(s) == 0 {
		t.Error("Format returned empty string")
	}
}

func TestNewTableValidation(t *testing.T) {
	pm := newTestMem(t)
	f, _ := pm.AllocData(0)
	mustPanic(t, "data frame as root", func() { NewTable(pm, f, 4) })
	ptf, _ := pm.AllocPageTable(0, 4)
	mustPanic(t, "bad levels", func() { NewTable(pm, ptf, 3) })
}

func TestFiveLevelDescend(t *testing.T) {
	pm := newTestMem(t)
	alloc := func(level uint8) mem.FrameID {
		f, err := pm.AllocPageTable(0, level)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	root := alloc(5)
	l4 := alloc(4)
	l3 := alloc(3)
	l2 := alloc(2)
	l1 := alloc(1)
	data, _ := pm.AllocData(0)

	va := VirtAddr(7)<<48 | VirtAddr(1<<39|2<<30|3<<21|4<<12)
	inner := FlagPresent | FlagWrite
	WriteEntryRaw(pm, EntryRef{root, Index(va, 5)}, NewPTE(l4, inner))
	WriteEntryRaw(pm, EntryRef{l4, Index(va, 4)}, NewPTE(l3, inner))
	WriteEntryRaw(pm, EntryRef{l3, Index(va, 3)}, NewPTE(l2, inner))
	WriteEntryRaw(pm, EntryRef{l2, Index(va, 2)}, NewPTE(l1, inner))
	WriteEntryRaw(pm, EntryRef{l1, Index(va, 1)}, NewPTE(data, FlagPresent))

	tbl := NewTable(pm, root, 5)
	d := tbl.Descend(va)
	if d.Frame != l1 || d.Level != 1 {
		t.Fatalf("5-level descent stopped at frame %d level %d, want %d level 1", d.Frame, d.Level, l1)
	}
	if _, ok := d.Mapped(); !ok || d.Entry.Frame() != data {
		t.Errorf("descent leaf = (%v, %v), want frame %d", d.Entry, ok, data)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	f()
}
