package pt

import (
	"fmt"
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
)

// leafAt is one leaf as a range walk reports it.
type leafAt struct {
	va   VirtAddr
	leaf PTE
	size PageSize
}

func (l leafAt) String() string { return fmt.Sprintf("%#x:%v:%v", uint64(l.va), l.size, l.leaf) }

// lookupLeaves is the per-page range walk VisitLeaves replaced, kept as its
// reference: a descent from the root at every 4KB address of [start, end),
// stepping past each leaf it finds.
func lookupLeaves(t *Table, start, end VirtAddr) []leafAt {
	var out []leafAt
	for va := start; va < end; {
		d := t.Descend(va)
		size, ok := d.Mapped()
		if !ok {
			va += VirtAddr(Size4K.Bytes())
			continue
		}
		out = append(out, leafAt{PageBase(va, size), d.Entry, size})
		va = PageBase(va, size) + VirtAddr(size.Bytes())
	}
	return out
}

func visitedLeaves(t *Table, start, end VirtAddr) []leafAt {
	var out []leafAt
	t.VisitLeaves(start, end, func(va VirtAddr, leaf PTE, size PageSize) {
		out = append(out, leafAt{va, leaf, size})
	})
	return out
}

// newRawTable builds an empty table of the given depth.
func newRawTable(t *testing.T, pm *mem.PhysMem, levels uint8) *Table {
	t.Helper()
	root, err := pm.AllocPageTable(0, levels)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(pm, root, levels)
}

// mapRaw installs a leaf of the given size at va with raw stores,
// allocating the intermediate tables it lacks. The leaf's frame is only a
// tag the walks report back, so it need not be allocated.
func mapRaw(t *testing.T, tbl *Table, va VirtAddr, size PageSize, frame mem.FrameID) {
	t.Helper()
	pm := tbl.Mem()
	f := tbl.Root()
	for level := tbl.Levels(); level > size.LeafLevel(); level-- {
		ref := EntryRef{f, Index(va, level)}
		e := ReadEntry(pm, ref)
		if !e.Present() {
			child, err := pm.AllocPageTable(0, level-1)
			if err != nil {
				t.Fatal(err)
			}
			e = NewPTE(child, FlagPresent|FlagWrite|FlagUser)
			WriteEntryRaw(pm, ref, e)
		}
		f = e.Frame()
	}
	flags := FlagPresent | FlagWrite | FlagUser
	if size != Size4K {
		flags |= FlagHuge
	}
	WriteEntryRaw(pm, EntryRef{f, Index(va, size.LeafLevel())}, NewPTE(frame, flags))
}

// TestVisitLeavesMatchesLookup checks that the depth-first range walk
// reports the same (VA, leaf, size) sequence as the per-page descent loop,
// on 4- and 5-level tables holding 4KB, 2MB and 1GB leaves and holes, for
// ranges that start or end inside huge leaves and gaps, span top-level
// entries, or are empty.
func TestVisitLeavesMatchesLookup(t *testing.T) {
	const (
		k4 = VirtAddr(4 << 10)
		m2 = VirtAddr(2 << 20)
		g1 = VirtAddr(1 << 30)
	)
	for _, levels := range []uint8{4, 5} {
		t.Run(fmt.Sprintf("%d-level", levels), func(t *testing.T) {
			tbl := newRawTable(t, newTestMem(t), levels)
			// top is one top-level entry's span: the ranges below cross it.
			top := VirtAddr(1) << (PageShift4K + EntryBits*uint64(levels-1))
			b := 3 * g1 // a 1GB-aligned base inside the first top-level entry
			frame := mem.FrameID(1)
			mapAt := func(va VirtAddr, size PageSize) {
				mapRaw(t, tbl, va, size, frame)
				frame++
			}
			mapAt(b+k4, Size4K)
			mapAt(b+2*k4, Size4K)
			mapAt(b+5*k4, Size4K) // hole at 3-4
			mapAt(b+m2-k4, Size4K)
			mapAt(b+m2, Size2M)
			mapAt(b+2*m2+3*k4, Size4K)
			mapAt(b+3*m2, Size2M) // then a hole with no tables up to the 1GB leaf
			mapAt(b+g1, Size1G)
			mapAt(b+2*g1+7*k4, Size4K)
			mapAt(top-k4, Size4K) // the last page of the first top-level entry
			mapAt(top, Size4K)
			mapAt(top+m2, Size2M)

			cases := []struct {
				name       string
				start, end VirtAddr
			}{
				{"all near base", b, b + 2*g1 + m2},
				{"from below base", b - m2, b + 4*m2},
				{"start in 2MB leaf", b + m2 + 5*k4, b + 5*m2},
				{"end in 2MB leaf", b, b + m2 + k4},
				{"inside one 2MB leaf", b + m2 + k4, b + m2 + 9*k4},
				{"start in 1GB leaf", b + g1 + 0x12345000, b + 2*g1 + m2},
				{"end in 1GB leaf", b + 3*m2, b + g1 + k4},
				{"start in gap", b + 3*k4, b + 6*k4},
				{"end in gap", b + k4, b + 4*k4},
				{"gap without tables", b + 5*m2, b + 9*m2},
				{"single page", b + 5*k4, b + 6*k4},
				{"across top-level entries", top - 2*m2, top + 3*m2},
				{"start at top-level entry", top, top + 2*m2},
				{"empty", b + k4, b + k4},
				{"reversed", b + 2*m2, b + m2},
			}
			for _, c := range cases {
				want := lookupLeaves(tbl, c.start, c.end)
				got := visitedLeaves(tbl, c.start, c.end)
				if !slices.Equal(got, want) {
					t.Errorf("%s [%#x, %#x):\n got  %v\n want %v", c.name, uint64(c.start), uint64(c.end), got, want)
				}
			}
			if got := visitedLeaves(tbl, 0, VirtAddr(1)<<(PageShift4K+EntryBits*uint64(tbl.Levels()))+1); len(got) != int(frame-1) {
				t.Errorf("whole address space: %d leaves, want %d", len(got), frame-1)
			}
		})
	}
}

// TestVisitLeavesPanicsOnPSAboveLevel3 checks that a range walk over a
// malformed entry panics as Mapped on a descent through it does.
func TestVisitLeavesPanicsOnPSAboveLevel3(t *testing.T) {
	tbl := newRawTable(t, newTestMem(t), 4)
	va := VirtAddr(1) << 39
	WriteEntryRaw(tbl.Mem(), EntryRef{tbl.Root(), Index(va, 4)}, NewPTE(1, FlagPresent|FlagHuge))
	tbl.VisitLeaves(0, va, func(VirtAddr, PTE, PageSize) {}) // stops short of it
	defer func() {
		if recover() == nil {
			t.Error("VisitLeaves over a PS bit at level 4 did not panic")
		}
	}()
	tbl.VisitLeaves(va, va+1, func(VirtAddr, PTE, PageSize) {})
}
