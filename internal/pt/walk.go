package pt

import (
	"fmt"
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
)

// MaxLevels is the deepest supported paging mode (Intel 5-level paging).
const MaxLevels = 5

// Table is a radix page-table rooted at a physical frame, with 4 or 5
// levels. Table performs reads only; see package doc for the write path.
type Table struct {
	pm     *mem.PhysMem
	root   mem.FrameID
	levels uint8
}

// NewTable wraps an existing root frame as a page-table view. The root
// frame must hold a page-table page of the given top level. NewTable
// stays small enough to inline, so a short-lived view that a caller builds
// and drops (Mapper.Table on the fault path) lives on the caller's stack.
func NewTable(pm *mem.PhysMem, root mem.FrameID, levels uint8) *Table {
	checkRoot(pm, root, levels)
	return &Table{pm: pm, root: root, levels: levels}
}

// checkRoot panics unless levels is 4 or 5 and root holds a page-table
// page.
func checkRoot(pm *mem.PhysMem, root mem.FrameID, levels uint8) {
	if levels != 4 && levels != 5 {
		panic(fmt.Sprintf("pt: levels must be 4 or 5, got %d", levels))
	}
	if pm.Meta(root).Kind != mem.KindPageTable {
		panic(fmt.Sprintf("pt: root frame %d is not a page-table page", root))
	}
}

// Root returns the root (CR3) frame.
func (t *Table) Root() mem.FrameID { return t.root }

// Levels returns the number of paging levels (4 or 5).
func (t *Table) Levels() uint8 { return t.levels }

// Mem returns the physical memory the table lives in.
func (t *Table) Mem() *mem.PhysMem { return t.pm }

// Descent is where a descent of a table for one address stopped: Entry,
// at index Index(va, Level) of the table page Frame, is the first entry on
// va's path that is not present or is a leaf. Every table from the root
// down to Frame is present, so a write path can continue from Frame
// instead of starting again at the root; and an address that shares va's
// indices at every level from the root down to Level shares the whole
// descent.
type Descent struct {
	Frame mem.FrameID
	Level uint8
	Entry PTE
}

// Mapped reports whether the descent ended at a present leaf, and the
// leaf's page size. A PS bit above level 3 panics.
func (d Descent) Mapped() (PageSize, bool) {
	if !d.Entry.Present() {
		return Size4K, false
	}
	size, ok := SizeAtLevel(d.Level)
	if !ok {
		panic(fmt.Sprintf("pt: PS bit set at level %d", d.Level))
	}
	return size, true
}

// Descend reads va's path from the root down to the first entry that is
// not present or is a leaf.
func (t *Table) Descend(va VirtAddr) Descent {
	frame := t.root
	for level := t.levels; ; level-- {
		e := ReadEntry(t.pm, EntryRef{Frame: frame, Index: Index(va, level)})
		if level == 1 || !e.Present() || e.Huge() {
			return Descent{Frame: frame, Level: level, Entry: e}
		}
		frame = e.Frame()
	}
}

// VisitLeaves calls fn for every present leaf mapping that overlaps
// [start, end), in ascending VA order, with the page base, the leaf entry
// and the page size; a huge leaf covering start is reported at its base,
// below start. The leaves are those a Descend at each 4KB step of the range
// finds, stepping past every leaf found, but the walk goes depth-first: it
// reads each table page once and skips every non-present subtree. fn must
// not modify the table. A PS bit above level 3 panics, as in Mapped.
func (t *Table) VisitLeaves(start, end VirtAddr, fn func(va VirtAddr, leaf PTE, size PageSize)) {
	if start < end {
		t.visitLeaves(t.root, t.levels, 0, start, end, fn)
	}
}

// visitLeaves visits the table page at frame, which maps the VAs from base
// at the given level, from the entry covering start (or its first entry)
// up to end.
func (t *Table) visitLeaves(frame mem.FrameID, level uint8, base, start, end VirtAddr, fn func(VirtAddr, PTE, PageSize)) {
	tbl := t.pm.Table(frame)
	shift := PageShift4K + EntryBits*uint64(level-1)
	i := 0
	if start > base {
		i = int((start - base) >> shift)
	}
	for ; i < mem.PTEntries; i++ {
		va := base + VirtAddr(i)<<shift
		if va >= end {
			return
		}
		e := PTE(atomic.LoadUint64(&tbl[i]))
		switch {
		case !e.Present():
		case level == 1:
			fn(va, e, Size4K)
		case e.Huge():
			size, ok := SizeAtLevel(level)
			if !ok {
				panic(fmt.Sprintf("pt: PS bit set at level %d", level))
			}
			fn(va, e, size)
		default:
			t.visitLeaves(e.Frame(), level-1, va, start, end, fn)
		}
	}
}

// Visit walks the whole tree in depth-first order, calling fn for every
// present entry with the level, the entry's location and its value. If fn
// returns false the traversal stops. Leaf entries (level 1 or huge) do not
// recurse.
func (t *Table) Visit(fn func(level uint8, ref EntryRef, e PTE) bool) {
	t.visit(t.root, t.levels, fn)
}

func (t *Table) visit(frame mem.FrameID, level uint8, fn func(uint8, EntryRef, PTE) bool) bool {
	tbl := t.pm.Table(frame)
	for i := 0; i < mem.PTEntries; i++ {
		e := PTE(tbl[i])
		if !e.Present() {
			continue
		}
		if !fn(level, EntryRef{Frame: frame, Index: i}, e) {
			return false
		}
		if level > 1 && !e.Huge() {
			if !t.visit(e.Frame(), level-1, fn) {
				return false
			}
		}
	}
	return true
}

// VisitInterior walks the tree like Visit but reports only the present
// entries that point at a lower-level table (neither level 1 nor huge), in
// Visit's order. It never reads a level-1 table, so it costs the table
// pages above the leaves, not the mapped pages: the traversal for callers
// that need the table pages and not the leaves. If fn returns false the
// traversal stops.
func (t *Table) VisitInterior(fn func(level uint8, ref EntryRef, e PTE) bool) {
	t.visitInterior(t.root, t.levels, fn)
}

// visitInterior visits the table page at frame, at the given level (2 or
// above), descending only into children above level 1.
func (t *Table) visitInterior(frame mem.FrameID, level uint8, fn func(uint8, EntryRef, PTE) bool) bool {
	tbl := t.pm.Table(frame)
	for i := 0; i < mem.PTEntries; i++ {
		e := PTE(tbl[i])
		if !e.Present() || e.Huge() {
			continue
		}
		if !fn(level, EntryRef{Frame: frame, Index: i}, e) {
			return false
		}
		if level > 2 && !t.visitInterior(e.Frame(), level-1, fn) {
			return false
		}
	}
	return true
}
