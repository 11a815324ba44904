package pt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
)

// entryAt is one entry as a traversal reports it.
type entryAt struct {
	level uint8
	ref   EntryRef
	e     PTE
}

// visitedInterior is the reference for VisitInterior: Visit's entries that
// point at a lower-level table, in Visit's order, up to the first of them
// for which stop reports true (included).
func visitedInterior(t *Table, stop func(n int) bool) []entryAt {
	var out []entryAt
	t.Visit(func(level uint8, ref EntryRef, e PTE) bool {
		if level == 1 || e.Huge() {
			return true
		}
		out = append(out, entryAt{level, ref, e})
		return !stop(len(out))
	})
	return out
}

func interiorEntries(t *Table, stop func(n int) bool) []entryAt {
	var out []entryAt
	t.VisitInterior(func(level uint8, ref EntryRef, e PTE) bool {
		out = append(out, entryAt{level, ref, e})
		return !stop(len(out))
	})
	return out
}

// randomTree maps leaves of every size at random addresses below the
// table's top: clusters of 4KB pages, 2MB and 1GB pages, some in their own
// top-level entries, so tables of every level hold one to many entries.
func randomTree(t *testing.T, rng *rand.Rand, levels uint8) *Table {
	tbl := newRawTable(t, newTestMem(t), levels)
	frame := mem.FrameID(1)
	for range 60 {
		top := VirtAddr(rng.Intn(8)) << (PageShift4K + EntryBits*uint64(levels-1))
		g := top + VirtAddr(rng.Intn(4))<<30
		switch rng.Intn(6) {
		case 0:
			if _, ok := tbl.Descend(g).Mapped(); ok || tbl.Descend(g).Level < 3 {
				continue // the 1GB range already holds a mapping or a table
			}
			mapRaw(t, tbl, g, Size1G, frame)
		case 1, 2:
			va := g + VirtAddr(rng.Intn(512))<<21
			if tbl.Descend(va).Level < 2 || tbl.Descend(va).Entry.Present() {
				continue
			}
			mapRaw(t, tbl, va, Size2M, frame)
		default:
			base := g + VirtAddr(rng.Intn(512))<<21
			for range 1 + rng.Intn(20) {
				va := base + VirtAddr(rng.Intn(512))<<PageShift4K
				if d := tbl.Descend(va); d.Entry.Present() {
					continue
				}
				mapRaw(t, tbl, va, Size4K, frame)
			}
		}
		frame++
	}
	return tbl
}

// TestVisitInteriorMatchesVisit checks that the interior traversal reports
// exactly Visit's entries that point at a lower-level table, in the same
// order, on random 4- and 5-level trees with 4KB, 2MB and 1GB leaves, and
// that it stops where Visit would when fn returns false.
func TestVisitInteriorMatchesVisit(t *testing.T) {
	for _, levels := range []uint8{4, 5} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%d-level/seed%d", levels, seed), func(t *testing.T) {
				tbl := randomTree(t, rand.New(rand.NewSource(seed)), levels)
				never := func(int) bool { return false }
				want := visitedInterior(tbl, never)
				if got := interiorEntries(tbl, never); !slices.Equal(got, want) {
					t.Fatalf("VisitInterior reported\n%v\nVisit's interior entries are\n%v", got, want)
				}
				if len(want) < 10 {
					t.Fatalf("tree has only %d interior entries", len(want))
				}
				for _, n := range []int{1, 2, len(want) / 2, len(want)} {
					at := func(k int) bool { return k == n }
					if got, ref := interiorEntries(tbl, at), visitedInterior(tbl, at); !slices.Equal(got, ref) {
						t.Errorf("stopping after %d entries: got %v, want %v", n, got, ref)
					}
				}
			})
		}
	}
}

// TestVisitInteriorReadsNoLeafTable points level-2 entries at data frames,
// which hold no table payload: Visit panics reading them as tables, while
// the interior traversal reports the entries and never reads below them.
func TestVisitInteriorReadsNoLeafTable(t *testing.T) {
	pm := newTestMem(t)
	tbl := newRawTable(t, pm, 4)
	va := VirtAddr(5) << 30
	mapRaw(t, tbl, va, Size4K, 1)
	want := []mem.FrameID{tbl.Descend(va).Frame} // va's leaf table
	l2 := tbl.Descend(va + 1<<21)                // the empty entry after va's
	if l2.Level != 2 {
		t.Fatalf("descent stopped at level %d, want 2", l2.Level)
	}
	for i := range 3 {
		f, err := pm.AllocData(0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
		WriteEntryRaw(pm, EntryRef{l2.Frame, Index(va, 2) + 1 + i}, NewPTE(f, FlagPresent|FlagWrite))
	}
	var got []mem.FrameID
	tbl.VisitInterior(func(level uint8, _ EntryRef, e PTE) bool {
		if level == 2 {
			got = append(got, e.Frame())
		}
		return true
	})
	if !slices.Equal(got, want) {
		t.Errorf("level-2 entries reported %v, want %v", got, want)
	}
	mustPanic(t, "Visit through a data frame", func() {
		tbl.Visit(func(uint8, EntryRef, PTE) bool { return true })
	})
}
