// Package pt implements x86-64-style radix page-tables stored in simulated
// physical memory (package mem): PTE encoding, table walks, multi-size pages
// (4KB/2MB/1GB), 4-level and 5-level paging, and the page-table distribution
// dumps used by the Mitosis paper's placement analysis (§3.1, Figure 3).
//
// The package is deliberately mutation-free above the raw entry accessors:
// all page-table *writes* in the simulator flow through the pvops package so
// that the Mitosis backend can intercept and propagate them to replicas,
// mirroring how the paper routes updates through Linux's PV-Ops interface.
package pt

import (
	"fmt"
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
)

// VirtAddr is a virtual address. With 4-level paging the canonical user
// range covers 48 bits; with 5-level paging, 57 bits.
type VirtAddr uint64

// PTE is an x86-64 page-table entry. Bit layout follows the architecture:
//
//	bit 0   P    present
//	bit 1   R/W  writable
//	bit 2   U/S  user accessible
//	bit 5   A    accessed (set by the page walker)
//	bit 6   D    dirty (set by the page walker on write, leaf only)
//	bit 7   PS   page size (2MB leaf at L2, 1GB leaf at L3)
//	bits 12..51  physical frame number
type PTE uint64

// PTE flag bits.
const (
	FlagPresent  PTE = 1 << 0
	FlagWrite    PTE = 1 << 1
	FlagUser     PTE = 1 << 2
	FlagAccessed PTE = 1 << 5
	FlagDirty    PTE = 1 << 6
	FlagHuge     PTE = 1 << 7
)

const (
	frameShift = 12
	frameMask  = PTE(0xFFFFFFFFFF) << frameShift // bits 12..51
)

// PageShift4K is log2 of the base page size.
const PageShift4K = 12

// EntryBits is log2 of the number of entries per table page (512).
const EntryBits = 9

// PageSize identifies the mapping granularity of a translation.
type PageSize int

const (
	// Size4K is a 4KB base page (leaf at level 1).
	Size4K PageSize = iota
	// Size2M is a 2MB huge page (leaf at level 2).
	Size2M
	// Size1G is a 1GB huge page (leaf at level 3).
	Size1G
)

// Bytes returns the page size in bytes: 4KB shifted left by one level's
// index bits per step up from Size4K.
func (s PageSize) Bytes() uint64 {
	if uint(s) > uint(Size1G) {
		badSize(s)
	}
	return 4 << 10 << (EntryBits * uint(s))
}

// LeafLevel returns the page-table level at which this page size terminates
// the walk (1 for 4KB, 2 for 2MB, 3 for 1GB).
func (s PageSize) LeafLevel() uint8 {
	if uint(s) > uint(Size1G) {
		badSize(s)
	}
	return uint8(s) + 1
}

// badSize panics on a page size outside Size4K..Size1G. It formats in a
// call of its own so that Bytes and LeafLevel stay small enough to inline.
//
//go:noinline
func badSize(s PageSize) {
	panic(fmt.Sprintf("pt: unknown page size %d", int(s)))
}

// SizeAtLevel is the inverse of LeafLevel: the page size of a leaf entry
// terminating the walk at the given level (1 = 4KB, 2 = 2MB, 3 = 1GB).
// ok is false for levels where no leaf may terminate — a PS bit there
// marks a malformed tree.
func SizeAtLevel(level uint8) (PageSize, bool) {
	switch level {
	case 1:
		return Size4K, true
	case 2:
		return Size2M, true
	case 3:
		return Size1G, true
	default:
		return Size4K, false
	}
}

// MinSize returns the smaller of two page sizes — the granularity a
// composed (e.g. guest x nested) translation is valid at.
func MinSize(a, b PageSize) PageSize {
	if a.Bytes() < b.Bytes() {
		return a
	}
	return b
}

func (s PageSize) String() string {
	switch s {
	case Size4K:
		return "4KB"
	case Size2M:
		return "2MB"
	case Size1G:
		return "1GB"
	default:
		return fmt.Sprintf("PageSize(%d)", int(s))
	}
}

// NewPTE builds an entry pointing at frame f with the given flag bits.
func NewPTE(f mem.FrameID, flags PTE) PTE {
	e := PTE(uint64(f)<<frameShift)&frameMask | flags
	return e
}

// Present reports whether the entry is valid.
func (e PTE) Present() bool { return e&FlagPresent != 0 }

// Writable reports whether the entry permits writes.
func (e PTE) Writable() bool { return e&FlagWrite != 0 }

// Accessed reports whether the hardware accessed bit is set.
func (e PTE) Accessed() bool { return e&FlagAccessed != 0 }

// Huge reports whether the PS bit is set (the entry is a 2MB/1GB leaf).
func (e PTE) Huge() bool { return e&FlagHuge != 0 }

// Frame returns the physical frame number the entry points to.
func (e PTE) Frame() mem.FrameID { return mem.FrameID((e & frameMask) >> frameShift) }

// Flags returns only the flag bits of the entry.
func (e PTE) Flags() PTE { return e &^ frameMask }

// WithFlags returns the entry with the given flags set.
func (e PTE) WithFlags(f PTE) PTE { return e | f }

// ClearFlags returns the entry with the given flags cleared.
func (e PTE) ClearFlags(f PTE) PTE { return e &^ f }

// String renders the entry for debugging.
func (e PTE) String() string {
	if !e.Present() {
		return "PTE{not present}"
	}
	flags := ""
	for _, fb := range []struct {
		bit  PTE
		name string
	}{
		{FlagWrite, "W"}, {FlagUser, "U"}, {FlagAccessed, "A"},
		{FlagDirty, "D"}, {FlagHuge, "H"},
	} {
		if e&fb.bit != 0 {
			flags += fb.name
		}
	}
	return fmt.Sprintf("PTE{frame=%d flags=P%s}", e.Frame(), flags)
}

// Index extracts the table index used at the given level (1 = leaf) for
// virtual address va: 9 bits starting at bit 12 + 9*(level-1).
func Index(va VirtAddr, level uint8) int {
	if level-1 > 4 { // level 0 wraps around
		badLevel(level)
	}
	return int((uint64(va) >> (PageShift4K + EntryBits*uint64(level-1))) & 511)
}

// badLevel panics on a level outside [1,5]; a call of its own keeps Index
// inlinable.
//
//go:noinline
func badLevel(level uint8) {
	panic(fmt.Sprintf("pt: level %d out of range [1,5]", level))
}

// PageOffset returns the offset of va within a page of size s.
func PageOffset(va VirtAddr, s PageSize) uint64 {
	return uint64(va) & (s.Bytes() - 1)
}

// PageBase returns va rounded down to a page boundary of size s.
func PageBase(va VirtAddr, s PageSize) VirtAddr {
	return VirtAddr(uint64(va) &^ (s.Bytes() - 1))
}

// EntryRef identifies one page-table entry by its containing frame and
// index — the simulator's equivalent of a kernel virtual address of a PTE.
// The pvops interface passes EntryRefs so backends can locate replicas via
// the frame's metadata.
type EntryRef struct {
	Frame mem.FrameID
	Index int
}

// ReadEntry reads the entry at ref from physical memory. The load is
// atomic: hardware page walkers on other cores may concurrently set
// Accessed/Dirty bits in the same entry, and an atomic 8-byte load is
// exactly what a real MMU's table walk performs — entries are never torn.
func ReadEntry(pm *mem.PhysMem, ref EntryRef) PTE {
	return PTE(atomic.LoadUint64(&pm.Table(ref.Frame)[ref.Index]))
}

// WriteEntryRaw stores the entry at ref directly, with no replica
// propagation. Only pvops backends may call this; all other code must go
// through a pvops.Backend. The store is atomic for the same reason
// ReadEntry's load is.
func WriteEntryRaw(pm *mem.PhysMem, ref EntryRef, e PTE) {
	atomic.StoreUint64(&pm.Table(ref.Frame)[ref.Index], uint64(e))
}

// OrEntryFlagsRaw sets flag bits in the entry at ref with an atomic
// read-modify-write — the walker's locked Accessed/Dirty update. Two cores
// walking the same entry concurrently must not lose each other's bits.
func OrEntryFlagsRaw(pm *mem.PhysMem, ref EntryRef, flags PTE) {
	atomic.OrUint64(&pm.Table(ref.Frame)[ref.Index], uint64(flags))
}
