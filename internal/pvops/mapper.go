package pvops

import (
	"errors"
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// ErrNotMapped is returned by operations that require an existing mapping.
var ErrNotMapped = errors.New("pvops: virtual address not mapped")

// ErrMapped is returned when mapping over an existing translation.
var ErrMapped = errors.New("pvops: virtual address already mapped")

// ErrHugeConflict is returned when an operation at 4KB granularity meets a
// 2MB leaf (or vice versa); the caller must split or unmap first.
var ErrHugeConflict = errors.New("pvops: page-size conflict with existing huge mapping")

// PTPlacement tells the Mapper where to allocate page-table pages that a
// Map call has to create: the primary node (first-touch socket's node, or a
// forced node) and the replica set (empty when replication is off).
type PTPlacement struct {
	Primary  numa.NodeID
	Replicas []numa.NodeID
}

// Mapper edits one process's page-table through a pvops Backend. It holds
// the master (primary) root; replicas, if any, are maintained transparently
// by the backend on every store.
//
// Mapper corresponds to the architecture-independent page-table management
// code in a kernel: it decides *what* to write, the backend decides *how*
// the write reaches the one-or-many physical tables.
type Mapper struct {
	pm      *mem.PhysMem
	backend Backend
	levels  uint8
	root    mem.FrameID
}

// NewMapper allocates a root table via the backend and returns a mapper.
func NewMapper(ctx *OpCtx, pm *mem.PhysMem, backend Backend, levels uint8, place PTPlacement) (*Mapper, error) {
	if levels != 4 && levels != 5 {
		panic(fmt.Sprintf("pvops: levels must be 4 or 5, got %d", levels))
	}
	root, err := backend.AllocPT(ctx, AllocSpec{Level: levels, Primary: place.Primary, Replicas: place.Replicas})
	if err != nil {
		return nil, fmt.Errorf("pvops: allocating root table: %w", err)
	}
	return &Mapper{pm: pm, backend: backend, levels: levels, root: root}, nil
}

// Root returns the primary root frame (the native CR3 value).
func (mp *Mapper) Root() mem.FrameID { return mp.root }

// SetRoot repoints the mapper at a new primary root. Used after page-table
// migration, when the master copy moves to another socket.
func (mp *Mapper) SetRoot(root mem.FrameID) {
	if mp.pm.Meta(root).Kind != mem.KindPageTable {
		panic(fmt.Sprintf("pvops: SetRoot frame %d is not a page table", root))
	}
	mp.root = root
}

// Levels returns the paging depth.
func (mp *Mapper) Levels() uint8 { return mp.levels }

// Backend returns the backend in use.
func (mp *Mapper) Backend() Backend { return mp.backend }

// Table returns a read-only view of the primary table.
func (mp *Mapper) Table() *pt.Table { return pt.NewTable(mp.pm, mp.root, mp.levels) }

// Map installs a translation va -> frame with the given page size and flag
// bits (FlagPresent and, for 2MB pages, FlagHuge are added automatically).
// Missing intermediate tables are allocated per place.
func (mp *Mapper) Map(ctx *OpCtx, va pt.VirtAddr, size pt.PageSize, frame mem.FrameID, flags pt.PTE, place PTPlacement) error {
	return mp.MapAt(ctx, mp.Table().Descend(va), va, size, frame, flags, place)
}

// MapAt is Map continuing from d, a descent of the primary table
// (Table().Descend) for an address that shares va's indices at every
// level from the root down to d.Level (va itself, or any address in va's
// page), made since the table last changed. It charges
// what a walk from the root charges: one ReadPTE load per level from the
// root down to the leaf level, since every level below the first missing
// entry is a fresh, empty table.
func (mp *Mapper) MapAt(ctx *OpCtx, d pt.Descent, va pt.VirtAddr, size pt.PageSize, frame mem.FrameID, flags pt.PTE, place PTPlacement) error {
	leafLevel := size.LeafLevel()
	if uint64(va)%size.Bytes() != 0 {
		panic(fmt.Sprintf("pvops: va %#x not aligned to %v", uint64(va), size))
	}
	// A walk from the root reads every level down to the first missing
	// entry or huge leaf, and no further than the leaf level.
	stop := max(d.Level, leafLevel)
	mp.backend.ChargeReads(ctx, int(mp.levels-stop+1))
	switch {
	case d.Entry.Present() && stop > leafLevel:
		return fmt.Errorf("%w: level %d at %#x", ErrHugeConflict, stop, uint64(va))
	case d.Entry.Present() || d.Level < leafLevel:
		return fmt.Errorf("%w: %#x", ErrMapped, uint64(va))
	}
	cur := d.Frame
	for level := d.Level; level > leafLevel; level-- {
		child, err := mp.backend.AllocPT(ctx, AllocSpec{Level: level - 1, Primary: place.Primary, Replicas: place.Replicas})
		if err != nil {
			return fmt.Errorf("pvops: allocating level-%d table: %w", level-1, err)
		}
		mp.backend.SetPTE(ctx, pt.EntryRef{Frame: cur, Index: pt.Index(va, level)}, pt.NewPTE(child, pt.FlagPresent|pt.FlagWrite|pt.FlagUser))
		// The walk reads the child's entry next; a fresh table holds none.
		mp.backend.ChargeReads(ctx, 1)
		cur = child
	}
	e := pt.NewPTE(frame, flags|pt.FlagPresent)
	if size != pt.Size4K {
		e |= pt.FlagHuge
	}
	mp.backend.SetPTE(ctx, pt.EntryRef{Frame: cur, Index: pt.Index(va, leafLevel)}, e)
	return nil
}

// Unmap removes the translation for va at the given page size and returns
// the previous leaf entry (so the caller can free the data frame and decide
// on TLB shootdown). Empty intermediate tables are not reclaimed eagerly,
// matching Linux, which frees page-table pages at tear-down.
func (mp *Mapper) Unmap(ctx *OpCtx, va pt.VirtAddr, size pt.PageSize) (pt.PTE, error) {
	ref, old, err := mp.leafRef(ctx, va, size)
	if err != nil {
		return 0, err
	}
	mp.backend.SetPTE(ctx, ref, 0)
	return old, nil
}

// Remap changes the target frame of an existing leaf mapping (data-page
// migration) and returns the old entry. Flags are preserved except that the
// hardware Accessed/Dirty bits are cleared for the new location.
func (mp *Mapper) Remap(ctx *OpCtx, va pt.VirtAddr, size pt.PageSize, newFrame mem.FrameID) (pt.PTE, error) {
	ref, old, err := mp.leafRef(ctx, va, size)
	if err != nil {
		return 0, err
	}
	e := pt.NewPTE(newFrame, old.Flags()).ClearFlags(pt.FlagAccessed | pt.FlagDirty)
	mp.backend.SetPTE(ctx, ref, e)
	return old, nil
}

// LeafVisit is the callback of VisitLeaves: one present leaf mapping.
type LeafVisit struct {
	VA   pt.VirtAddr
	Size pt.PageSize
	Old  pt.PTE
}

// VisitLeaves iterates every present leaf entry in [start, end) in address
// order, descending each interior table once rather than re-walking from
// the root per page — the way Linux's page-table range iterators work, and
// the reason range operations like mprotect cost one load+store per PTE
// rather than a full walk. fn may rewrite the entry by returning
// (newEntry, true); the store goes through the backend and thus propagates
// to replicas.
func (mp *Mapper) VisitLeaves(ctx *OpCtx, start, end pt.VirtAddr, fn func(LeafVisit) (pt.PTE, bool)) {
	mp.visitRange(ctx, mp.root, mp.levels, start, end, fn)
}

func (mp *Mapper) visitRange(ctx *OpCtx, frame mem.FrameID, level uint8, start, end pt.VirtAddr, fn func(LeafVisit) (pt.PTE, bool)) {
	span := pt.VirtAddr(1) << (pt.PageShift4K + pt.EntryBits*uint64(level-1))
	base := start &^ (span*512 - 1) // VA covered by entry 0 of this table
	lo := pt.Index(start, level)
	hi := 511
	if levelEnd := base + span*512; end < levelEnd {
		hi = pt.Index(end-1, level)
	}
	for i := lo; i <= hi; i++ {
		entryVA := base + span*pt.VirtAddr(i)
		ref := pt.EntryRef{Frame: frame, Index: i}
		e := mp.backend.ReadPTE(ctx, ref)
		if !e.Present() {
			continue
		}
		if level == 1 || e.Huge() {
			size := pt.Size4K
			switch level {
			case 2:
				size = pt.Size2M
			case 3:
				size = pt.Size1G
			}
			if newE, store := fn(LeafVisit{VA: entryVA, Size: size, Old: e}); store {
				mp.backend.SetPTE(ctx, ref, newE)
			}
			continue
		}
		subStart := entryVA
		if start > subStart {
			subStart = start
		}
		subEnd := entryVA + span
		if end < subEnd {
			subEnd = end
		}
		mp.visitRange(ctx, e.Frame(), level-1, subStart, subEnd, fn)
	}
}

// Destroy releases every page-table page of the process (the equivalent of
// free_pgtables at exit). Data frames are not touched; the kernel frees
// them separately. The mapper must not be used afterwards.
func (mp *Mapper) Destroy(ctx *OpCtx) {
	var frames []mem.FrameID
	mp.Table().VisitInterior(func(_ uint8, _ pt.EntryRef, e pt.PTE) bool {
		frames = append(frames, e.Frame())
		return true
	})
	frames = append(frames, mp.root)
	for _, f := range frames {
		mp.backend.ReleasePT(ctx, f)
	}
	mp.root = mem.NilFrame
}

// leafRef walks to the leaf entry for (va, size), returning its location
// and current value.
func (mp *Mapper) leafRef(ctx *OpCtx, va pt.VirtAddr, size pt.PageSize) (pt.EntryRef, pt.PTE, error) {
	leafLevel := size.LeafLevel()
	cur := mp.root
	for level := mp.levels; level > leafLevel; level-- {
		ref := pt.EntryRef{Frame: cur, Index: pt.Index(va, level)}
		e := mp.backend.ReadPTE(ctx, ref)
		if !e.Present() {
			return pt.EntryRef{Frame: mem.NilFrame}, 0, fmt.Errorf("%w: %#x (level %d)", ErrNotMapped, uint64(va), level)
		}
		if e.Huge() {
			return pt.EntryRef{Frame: mem.NilFrame}, 0, fmt.Errorf("%w: %#x", ErrHugeConflict, uint64(va))
		}
		cur = e.Frame()
	}
	ref := pt.EntryRef{Frame: cur, Index: pt.Index(va, leafLevel)}
	e := mp.backend.ReadPTE(ctx, ref)
	if !e.Present() {
		return pt.EntryRef{Frame: mem.NilFrame}, 0, fmt.Errorf("%w: %#x", ErrNotMapped, uint64(va))
	}
	return ref, e, nil
}
