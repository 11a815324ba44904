package kernel

import (
	"errors"
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// ErrPermission is returned for write faults on read-only VMAs.
var ErrPermission = errors.New("kernel: write to read-only mapping")

// HandleFault implements hw.FaultHandler: the demand-paging path. It
// allocates a data page per the process's placement policy (THP-backed
// where possible), installs the translation through the PV-Ops backend
// (which propagates to replicas when Mitosis is on), and returns the cycle
// cost of the fault.
//
// The handler is re-entrant across cores: concurrent faults of the same
// process serialize on that process's fault lock (its mmap_sem), while
// faults of different processes proceed concurrently — they share no
// address-space state, and the allocator/page-cache structures they do
// share are locked per node. The already-mapped check in populate
// resolves the race where two cores fault on the same page (the loser finds
// the winner's translation and simply retries its walk).
// A process in a VM populates its guest table (guestSpace.populate).
func (k *Kernel) HandleFault(core numa.CoreID, va pt.VirtAddr, write bool) (numa.Cycles, error) {
	// The current[] slot is an atomic pointer: scheduling writes happen
	// only at quiescent points, so the load needs no lock.
	p := k.current[core].Load()
	if p == nil {
		return 0, ErrNoProcess
	}
	p.faultLock.Lock()
	p.faultCore = core
	defer func() {
		p.faultCore = -1
		p.faultLock.Unlock()
	}()
	v := p.findVMA(va)
	if v == nil {
		return k.costs.FaultEntry, fmt.Errorf("%w: %#x", ErrBadAddress, uint64(va))
	}
	if write && !v.Writable {
		return k.costs.FaultEntry, fmt.Errorf("%w: %#x", ErrPermission, uint64(va))
	}
	if _, err := p.as.populate(v, va, k.topo.SocketOf(core)); err != nil {
		return k.costs.FaultEntry, err
	}
	return k.costs.FaultEntry + drainMeterCycles(p), nil
}

// populate maps the page covering va inside v, honouring THP and the
// process's data/page-table placement policies. It returns the page size
// installed (or found already present).
//
// One descent of the primary table answers every question the fault asks
// of it: whether va is already mapped, whether the 2MB block's PMD entry
// is empty, and which table the mapping continues from (Mapper.MapAt).
func (a nativeSpace) populate(v *VMA, va pt.VirtAddr, socket numa.SocketID) (pt.PageSize, error) {
	k, p := a.p.kernel, a.p
	d := p.mapper.Table().Descend(va)
	// Already mapped (e.g., racing fault or populate overlap)?
	if size, ok := d.Mapped(); ok {
		return size, nil
	}
	ctx := p.opCtx()
	place := p.place(socket)
	dataNode := p.dataNode(socket)
	params := k.cost.Params()
	flags := pt.FlagUser
	if v.Writable {
		flags |= pt.FlagWrite
	}

	// Try a 2MB mapping when THP is on, the VMA wants it, and the aligned
	// block lies inside the VMA. Huge pages are only allocated on the
	// target node itself (Linux's __GFP_THISNODE THP policy): a local 4KB
	// page beats a remote 2MB page. The block must also be free of 4KB
	// mappings (Linux's pmd_none check): under fragmentation an earlier
	// fault in the block may have fallen back to 4KB, and a later huge
	// allocation that happens to succeed would collide with it. va and the
	// block's base share every index at levels >= 2, so the descent stopping
	// at a missing entry there means no L1 table (and no leaf) covers the
	// block.
	if k.thp && v.THP && d.Level >= 2 {
		hugeBase := pt.PageBase(va, pt.Size2M)
		if hugeBase >= v.Start && hugeBase+pt.VirtAddr(pt.Size2M.Bytes()) <= v.End {
			if frame, err := k.pm.AllocHuge(dataNode); err == nil {
				// Zeroing 2MB streams better than 512 separate pages.
				p.Meter.Cycles += 256 * params.PageZero
				p.Meter.Cycles += k.costs.FrameAlloc
				if err := p.mapper.MapAt(ctx, d, hugeBase, pt.Size2M, frame, flags, place); err != nil {
					k.pm.FreeHuge(frame)
					return 0, fmt.Errorf("kernel: huge map at %#x: %w", uint64(hugeBase), err)
				}
				p.tierMapped(hugeBase, pt.Size2M, frame)
				return pt.Size2M, nil
			}
			// Fragmentation or memory pressure: fall back to 4KB, the
			// regime of the paper's Figure 11.
		}
	}

	frame, err := k.allocDataWithFallback(dataNode)
	if err != nil {
		// Memory is exhausted everywhere: reclaim replicas once and retry
		// (the direct-reclaim analogue). A teardown may free a replica page
		// the descent passed through (a spread primary table's entries can
		// point at replicas), so descend again.
		if k.reclaimReplicas(p) == 0 {
			return 0, err
		}
		if frame, err = k.allocDataWithFallback(dataNode); err != nil {
			return 0, err
		}
		d = p.mapper.Table().Descend(va)
	}
	zero := params.PageZero
	if k.pm.NodeOf(frame) != dataNode {
		// The allocation spilled off its placement node (exhaustion or a
		// pressure floor): the failed preferred-node attempt entered
		// direct reclaim before falling back, and the zero-fill streams
		// over the interconnect (scaled by the remote/local DRAM latency
		// ratio). On-placement fills are untouched, so runs that never
		// spill are unchanged.
		zero = zero*params.RemoteDRAM/params.LocalDRAM + k.costs.DirectReclaim
	}
	p.Meter.Cycles += zero + k.costs.FrameAlloc
	base := pt.PageBase(va, pt.Size4K)
	if err := p.mapper.MapAt(ctx, d, base, pt.Size4K, frame, flags, place); err != nil {
		// Page-table page allocation can hit memory pressure too; replicas
		// are reclaimable caches, so drop them and retry once, descending
		// again from the root.
		if errors.Is(err, mem.ErrOutOfMemory) && k.reclaimReplicas(p) > 0 {
			err = p.mapper.Map(ctx, base, pt.Size4K, frame, flags, p.place(socket))
		}
		if err != nil {
			k.pm.Free(frame)
			return 0, fmt.Errorf("kernel: map at %#x: %w", uint64(base), err)
		}
	}
	p.tierMapped(base, pt.Size4K, frame)
	return pt.Size4K, nil
}

// allocDataWithFallback tries the preferred node first, then the remaining
// nodes in ascending distance order (here: ascending node id).
func (k *Kernel) allocDataWithFallback(preferred numa.NodeID) (mem.FrameID, error) {
	if f, err := k.pm.AllocData(preferred); err == nil {
		return f, nil
	}
	for n := numa.NodeID(0); int(n) < k.topo.Nodes(); n++ {
		if n == preferred {
			continue
		}
		if f, err := k.pm.AllocData(n); err == nil {
			return f, nil
		}
	}
	return mem.NilFrame, mem.ErrOutOfMemory
}
