package kernel

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// MmapOpts configures an Mmap call.
type MmapOpts struct {
	// Writable grants store permission.
	Writable bool
	// THP requests transparent-huge-page backing where possible.
	THP bool
	// Populate eagerly faults every page in (MAP_POPULATE), as the
	// paper's VMA-operation microbenchmark does (§8.3.2).
	Populate bool
	// At requests a fixed base address (MAP_FIXED); 0 lets the kernel
	// choose. Page-table pages left behind by an earlier unmap of the
	// same range are reused, as in a steady-state address space.
	At pt.VirtAddr
}

// Mmap creates a new VMA of length bytes and returns its base address.
// Length is rounded up to 2MB so huge-page backing is always alignable.
func (k *Kernel) Mmap(p *Process, length uint64, opts MmapOpts) (pt.VirtAddr, error) {
	if length == 0 {
		return 0, fmt.Errorf("kernel: mmap of zero length")
	}
	core := k.callCore(p)
	length = roundUp(length, pt.Size4K.Bytes())
	base := p.nextMmap
	if opts.At != 0 {
		if uint64(opts.At)%pt.Size4K.Bytes() != 0 {
			return 0, fmt.Errorf("kernel: mmap at unaligned address %#x", uint64(opts.At))
		}
		base = opts.At
	}
	v := &VMA{
		Start:    base,
		End:      base + pt.VirtAddr(length),
		Writable: opts.Writable,
		THP:      opts.THP,
	}
	if opts.At == 0 {
		// Bases stay 2MB-aligned so THP backing is always alignable.
		p.nextMmap = pt.VirtAddr(roundUp(uint64(v.End), pt.Size2M.Bytes())) + pt.VirtAddr(pt.Size2M.Bytes())
	}
	p.insertVMA(v)
	k.machine.AddCycles(core, k.costs.SyscallEntry)

	if opts.Populate {
		socket := k.topo.SocketOf(core)
		for va := v.Start; va < v.End; {
			stepped, err := p.as.populate(v, va, socket)
			if err != nil {
				return 0, fmt.Errorf("kernel: mmap populate at %#x: %w", uint64(va), err)
			}
			va += pt.VirtAddr(stepped.Bytes())
		}
		// Population work was metered on the process; bill the cycles to
		// the calling core.
		k.machine.AddCycles(core, drainMeterCycles(p))
	}
	return v.Start, nil
}

// Munmap removes the VMA starting at va, unmapping and freeing every
// present page, then issuing one batched TLB shootdown for the range.
// The PTE loop iterates each page-table page once (Linux's zap_pte_range),
// not a root-to-leaf walk per page. In a VM it clears the guest entries in
// every guest-table copy and gives each guest data frame's host backing
// back through the nested table.
func (k *Kernel) Munmap(p *Process, va pt.VirtAddr) error {
	v := p.findVMA(va)
	if v == nil || v.Start != va {
		return fmt.Errorf("%w: munmap(%#x)", ErrBadAddress, uint64(va))
	}
	core := k.callCore(p)
	k.machine.AddCycles(core, k.costs.SyscallEntry)

	unmapped, batch := k.unmapVAs[:0], k.freeBatch[:0]
	p.as.visitLeaves(v.Start, v.End, func(lv pvops.LeafVisit) (pt.PTE, bool) {
		p.Meter.Cycles += k.costs.PTEVisit + k.costs.FrameFree
		unmapped = append(unmapped, lv.VA)
		p.tierUnmapped(lv.VA)
		batch = p.as.release(batch, lv.Old, lv.Size)
		return 0, true
	})
	k.pm.FreeAll(batch)
	k.unmapVAs, k.freeBatch = unmapped[:0], batch[:0]
	k.machine.ShootdownRange(core, unmapped, p.cores)
	p.removeVMA(v)
	k.machine.AddCycles(core, drainMeterCycles(p))
	return nil
}

// Mprotect changes the write permission of every present page in the VMA
// starting at va: the read-modify-write PTE loop of §8.3.2, one batched
// shootdown at the end (Linux's change_protection + flush_tlb_range). In a
// VM it rewrites the guest entries in every guest-table copy.
func (k *Kernel) Mprotect(p *Process, va pt.VirtAddr, writable bool) error {
	v := p.findVMA(va)
	if v == nil || v.Start != va {
		return fmt.Errorf("%w: mprotect(%#x)", ErrBadAddress, uint64(va))
	}
	core := k.callCore(p)
	k.machine.AddCycles(core, k.costs.SyscallEntry)

	k.protect.p, k.protect.writable, k.unmapVAs = p, writable, k.unmapVAs[:0]
	p.as.visitLeaves(v.Start, v.End, k.protect.visit)
	k.protect.p = nil
	v.Writable = writable
	k.machine.ShootdownRange(core, k.unmapVAs, p.cores)
	k.machine.AddCycles(core, drainMeterCycles(p))
	return nil
}

// protectVisit is Mprotect's leaf visitor, which collects the pages it
// rewrites in the kernel's unmapVAs. It lives in the kernel with visit
// bound once, because a closure handed to the address space would be
// allocated on every call.
type protectVisit struct {
	k        *Kernel
	p        *Process
	writable bool
	visit    func(pvops.LeafVisit) (pt.PTE, bool)
}

// leaf sets or clears one leaf's write bit in every copy.
func (pr *protectVisit) leaf(lv pvops.LeafVisit) (pt.PTE, bool) {
	pr.p.Meter.Cycles += pr.k.costs.PTEVisit
	pr.k.unmapVAs = append(pr.k.unmapVAs, lv.VA)
	if pr.writable {
		return lv.Old.WithFlags(pt.FlagWrite), true
	}
	return lv.Old.ClearFlags(pt.FlagWrite), true
}

// callCore resolves which core executes a syscall for p: its first core,
// or the home socket's first core when p is not scheduled.
func (k *Kernel) callCore(p *Process) numa.CoreID {
	if len(p.cores) > 0 {
		return p.cores[0]
	}
	return k.topo.FirstCoreOf(p.home)
}

// drainMeterCycles returns and clears the cycle component of the process
// meter (the counts remain for statistics).
func drainMeterCycles(p *Process) numa.Cycles {
	cy := p.Meter.Cycles
	p.Meter.Cycles = 0
	return cy
}

func roundUp(x, to uint64) uint64 { return (x + to - 1) / to * to }
