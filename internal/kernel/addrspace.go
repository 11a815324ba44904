package kernel

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/virt"
)

// addrSpace is a process's translation structures, picked once by
// CreateProcess: nativeSpace, the host page table with its Mitosis
// replicas, or guestSpace, a guest page table nested under a VM's table.
// The fault path, munmap, mprotect, exit, context loads and the policy
// engine go through it and never ask which one a process has. Reclaim,
// AutoNUMA, data and page-table migration and the tier and fault engines
// act on the host table alone (DESIGN.md says what keeps VMs from each).
type addrSpace interface {
	// populate maps the page covering va inside v and returns its size.
	populate(v *VMA, va pt.VirtAddr, socket numa.SocketID) (pt.PageSize, error)
	// visitLeaves calls fn for each present leaf in [start, end), in VA
	// order; an entry fn returns with true replaces the leaf in every copy.
	visitLeaves(start, end pt.VirtAddr, fn func(pvops.LeafVisit) (pt.PTE, bool))
	// release frees the data behind a cleared leaf; 4KB host frames may be
	// queued on batch for the caller's FreeAll.
	release(batch []mem.FrameID, leaf pt.PTE, size pt.PageSize) []mem.FrameID
	loadContext(c numa.CoreID, s numa.SocketID)
	// replicaNodes appends every node holding a copy, ascending.
	replicaNodes(buf []numa.NodeID) []numa.NodeID
	// policyState sets t's primary node, droppable replicas and table size.
	policyState(t *core.Telemetry)
	// replicate and drop apply a policy action and report if it took effect.
	replicate(e *PolicyEngine, node numa.NodeID) (bool, error)
	drop(node numa.NodeID) (bool, error)
	// destroy frees the data pages and every table (exit).
	destroy()
}

// nativeSpace is a native process's address space: the host page table
// (p.mapper) and its Mitosis replicas (p.space).
type nativeSpace struct{ p *Process }

func (a nativeSpace) visitLeaves(start, end pt.VirtAddr, fn func(pvops.LeafVisit) (pt.PTE, bool)) {
	a.p.mapper.VisitLeaves(a.p.opCtx(), start, end, fn)
}

// release frees a huge page at once and hands 4KB frames to FreeAll a leaf
// table's worth at a time: frees commute, so the allocator ends as
// frame-by-frame frees would leave it. destroy has the switch inline.
func (a nativeSpace) release(batch []mem.FrameID, leaf pt.PTE, size pt.PageSize) []mem.FrameID {
	pm := a.p.kernel.pm
	f := leaf.Frame()
	meta := pm.Meta(f)
	switch {
	case size == pt.Size2M && meta.HugeHead:
		pm.FreeHuge(f)
	case meta.Kind == mem.KindData:
		if batch = append(batch, f); len(batch) == mem.PTEntries {
			pm.FreeAll(batch)
			batch = batch[:0]
		}
	}
	return batch
}

func (a nativeSpace) loadContext(c numa.CoreID, s numa.SocketID) {
	a.p.kernel.machine.LoadContext(c, a.p.space.RootFor(s), a.p.kernel.levels)
}

func (a nativeSpace) replicaNodes(buf []numa.NodeID) []numa.NodeID {
	return a.p.space.AppendReplicaNodes(buf)
}

func (a nativeSpace) policyState(t *core.Telemetry) {
	s := a.p.space
	t.PrimaryNode, t.Mask, t.PTPages = s.PrimaryNode(), append(t.Mask[:0], s.Mask()...), s.PTPageCount()
}

// guestSpace is the address space of a process inside a VM: a guest page
// table (gVA -> gPA) of guest frames under the VM's table (gPA -> hPA).
// The process's host mapper and space stay allocated but empty.
type guestSpace struct {
	p  *Process
	vm *VM
	gs *virt.GuestSpace
	// layers selects the dimensions a policy's replicate and drop act on.
	layers string
}

func (g *guestSpace) visitLeaves(start, end pt.VirtAddr, fn func(pvops.LeafVisit) (pt.PTE, bool)) {
	g.gs.VisitLeaves(start, end, fn)
}

// release gives a guest data page's host backing back through the nested
// table (free-page reporting), so the guest keeps no free list.
func (g *guestSpace) release(batch []mem.FrameID, leaf pt.PTE, size pt.PageSize) []mem.FrameID {
	g.vm.vm.FreeGuestPage(virt.GuestFrame(leaf.Frame()), size)
	g.p.Meter.Cycles += g.vm.vm.DrainCycles()
	return batch
}

func (g *guestSpace) loadContext(c numa.CoreID, s numa.SocketID) {
	vm := g.vm.vm
	g.p.kernel.machine.LoadVirtContext(c, g.gs.GuestRootFor(s), vm.NestedRootFor(s), 4, vm.NestedLevels())
}

// replicaNodes is the union of the guest- and nested-table replica nodes.
func (g *guestSpace) replicaNodes(buf []numa.NodeID) []numa.NodeID {
	n := len(buf)
	buf = g.vm.vm.AppendNestedReplicaNodes(g.gs.AppendReplicaNodes(buf))
	slices.Sort(buf[n:])
	return append(buf[:n], slices.Compact(buf[n:])...)
}

// policyState: the guest home plays the primary, and every other node
// holding a gPT or ePT copy is droppable.
func (g *guestSpace) policyState(t *core.Telemetry) {
	home := g.gs.HomeNode()
	t.PrimaryNode, t.PTPages = home, g.gs.PTPageCount()
	t.Mask = slices.DeleteFunc(g.replicaNodes(t.Mask[:0]), func(n numa.NodeID) bool { return n == home })
}

// destroy frees the guest data frames, every guest-table tree and the
// unused host root; the VM keeps its nested tables.
func (g *guestSpace) destroy() {
	p := g.p
	for _, v := range p.vmas {
		g.gs.VisitLeaves(v.Start, v.End, func(lv pvops.LeafVisit) (pt.PTE, bool) {
			g.release(nil, lv.Old, lv.Size)
			return 0, false
		})
	}
	g.gs.Destroy()
	p.Meter.Cycles += g.vm.vm.DrainCycles()
	ctx := p.opCtx()
	p.space.Collapse(ctx)
	p.mapper.Destroy(ctx)
}

// hostTablesOnly refuses to replicate or migrate the host page table of a
// process in a VM: that table stays empty.
func hostTablesOnly(p *Process, call string) error {
	if p.VM() == nil {
		return nil
	}
	return fmt.Errorf("kernel: %s: process %d %q runs in a VM and its host page table stays empty; replicate its guest and nested tables with vm.replication (Kernel.ReplicateVM, ReplicateVMNode)", call, p.PID, p.Name)
}
