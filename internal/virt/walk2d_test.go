package virt

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Walk2DResult reports one two-dimensional page walk.
type Walk2DResult struct {
	// HostFrame is the final translation target: the host frame of the
	// 4KB page containing the walked address.
	HostFrame mem.FrameID
	// Size is the effective translation granularity: the smaller of the
	// guest leaf's and the final nested leaf's page sizes (what a
	// hardware TLB would cache).
	Size pt.PageSize
	// Cycles is the total walk cost.
	Cycles numa.Cycles
	// Accesses counts memory accesses (up to 24 on x86-64: 4 guest levels
	// x 5 nested accesses each, plus 4 for the final gPA; huge leaves in
	// either dimension shorten the walk).
	Accesses int
	// RemoteAccesses counts accesses that crossed the interconnect.
	RemoteAccesses int
}

// nptTranslate walks the nested table (from the socket-local root) for one
// guest-physical address, charging per-level costs. It returns the host
// frame of the 4KB page containing gpa and the nested leaf's page size.
// Nested huge leaves (PS at level 2 or 3) terminate the walk early,
// composing the in-page offset; a PS bit anywhere else is a malformed
// tree.
func (vm *VM) nptTranslate(cost *numa.CostModel, socket numa.SocketID, gpa pt.VirtAddr, res *Walk2DResult) (mem.FrameID, pt.PageSize, error) {
	frame := vm.NestedRootFor(socket)
	for level := vm.npt.Levels(); level >= 1; level-- {
		res.Accesses++
		node := vm.pm.NodeOf(frame)
		res.Cycles += cost.DRAM(socket, node)
		if node != vm.pm.Topology().NodeOf(socket) {
			res.RemoteAccesses++
		}
		e := pt.ReadEntry(vm.pm, pt.EntryRef{Frame: frame, Index: pt.Index(gpa, level)})
		if !e.Present() {
			return mem.NilFrame, 0, fmt.Errorf("virt: nested fault at gPA %#x level %d", uint64(gpa), level)
		}
		if level == 1 {
			return e.Frame(), pt.Size4K, nil
		}
		if e.Huge() {
			size, ok := pt.SizeAtLevel(level)
			if !ok {
				return mem.NilFrame, 0, fmt.Errorf("virt: malformed nested table: PS bit at level %d (gPA %#x)", level, uint64(gpa))
			}
			off := pt.PageOffset(gpa, size) >> pt.PageShift4K
			return e.Frame() + mem.FrameID(off), size, nil
		}
		frame = e.Frame()
	}
	panic("virt: nested walk descended past level 1")
}

// Walk2D performs the full two-dimensional walk for gva on the given
// socket, charging cost's DRAM latencies: for each guest level, the
// guest-table page's gPA is translated through the nested table and the
// guest entry is read; the final leaf gPA is translated once more. No TLB
// or MMU-cache acceleration is modelled — this is the worst-case walk the
// paper's §7.4 quotes at 24 accesses (4KB pages end to end; huge leaves in
// either dimension shorten it). The hardware path (hw.Machine) performs the
// same walk with TLB caching of the resulting gVA->hPA leaf.
func (vm *VM) Walk2D(cost *numa.CostModel, gs *GuestSpace, socket numa.SocketID, gva pt.VirtAddr) (Walk2DResult, error) {
	var res Walk2DResult
	topo := vm.pm.Topology()
	cur := gs.roots[socket]
	for level := uint8(4); level >= 1; level-- {
		// Translate the guest-table page's gPA through the nested table.
		hostFrame, _, err := vm.nptTranslate(cost, socket, gpaOf(cur), &res)
		if err != nil {
			return res, err
		}
		// Read the guest entry from the backing host frame.
		res.Accesses++
		node := vm.pm.NodeOf(hostFrame)
		res.Cycles += cost.DRAM(socket, node)
		if node != topo.NodeOf(socket) {
			res.RemoteAccesses++
		}
		e := pt.ReadEntry(vm.pm, pt.EntryRef{Frame: hostFrame, Index: pt.Index(gva, level)})
		if !e.Present() {
			return res, fmt.Errorf("virt: guest fault at %#x level %d", uint64(gva), level)
		}
		isLeaf := level == 1 || e.Huge()
		if !isLeaf {
			cur = GuestFrame(e.Frame())
			continue
		}
		gsize, ok := pt.SizeAtLevel(level)
		if !ok {
			return res, fmt.Errorf("virt: malformed guest table: PS bit at level %d (%#x)", level, uint64(gva))
		}
		// Final: translate the gPA of the 4KB page containing gva (the
		// guest leaf's base plus the in-page offset, 4KB-truncated).
		gpa := gpaOf(GuestFrame(e.Frame())) + pt.VirtAddr(pt.PageOffset(gva, gsize)&^uint64(pt.Size4K.Bytes()-1))
		final, nsize, err := vm.nptTranslate(cost, socket, gpa, &res)
		if err != nil {
			return res, err
		}
		res.HostFrame = final
		res.Size = pt.MinSize(gsize, nsize)
		return res, nil
	}
	panic("virt: guest walk descended past level 1")
}
