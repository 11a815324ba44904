// Package virt extends Mitosis to hardware-assisted virtualized memory, the
// direction §7.4 of the paper sketches but leaves as future work: with
// nested paging, a guest-virtual address is translated by a per-process
// guest page-table (gVA -> gPA) whose own pages live in guest-physical
// memory, which the per-VM nested page-table translates (gPA -> hPA). A
// nested TLB miss therefore performs a two-dimensional walk of up to 24
// memory accesses on x86-64 — every one of which is NUMA-sensitive.
//
// The package provides:
//
//   - VM: guest-physical memory backed by host frames through a nested
//     page-table built on the host's Mitosis backend (core.Backend), so the
//     nested table replicates across sockets with the ordinary Mitosis
//     machinery. A VM always has that machinery: there is no native-backend
//     VM, as there is no native-backend host.
//   - GuestSpace: a guest process's page-table, stored in guest-physical
//     frames, with optional per-socket guest-table replicas (gPT
//     replication needs guest-visible NUMA, exactly as §7.4 observes).
//
// hw.Machine performs the TLB-integrated two-dimensional walk in the main
// access path; this package supplies it with roots and table storage. The
// package's tests keep a software walker of their own (Walk2D) and the
// whole-address Map; production code maps through MapAt from the descent
// its fault path already made.
//
// Guest page-table pages live in guest *data* frames, but their payloads
// are provisioned into the physical memory's table storage
// (mem.ProvisionTable) and every guest entry is read and written through
// the atomic pt entry accessors — concurrent hardware walkers on other
// cores observe guest tables exactly as they observe host tables.
package virt

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// GuestFrame is a guest-physical frame number (4KB granularity).
type GuestFrame uint64

// gpaOf returns the guest-physical address of a guest frame.
func gpaOf(f GuestFrame) pt.VirtAddr { return pt.VirtAddr(uint64(f) << 12) }

// VM is one virtual machine: a guest-physical address space backed by host
// frames via a nested page-table.
type VM struct {
	pm *mem.PhysMem
	// npt translates guest-physical addresses (as pt.VirtAddr) to host
	// frames.
	npt *pvops.Mapper
	// nspace manages nested-table replication.
	nspace *core.Space
	ctx    *pvops.OpCtx
	// homeNode is where the hypervisor builds the VM's nested-table pages
	// (its own first-touch behaviour).
	homeNode numa.NodeID

	nextGuestFrame GuestFrame
	// backing maps each guest frame to its host frame (a software shadow
	// of the nested table, used for guest-side writes). NilFrame marks
	// alignment holes left by huge-page allocation.
	backing []mem.FrameID
}

// NewVM creates a VM whose nested page-table root lives on hostNode. The
// nested table is built on the Mitosis backend, so ReplicateNested can
// replicate it.
func NewVM(pm *mem.PhysMem, backend *core.Backend, hostNode numa.NodeID) (*VM, error) {
	ctx := &pvops.OpCtx{Meter: &pvops.Meter{}}
	npt, err := pvops.NewMapper(ctx, pm, backend, 4, pvops.PTPlacement{Primary: hostNode})
	if err != nil {
		return nil, fmt.Errorf("virt: creating nested table: %w", err)
	}
	return &VM{pm: pm, npt: npt, nspace: core.NewSpace(pm, backend, npt), ctx: ctx, homeNode: hostNode}, nil
}

// NestedSpace returns the replication manager for the nested table.
func (vm *VM) NestedSpace() *core.Space { return vm.nspace }

// HomeNode returns the node the hypervisor builds the VM's nested tables on.
func (vm *VM) HomeNode() numa.NodeID { return vm.homeNode }

// NestedLevels returns the nested table's paging depth.
func (vm *VM) NestedLevels() uint8 { return vm.npt.Levels() }

// DrainCycles returns and clears the hypervisor-side cycle meter (nested
// table construction and replication work done on behalf of the VM). The
// kernel bills these to the faulting core.
func (vm *VM) DrainCycles() numa.Cycles {
	cy := vm.ctx.Meter.Cycles
	vm.ctx.Meter.Cycles = 0
	return cy
}

// nestedPlace returns the placement for new nested-table pages:
// hypervisor state built on the VM's home node, replicated per the current
// nested mask.
func (vm *VM) nestedPlace() pvops.PTPlacement {
	return pvops.PTPlacement{Primary: vm.homeNode, Replicas: vm.nspace.Mask()}
}

// AllocGuestFrame extends guest-physical memory by one frame backed by a
// host frame on node, and maps it in the nested table.
func (vm *VM) AllocGuestFrame(node numa.NodeID) (GuestFrame, error) {
	hf, err := vm.pm.AllocData(node)
	if err != nil {
		return 0, err
	}
	gf := vm.nextGuestFrame
	if err := vm.npt.Map(vm.ctx, gpaOf(gf), pt.Size4K, hf, pt.FlagWrite|pt.FlagUser, vm.nestedPlace()); err != nil {
		vm.pm.Free(hf)
		return 0, fmt.Errorf("virt: mapping guest frame %d: %w", gf, err)
	}
	vm.nextGuestFrame++
	vm.backing = append(vm.backing, hf)
	return gf, nil
}

// AllocGuestTablePage allocates a guest frame destined to hold a guest
// page-table page: like AllocGuestFrame, plus table storage provisioned so
// hardware walkers can read the page through the published table pointer.
func (vm *VM) AllocGuestTablePage(node numa.NodeID) (GuestFrame, error) {
	gf, err := vm.AllocGuestFrame(node)
	if err != nil {
		return 0, err
	}
	vm.pm.ProvisionTable(vm.hostFrameOf(gf))
	return gf, nil
}

// AllocGuestHuge extends guest-physical memory by one 2MB block (512
// guest frames, 2MB-aligned in guest-physical space) backed by a host huge
// page on node, nested-mapped with a single 2MB leaf. Guest 2MB pages thus
// compose with nested 2MB leaves, so the effective gVA->hPA translation is
// 2MB-grained end to end.
func (vm *VM) AllocGuestHuge(node numa.NodeID) (GuestFrame, error) {
	hf, err := vm.pm.AllocHuge(node)
	if err != nil {
		return 0, err
	}
	// Align the next guest frame to a 2MB guest-physical boundary; the
	// skipped frame numbers stay unbacked holes.
	gf := (vm.nextGuestFrame + mem.HugeFrames - 1) / mem.HugeFrames * mem.HugeFrames
	if err := vm.npt.Map(vm.ctx, gpaOf(gf), pt.Size2M, hf, pt.FlagWrite|pt.FlagUser, vm.nestedPlace()); err != nil {
		vm.pm.FreeHuge(hf)
		return 0, fmt.Errorf("virt: mapping guest huge frame %d: %w", gf, err)
	}
	for len(vm.backing) < int(gf) {
		vm.backing = append(vm.backing, mem.NilFrame)
	}
	for i := mem.FrameID(0); i < mem.HugeFrames; i++ {
		vm.backing = append(vm.backing, hf+i)
	}
	vm.nextGuestFrame = gf + mem.HugeFrames
	return gf, nil
}

// hostFrameOf returns the host frame backing a guest frame.
func (vm *VM) hostFrameOf(gf GuestFrame) mem.FrameID {
	if uint64(gf) >= uint64(len(vm.backing)) || vm.backing[gf] == mem.NilFrame {
		panic(fmt.Sprintf("virt: guest frame %d beyond guest memory", gf))
	}
	return vm.backing[gf]
}

// FreeGuestPage gives the host backing of the guest page at gf back
// through the nested table: a 4KB frame from AllocGuestFrame or
// AllocGuestTablePage, or a 2MB block from AllocGuestHuge. The nested leaf
// goes and the host memory returns to the allocator, as free-page
// reporting returns a guest's freed pages to the host. Guest frame numbers
// are not reused, so the guest keeps no free list.
func (vm *VM) FreeGuestPage(gf GuestFrame, size pt.PageSize) {
	hf := vm.hostFrameOf(gf)
	if _, err := vm.npt.Unmap(vm.ctx, gpaOf(gf), size); err != nil {
		panic(fmt.Sprintf("virt: unmapping guest frame %d: %v", gf, err))
	}
	if size == pt.Size4K {
		vm.pm.Free(hf)
	} else {
		vm.pm.FreeHuge(hf)
	}
	for i := range GuestFrame(size.Bytes() >> pt.PageShift4K) {
		vm.backing[gf+i] = mem.NilFrame
	}
}

// ReplicateNested replicates the nested page-table on the given nodes via
// the ordinary Mitosis machinery (§7.4: "we can extend Mitosis' design to
// replicate both guest page-tables and nested page-tables independently").
// It is a full SetMask: nodes absent from the list lose their replicas.
func (vm *VM) ReplicateNested(nodes []numa.NodeID) error {
	return vm.nspace.SetMask(vm.ctx, nodes)
}

// NestedReplicaNodes returns the nodes holding a copy of the nested table
// (the primary's node included), ascending.
func (vm *VM) NestedReplicaNodes() []numa.NodeID { return vm.AppendNestedReplicaNodes(nil) }

// AppendNestedReplicaNodes appends NestedReplicaNodes to buf and returns
// it; with room in buf it allocates nothing.
func (vm *VM) AppendNestedReplicaNodes(buf []numa.NodeID) []numa.NodeID {
	return vm.nspace.AppendReplicaNodes(buf)
}

// NestedRootFor returns the nested-table root the given socket's hardware
// would use (the per-socket nCR3 of §5.3 applied to the nested dimension).
func (vm *VM) NestedRootFor(socket numa.SocketID) mem.FrameID {
	return vm.nspace.RootFor(socket)
}

// GuestSpace is a guest process's address space: a 4-level guest page-table
// whose pages are guest-physical frames.
type GuestSpace struct {
	vm *VM
	// roots[socket] is the guest root frame the vCPU on that socket uses;
	// without gPT replication all entries alias the primary.
	roots   []GuestFrame
	primary GuestFrame
	// replicas[node] records per-node guest-table replicas.
	replicas map[numa.NodeID]GuestFrame
	// homeNode is where unreplicated guest-table frames are backed.
	homeNode numa.NodeID
}

// NewGuestSpace creates an empty guest page-table with its root backed on
// homeNode.
func (vm *VM) NewGuestSpace(homeNode numa.NodeID) (*GuestSpace, error) {
	root, err := vm.AllocGuestTablePage(homeNode)
	if err != nil {
		return nil, err
	}
	gs := &GuestSpace{
		vm:       vm,
		primary:  root,
		roots:    make([]GuestFrame, vm.pm.Topology().Sockets()),
		replicas: map[numa.NodeID]GuestFrame{},
		homeNode: homeNode,
	}
	for i := range gs.roots {
		gs.roots[i] = root
	}
	return gs, nil
}

// HomeNode returns the node unreplicated guest-table frames are backed on.
func (gs *GuestSpace) HomeNode() numa.NodeID { return gs.homeNode }

// GuestRootFor returns the guest-physical frame number of the guest root
// table the vCPU on socket uses (the guest CR3 frame).
func (gs *GuestSpace) GuestRootFor(socket numa.SocketID) uint64 {
	return uint64(gs.roots[socket])
}

// ReplicaNodes returns the nodes holding a copy of the guest table (the
// home node included), ascending.
func (gs *GuestSpace) ReplicaNodes() []numa.NodeID { return gs.AppendReplicaNodes(nil) }

// AppendReplicaNodes appends ReplicaNodes to buf and returns it, sorting
// only the appended part; with room in buf it allocates nothing.
func (gs *GuestSpace) AppendReplicaNodes(buf []numa.NodeID) []numa.NodeID {
	n := len(buf)
	buf = append(buf, gs.homeNode)
	for r := range gs.replicas {
		buf = append(buf, r)
	}
	slices.Sort(buf[n:])
	return buf
}

// PTPageCount returns the number of guest page-table pages in the primary
// tree — the size of the copy a guest replication commits to (policy cost
// input).
func (gs *GuestSpace) PTPageCount() int {
	return gs.countTree(gs.primary, 4)
}

func (gs *GuestSpace) countTree(root GuestFrame, level uint8) int {
	n := 1
	if level > 1 {
		for i := 0; i < mem.PTEntries; i++ {
			e := gs.readGuest(root, i)
			if e.Present() && !e.Huge() {
				n += gs.countTree(GuestFrame(e.Frame()), level-1)
			}
		}
	}
	return n
}

// gptTable returns the host-memory view of a guest page-table page.
func (gs *GuestSpace) gptTable(gf GuestFrame) mem.FrameID {
	return gs.vm.hostFrameOf(gf)
}

// readGuest reads one guest page-table entry atomically.
func (gs *GuestSpace) readGuest(gf GuestFrame, idx int) pt.PTE {
	return pt.ReadEntry(gs.vm.pm, pt.EntryRef{Frame: gs.gptTable(gf), Index: idx})
}

// writeGuest writes one guest page-table entry atomically.
func (gs *GuestSpace) writeGuest(gf GuestFrame, idx int, e pt.PTE) {
	pt.WriteEntryRaw(gs.vm.pm, pt.EntryRef{Frame: gs.gptTable(gf), Index: idx}, e)
}

// MapAt installs gva -> gframe at the given page size in the guest table
// (guest-kernel work), continuing the primary tree from d, a Descend of an
// address that shares gva's indices at every level from the root down to
// d.Level, made since the guest table last changed. Missing intermediate
// guest-table frames of the primary tree are allocated on ptNode. Replicas,
// if any, are updated eagerly — the guest-level equivalent of the eager
// PV-Ops propagation — with their intermediate pages backed
// replica-locally. 2MB mappings require gframe to be the base of an
// AllocGuestHuge block.
func (gs *GuestSpace) MapAt(d pt.Descent, gva pt.VirtAddr, gframe GuestFrame, size pt.PageSize, flags pt.PTE, ptNode numa.NodeID) error {
	if err := gs.mapFrom(d, ptNode, gva, gframe, size, flags); err != nil {
		return err
	}
	// Replica trees update in ascending node order: intermediate-page
	// allocation draws guest frames from the shared counter, so the
	// iteration order is part of the bit-identical replay contract (a Go
	// map range would randomize it).
	for _, node := range gs.replicaNodesSorted() {
		if err := gs.mapFrom(gs.descendTree(gs.replicas[node], gva), node, gva, gframe, size, flags); err != nil {
			return err
		}
	}
	return nil
}

// replicaNodesSorted returns the replica map's keys in ascending order.
func (gs *GuestSpace) replicaNodesSorted() []numa.NodeID {
	nodes := make([]numa.NodeID, 0, len(gs.replicas))
	for n := range gs.replicas {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	return nodes
}

// Descend reads gva's path in the primary guest tree from the root down to
// the first entry that is not present or is a leaf. The result's Frame is
// a guest frame number.
func (gs *GuestSpace) Descend(gva pt.VirtAddr) pt.Descent {
	return gs.descendTree(gs.primary, gva)
}

// descendTree is Descend in the guest tree rooted at root.
func (gs *GuestSpace) descendTree(root GuestFrame, gva pt.VirtAddr) pt.Descent {
	cur := root
	for level := uint8(4); ; level-- {
		e := gs.readGuest(cur, pt.Index(gva, level))
		if level == 1 || !e.Present() || e.Huge() {
			return pt.Descent{Frame: mem.FrameID(cur), Level: level, Entry: e}
		}
		cur = GuestFrame(e.Frame())
	}
}

// mapFrom installs gva -> gframe in the tree d descended, allocating the
// missing tables below d.Level on node.
func (gs *GuestSpace) mapFrom(d pt.Descent, node numa.NodeID, gva pt.VirtAddr, gframe GuestFrame, size pt.PageSize, flags pt.PTE) error {
	leafLevel := size.LeafLevel()
	if uint64(gva)%size.Bytes() != 0 {
		panic(fmt.Sprintf("virt: gva %#x not aligned to %v", uint64(gva), size))
	}
	switch {
	case d.Entry.Present() && d.Level > leafLevel:
		return fmt.Errorf("virt: mapping %#x: level-%d huge leaf in the way", uint64(gva), d.Level)
	case d.Entry.Present() || d.Level < leafLevel:
		return fmt.Errorf("virt: mapping %#x: already mapped", uint64(gva))
	}
	cur := GuestFrame(d.Frame)
	for level := d.Level; level > leafLevel; level-- {
		child, err := gs.vm.AllocGuestTablePage(node)
		if err != nil {
			return err
		}
		// The child's storage is provisioned before this atomic store
		// publishes it: concurrent walkers acquire the table pointer
		// through the entry load.
		gs.writeGuest(cur, pt.Index(gva, level), pt.NewPTE(mem.FrameID(child), pt.FlagPresent|pt.FlagWrite|pt.FlagUser))
		cur = child
	}
	e := pt.NewPTE(mem.FrameID(gframe), flags|pt.FlagPresent)
	if size != pt.Size4K {
		e |= pt.FlagHuge
	}
	gs.writeGuest(cur, pt.Index(gva, leafLevel), e)
	return nil
}

// VisitLeaves calls fn for each present leaf of the primary guest tree in
// [start, end), in address order (the visit's Ref stays zero: guest tables
// are addressed by guest frame). An entry fn returns with true replaces
// the leaf in the primary and in every replica tree, whose shapes mirror
// the primary's: the guest kernel's munmap and mprotect write every copy,
// as MapAt does. Each step descends from the root and skips what the
// missing or leaf entry it stops at covers.
func (gs *GuestSpace) VisitLeaves(start, end pt.VirtAddr, fn func(pvops.LeafVisit) (pt.PTE, bool)) {
	for va := start; va < end; {
		d := gs.Descend(va)
		span := pt.VirtAddr(1) << (pt.PageShift4K + pt.EntryBits*uint64(d.Level-1))
		va &^= span - 1
		if size, ok := d.Mapped(); ok {
			if e, store := fn(pvops.LeafVisit{VA: va, Size: size, Old: d.Entry}); store {
				idx := pt.Index(va, d.Level)
				gs.writeGuest(GuestFrame(d.Frame), idx, e)
				for _, root := range gs.replicas {
					gs.writeGuest(GuestFrame(gs.descendTree(root, va).Frame), idx, e)
				}
			}
		}
		va += span
	}
}

// Destroy frees every guest-table tree, replicas in ascending node order,
// then the primary: the guest kernel's free_pgtables at exit. The data
// frames the leaves map are the caller's to free. The guest space must not
// be used afterwards.
func (gs *GuestSpace) Destroy() {
	for _, node := range gs.replicaNodesSorted() {
		gs.DropGuestReplica(node)
	}
	gs.freeGuestTree(gs.primary, 4)
}

// ReplicateGuest builds a guest-table replica backed by guest frames on
// each given node (guest-visible NUMA), so each socket's vCPU walks a
// socket-local guest table.
func (gs *GuestSpace) ReplicateGuest(nodes []numa.NodeID) error {
	for _, node := range nodes {
		if node == gs.homeNode {
			continue
		}
		if _, ok := gs.replicas[node]; ok {
			continue
		}
		copyRoot, err := gs.copyGuestTree(gs.primary, 4, node)
		if err != nil {
			return err
		}
		gs.replicas[node] = copyRoot
	}
	gs.repointRoots()
	return nil
}

// DropGuestReplica tears down the guest-table replica on node, freeing its
// guest frames, and repoints that node's vCPUs at the primary tree. The
// home node's primary cannot be dropped. Reports whether a replica
// existed.
func (gs *GuestSpace) DropGuestReplica(node numa.NodeID) bool {
	root, ok := gs.replicas[node]
	if !ok {
		return false
	}
	delete(gs.replicas, node)
	gs.repointRoots()
	gs.freeGuestTree(root, 4)
	return true
}

// repointRoots reassigns each socket's guest root: the node-local replica
// where one exists, the primary otherwise.
func (gs *GuestSpace) repointRoots() {
	topo := gs.vm.pm.Topology()
	for s := range gs.roots {
		node := topo.NodeOf(numa.SocketID(s))
		if r, ok := gs.replicas[node]; ok {
			gs.roots[s] = r
		} else {
			gs.roots[s] = gs.primary
		}
	}
}

// freeGuestTree releases a replica tree's table frames (interior pages
// only; leaf entries point at shared guest data frames).
func (gs *GuestSpace) freeGuestTree(root GuestFrame, level uint8) {
	if level > 1 {
		for i := 0; i < mem.PTEntries; i++ {
			e := gs.readGuest(root, i)
			if !e.Present() || e.Huge() {
				continue
			}
			gs.freeGuestTree(GuestFrame(e.Frame()), level-1)
		}
	}
	gs.vm.FreeGuestPage(root, pt.Size4K)
}

func (gs *GuestSpace) copyGuestTree(src GuestFrame, level uint8, node numa.NodeID) (GuestFrame, error) {
	cp, err := gs.vm.AllocGuestTablePage(node)
	if err != nil {
		return 0, err
	}
	for i := 0; i < mem.PTEntries; i++ {
		e := gs.readGuest(src, i)
		if !e.Present() {
			continue
		}
		if level > 1 && !e.Huge() {
			child, err := gs.copyGuestTree(GuestFrame(e.Frame()), level-1, node)
			if err != nil {
				return 0, err
			}
			gs.writeGuest(cp, i, pt.NewPTE(mem.FrameID(child), e.Flags()))
			continue
		}
		// Leaf entries (4KB at level 1, huge leaves above) are copied
		// verbatim: replicas share the guest data frames.
		gs.writeGuest(cp, i, e)
	}
	return cp, nil
}
