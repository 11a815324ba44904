package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/virt"
)

// refPopulateOne is nativeSpace.populate as it was before a fault made one descent:
// an already-mapped Lookup, a pmd_none check by a full walk of the block's
// base, and a Map that walks again from the root reading every level
// through the backend, with the cost constants copied by value.
func (k *Kernel) refPopulateOne(p *Process, v *VMA, va pt.VirtAddr, socket numa.SocketID) (pt.PageSize, error) {
	if p.GuestSpace() != nil {
		return k.refPopulateGuestOne(p, v, va, socket)
	}
	if _, size, ok := refLookup(p.mapper.Table(), va); ok {
		return size, nil
	}
	ctx := p.opCtx()
	place := p.place(socket)
	dataNode := p.dataNode(socket)
	flags := pt.FlagUser
	if v.Writable {
		flags |= pt.FlagWrite
	}
	if k.thp && v.THP {
		hugeBase := pt.PageBase(va, pt.Size2M)
		if hugeBase >= v.Start && hugeBase+pt.VirtAddr(pt.Size2M.Bytes()) <= v.End &&
			refPMDEmpty(p.mapper.Table(), hugeBase) {
			if frame, err := k.pm.AllocHuge(dataNode); err == nil {
				p.Meter.Cycles += 256 * k.refParams().PageZero
				p.Meter.Cycles += k.costs.FrameAlloc
				if err := refMap(p.mapper, ctx, hugeBase, pt.Size2M, frame, flags, place); err != nil {
					k.pm.FreeHuge(frame)
					return 0, fmt.Errorf("kernel: huge map at %#x: %w", uint64(hugeBase), err)
				}
				return pt.Size2M, nil
			}
		}
	}
	frame, err := k.refAllocDataReclaiming(p, dataNode)
	if err != nil {
		return 0, err
	}
	params := k.refParams()
	zero := params.PageZero
	if k.pm.NodeOf(frame) != dataNode {
		zero = zero*params.RemoteDRAM/params.LocalDRAM + k.costs.DirectReclaim
	}
	p.Meter.Cycles += zero + k.costs.FrameAlloc
	base := pt.PageBase(va, pt.Size4K)
	if err := refMap(p.mapper, ctx, base, pt.Size4K, frame, flags, place); err != nil {
		if errors.Is(err, mem.ErrOutOfMemory) && k.reclaimReplicas(p) > 0 {
			err = refMap(p.mapper, ctx, base, pt.Size4K, frame, flags, p.place(socket))
		}
		if err != nil {
			k.pm.Free(frame)
			return 0, fmt.Errorf("kernel: map at %#x: %w", uint64(base), err)
		}
	}
	return pt.Size4K, nil
}

// refParams copies the cost constants, as Params did.
func (k *Kernel) refParams() numa.CostParams { return *k.cost.Params() }

// refAllocDataReclaiming allocates a data frame, reclaiming replicas once
// if memory is exhausted everywhere.
func (k *Kernel) refAllocDataReclaiming(p *Process, preferred numa.NodeID) (mem.FrameID, error) {
	f, err := k.allocDataWithFallback(preferred)
	if err == nil {
		return f, nil
	}
	if k.reclaimReplicas(p) == 0 {
		return mem.NilFrame, err
	}
	return k.allocDataWithFallback(preferred)
}

// refLookup is Table.Lookup as a descent of its own.
func refLookup(t *pt.Table, va pt.VirtAddr) (pt.PTE, pt.PageSize, bool) {
	frame := t.Root()
	for level := t.Levels(); level >= 1; level-- {
		e := pt.ReadEntry(t.Mem(), pt.EntryRef{Frame: frame, Index: pt.Index(va, level)})
		if !e.Present() {
			return 0, pt.Size4K, false
		}
		if level == 1 || e.Huge() {
			size, _ := pt.SizeAtLevel(level)
			return e, size, true
		}
		frame = e.Frame()
	}
	panic("kernel: reference lookup descended past level 1")
}

// refStep is one entry a reference walk read.
type refStep struct {
	level uint8
	ref   pt.EntryRef
	entry pt.PTE
}

// refWalk is the software walk the old fault path made: it reads va's
// path from the root, recording every entry it reads, down to the first
// entry that is not present or is a leaf, and reports whether that entry
// is a present leaf.
func refWalk(t *pt.Table, va pt.VirtAddr) ([]refStep, bool) {
	var steps []refStep
	frame := t.Root()
	for level := t.Levels(); level >= 1; level-- {
		ref := pt.EntryRef{Frame: frame, Index: pt.Index(va, level)}
		e := pt.ReadEntry(t.Mem(), ref)
		steps = append(steps, refStep{level, ref, e})
		if !e.Present() {
			return steps, false
		}
		if level == 1 || e.Huge() {
			return steps, true
		}
		frame = e.Frame()
	}
	panic("kernel: reference walk descended past level 1")
}

// refPMDEmpty is the old pmd_none check: a full walk of the block's base
// stops at a missing entry at level 2 or above.
func refPMDEmpty(t *pt.Table, hugeBase pt.VirtAddr) bool {
	steps, ok := refWalk(t, hugeBase)
	return !ok && steps[len(steps)-1].level >= 2
}

// refMap is Mapper.Map as it was: a walk from the root that reads every
// level through the backend and allocates each missing table.
func refMap(mp *pvops.Mapper, ctx *pvops.OpCtx, va pt.VirtAddr, size pt.PageSize, frame mem.FrameID, flags pt.PTE, place pvops.PTPlacement) error {
	b := mp.Backend()
	leafLevel := size.LeafLevel()
	cur := mp.Root()
	for level := mp.Levels(); level > leafLevel; level-- {
		ref := pt.EntryRef{Frame: cur, Index: pt.Index(va, level)}
		e := b.ReadPTE(ctx, ref)
		if e.Present() {
			if e.Huge() {
				return fmt.Errorf("%w: level %d at %#x", pvops.ErrHugeConflict, level, uint64(va))
			}
			cur = e.Frame()
			continue
		}
		child, err := b.AllocPT(ctx, pvops.AllocSpec{Level: level - 1, Primary: place.Primary, Replicas: place.Replicas})
		if err != nil {
			return fmt.Errorf("pvops: allocating level-%d table: %w", level-1, err)
		}
		b.SetPTE(ctx, ref, pt.NewPTE(child, pt.FlagPresent|pt.FlagWrite|pt.FlagUser))
		cur = child
	}
	leafRef := pt.EntryRef{Frame: cur, Index: pt.Index(va, leafLevel)}
	if old := b.ReadPTE(ctx, leafRef); old.Present() {
		return fmt.Errorf("%w: %#x", pvops.ErrMapped, uint64(va))
	}
	e := pt.NewPTE(frame, flags|pt.FlagPresent)
	if size != pt.Size4K {
		e |= pt.FlagHuge
	}
	b.SetPTE(ctx, leafRef, e)
	return nil
}

// refPopulateGuestOne is guestSpace.populate as it was: a guest Lookup, a
// guest pmd_none walk, and a guest Map that walks the primary and every
// replica tree from its root.
func (k *Kernel) refPopulateGuestOne(p *Process, v *VMA, va pt.VirtAddr, socket numa.SocketID) (pt.PageSize, error) {
	g := p.as.(*guestSpace)
	if _, size, ok := refGuestLookup(k, g, va); ok {
		return size, nil
	}
	vm := p.VM().vm
	gptNode := g.gs.HomeNode()
	dataNode := p.dataNode(socket)
	flags := pt.FlagUser
	if v.Writable {
		flags |= pt.FlagWrite
	}
	if k.thp && v.THP {
		hugeBase := pt.PageBase(va, pt.Size2M)
		if hugeBase >= v.Start && hugeBase+pt.VirtAddr(pt.Size2M.Bytes()) <= v.End &&
			refGuestPMDEmpty(k, g, hugeBase) {
			if gf, err := vm.AllocGuestHuge(dataNode); err == nil {
				p.Meter.Cycles += 256 * k.refParams().PageZero
				p.Meter.Cycles += k.costs.FrameAlloc
				if err := refGuestMap(k, g, hugeBase, gf, pt.Size2M, flags, gptNode); err != nil {
					return 0, fmt.Errorf("kernel: guest huge map at %#x: %w", uint64(hugeBase), err)
				}
				p.Meter.Cycles += vm.DrainCycles()
				return pt.Size2M, nil
			}
		}
	}
	gf, err := vm.AllocGuestFrame(dataNode)
	if err != nil {
		if errors.Is(err, mem.ErrOutOfMemory) && k.reclaimReplicas(p) > 0 {
			gf, err = vm.AllocGuestFrame(dataNode)
		}
		if err != nil {
			return 0, err
		}
	}
	p.Meter.Cycles += k.refParams().PageZero + k.costs.FrameAlloc
	base := pt.PageBase(va, pt.Size4K)
	if err := refGuestMap(k, g, base, gf, pt.Size4K, flags, gptNode); err != nil {
		return 0, fmt.Errorf("kernel: guest map at %#x: %w", uint64(base), err)
	}
	p.Meter.Cycles += vm.DrainCycles()
	return pt.Size4K, nil
}

// guestRoots returns the roots of g's guest trees: the primary, then one
// replica per node in ascending node order.
func guestRoots(k *Kernel, g *guestSpace) ([]virt.GuestFrame, []numa.NodeID) {
	roots := []virt.GuestFrame{virt.GuestFrame(g.gs.GuestRootFor(k.topo.SocketOfNode(g.gs.HomeNode())))}
	nodes := []numa.NodeID{g.gs.HomeNode()}
	for _, n := range g.gs.ReplicaNodes() {
		if n != g.gs.HomeNode() {
			roots = append(roots, virt.GuestFrame(g.gs.GuestRootFor(k.topo.SocketOfNode(n))))
			nodes = append(nodes, n)
		}
	}
	return roots, nodes
}

// refHostFrame returns the host frame behind guest frame gf: the nested
// table's translation of gf's guest-physical address.
func refHostFrame(k *Kernel, g *guestSpace, gf virt.GuestFrame) mem.FrameID {
	vm := g.vm.vm
	gpa := pt.VirtAddr(uint64(gf) << pt.PageShift4K)
	d := pt.NewTable(k.pm, vm.NestedRootFor(0), vm.NestedLevels()).Descend(gpa)
	size, ok := d.Mapped()
	if !ok {
		panic(fmt.Sprintf("kernel: guest frame %d has no host backing", gf))
	}
	return d.Entry.Frame() + mem.FrameID(pt.PageOffset(gpa, size)>>pt.PageShift4K)
}

func refReadGuest(k *Kernel, g *guestSpace, gf virt.GuestFrame, idx int) pt.PTE {
	return pt.ReadEntry(k.pm, pt.EntryRef{Frame: refHostFrame(k, g, gf), Index: idx})
}

func refGuestLookup(k *Kernel, g *guestSpace, gva pt.VirtAddr) (pt.PTE, pt.PageSize, bool) {
	roots, _ := guestRoots(k, g)
	return refGuestLookupIn(k, g, roots[0], gva)
}

// refGuestLookupIn is refGuestLookup in the guest tree rooted at root.
func refGuestLookupIn(k *Kernel, g *guestSpace, root virt.GuestFrame, gva pt.VirtAddr) (pt.PTE, pt.PageSize, bool) {
	cur := root
	for level := uint8(4); level >= 1; level-- {
		e := refReadGuest(k, g, cur, pt.Index(gva, level))
		if !e.Present() {
			return 0, pt.Size4K, false
		}
		if level == 1 || e.Huge() {
			size, _ := pt.SizeAtLevel(level)
			return e, size, true
		}
		cur = virt.GuestFrame(e.Frame())
	}
	panic("kernel: reference guest lookup descended past level 1")
}

func refGuestPMDEmpty(k *Kernel, g *guestSpace, gva pt.VirtAddr) bool {
	roots, _ := guestRoots(k, g)
	cur := roots[0]
	for level := uint8(4); level >= 2; level-- {
		e := refReadGuest(k, g, cur, pt.Index(gva, level))
		if !e.Present() {
			return true
		}
		if e.Huge() {
			return false
		}
		cur = virt.GuestFrame(e.Frame())
	}
	return false
}

// refGuestMap is GuestSpace.Map as it was: each tree, primary first, is
// walked from its root, its missing tables allocated on the tree's node.
func refGuestMap(k *Kernel, g *guestSpace, gva pt.VirtAddr, gframe virt.GuestFrame, size pt.PageSize, flags pt.PTE, ptNode numa.NodeID) error {
	roots, nodes := guestRoots(k, g)
	nodes[0] = ptNode
	for i, root := range roots {
		leafLevel := size.LeafLevel()
		cur := root
		for level := uint8(4); level > leafLevel; level-- {
			idx := pt.Index(gva, level)
			e := refReadGuest(k, g, cur, idx)
			if !e.Present() {
				child, err := g.vm.vm.AllocGuestTablePage(nodes[i])
				if err != nil {
					return err
				}
				pt.WriteEntryRaw(k.pm, pt.EntryRef{Frame: refHostFrame(k, g, cur), Index: idx},
					pt.NewPTE(mem.FrameID(child), pt.FlagPresent|pt.FlagWrite|pt.FlagUser))
				cur = child
				continue
			}
			if e.Huge() {
				return fmt.Errorf("virt: mapping %#x: level-%d huge leaf in the way", uint64(gva), level)
			}
			cur = virt.GuestFrame(e.Frame())
		}
		e := pt.NewPTE(mem.FrameID(gframe), flags|pt.FlagPresent)
		if size != pt.Size4K {
			e |= pt.FlagHuge
		}
		pt.WriteEntryRaw(k.pm, pt.EntryRef{Frame: refHostFrame(k, g, cur), Index: pt.Index(gva, leafLevel)}, e)
	}
	return nil
}

// refDestroyProcess is DestroyProcess as it was: one Free (and one lock)
// per data frame. A process in a VM exits through DestroyProcess: the
// batched frees it pins are the native path's, and the guest exit has a
// model test of its own (TestGuestExitFreesItsFrames).
func (k *Kernel) refDestroyProcess(p *Process) {
	if p.GuestSpace() != nil {
		k.DestroyProcess(p)
		return
	}
	for _, c := range p.cores {
		if k.current[c].Load() == p {
			k.current[c].Store(nil)
			k.machine.ClearContext(c)
		}
	}
	ctx := p.opCtx()
	for _, v := range p.vmas {
		p.forEachMapped(v, func(_ pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			p.freeDataPage(leaf, size)
		})
	}
	p.space.Collapse(ctx)
	p.mapper.Destroy(ctx)
	p.vmas = nil
	delete(k.procs, p.PID)
}

// refMunmap is Munmap as it was: every leaf's frame is freed after the
// visit, one Free (and one lock) per 4KB frame.
func (k *Kernel) refMunmap(p *Process, va pt.VirtAddr) error {
	v := p.findVMA(va)
	if v == nil || v.Start != va {
		return fmt.Errorf("%w: munmap(%#x)", ErrBadAddress, uint64(va))
	}
	core := k.callCore(p)
	ctx := p.opCtx()
	k.machine.AddCycles(core, k.costs.SyscallEntry)
	var unmapped []pt.VirtAddr
	var freed []pvops.LeafVisit
	p.mapper.VisitLeaves(ctx, v.Start, v.End, func(lv pvops.LeafVisit) (pt.PTE, bool) {
		p.Meter.Cycles += k.costs.PTEVisit + k.costs.FrameFree
		unmapped = append(unmapped, lv.VA)
		freed = append(freed, lv)
		return 0, true
	})
	for _, lv := range freed {
		p.freeDataPage(lv.Old, lv.Size)
	}
	k.machine.ShootdownRange(core, unmapped, p.cores)
	p.removeVMA(v)
	k.machine.AddCycles(core, drainMeterCycles(p))
	return nil
}

// pathEntries lists what va's translation reads: every entry on va's path
// in the primary table and each replica (ring order from the primary
// root) for a native process; in the guest trees, with the host frame
// behind the guest leaf, for a virtualized one.
func pathEntries(k *Kernel, p *Process, va pt.VirtAddr) []uint64 {
	var out []uint64
	g, ok := p.as.(*guestSpace)
	if !ok {
		root := p.mapper.Root()
		for r := root; ; {
			steps, _ := refWalk(pt.NewTable(k.pm, r, k.levels), va)
			for _, s := range steps {
				out = append(out, uint64(s.ref.Frame), uint64(s.ref.Index), uint64(s.entry))
			}
			if r = k.pm.ReplicaNext(r); r == mem.NilFrame || r == root {
				return out
			}
		}
	}
	roots, _ := guestRoots(k, g)
	for _, cur := range roots {
		for level := uint8(4); level >= 1; level-- {
			e := refReadGuest(k, g, cur, pt.Index(va, level))
			out = append(out, uint64(cur), uint64(e))
			if !e.Present() {
				break
			}
			if level == 1 || e.Huge() {
				out = append(out, uint64(refHostFrame(k, g, virt.GuestFrame(e.Frame()))))
				break
			}
			cur = virt.GuestFrame(e.Frame())
		}
	}
	return out
}

// faultRefCase builds one twin: a kernel and its processes, mapped and
// configured, ready to fault.
type faultRefCase struct {
	name  string
	build func(t *testing.T) (*Kernel, []*Process)
}

func faultRefCases() []faultRefCase {
	topo := func() *numa.Topology { return numa.NewTopology(4, 2) }
	boot := func(thp bool, framesPerNode uint64) *Kernel {
		return New(Config{Topology: topo(), FramesPerNode: framesPerNode, THP: thp, PageCacheTarget: 64})
	}
	mmap := func(t *testing.T, k *Kernel, p *Process, bytes uint64, thp bool) {
		t.Helper()
		if _, err := k.Mmap(p, bytes, MmapOpts{Writable: true, THP: thp}); err != nil {
			t.Fatal(err)
		}
	}
	return []faultRefCase{
		{"4k", func(t *testing.T) (*Kernel, []*Process) {
			k := boot(false, 16384)
			p := newProc(t, k, ProcessOpts{Home: 0})
			mmap(t, k, p, 8<<20, false)
			mmap(t, k, p, 1<<20, false)
			return k, []*Process{p}
		}},
		{"thp-fragmented", func(t *testing.T) (*Kernel, []*Process) {
			k := boot(true, 16384)
			// Node 1 has no whole 2MB group, node 2 half of them: huge
			// faults from socket 1 fall back to 4KB and leave their blocks
			// holding 4KB pages for later faults from other sockets.
			k.pm.Fragment(1, 1, rand.New(rand.NewSource(1)))
			k.pm.Fragment(2, 0.5, rand.New(rand.NewSource(2)))
			p := newProc(t, k, ProcessOpts{Home: 0})
			mmap(t, k, p, 3<<20, false)
			mmap(t, k, p, 24<<20+12<<10, true)
			return k, []*Process{p}
		}},
		{"replicated", func(t *testing.T) (*Kernel, []*Process) {
			k := boot(true, 16384)
			p := newProc(t, k, ProcessOpts{Home: 1})
			mmap(t, k, p, 6<<20, false)
			mmap(t, k, p, 8<<20, true)
			if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			q := newProc(t, k, ProcessOpts{Home: 2, PTPolicy: PTFixed, PTNode: 3})
			mmap(t, k, q, 6<<20, false)
			return k, []*Process{p, q}
		}},
		{"pressure", func(t *testing.T) (*Kernel, []*Process) {
			k := boot(true, 4096)
			// Node 0 keeps about 600 usable frames: its faults spill data
			// and page tables to node 1, paying the remote zero-fill.
			k.pm.SetPressure(0, k.pm.FreeFrames(0)-600)
			p := newProc(t, k, ProcessOpts{Home: 0})
			mmap(t, k, p, 6<<20, false)
			mmap(t, k, p, 6<<20, true)
			return k, []*Process{p}
		}},
		{"exhausted", func(t *testing.T) (*Kernel, []*Process) {
			k := boot(false, 4096)
			p := newProc(t, k, ProcessOpts{Home: 0})
			mmap(t, k, p, 4<<20, false)
			// Faults in this sparse VMA mostly need a new leaf table and
			// its three replicas, so the tables can be what runs out.
			mmap(t, k, p, 256<<20, false)
			if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			// Every node keeps about 150 usable frames: once they are gone,
			// faults reclaim the replicas (and the reservation pool) and
			// retry, then run out of memory.
			for n := numa.NodeID(0); n < 4; n++ {
				k.pm.SetPressure(n, k.pm.FreeFrames(n)-150)
			}
			return k, []*Process{p}
		}},
		{"vm", func(t *testing.T) (*Kernel, []*Process) {
			k := boot(true, 16384)
			k.pm.Fragment(1, 1, rand.New(rand.NewSource(3)))
			vm, err := k.CreateVM(0)
			if err != nil {
				t.Fatal(err)
			}
			p := newProc(t, k, ProcessOpts{Home: 0, VM: vm})
			if err := k.RunOn(p, []numa.CoreID{0, 2}); err != nil {
				t.Fatal(err)
			}
			mmap(t, k, p, 4<<20, false)
			mmap(t, k, p, 10<<20, true)
			if err := k.ReplicateVM(p, VMLayerBoth); err != nil {
				t.Fatal(err)
			}
			return k, []*Process{p}
		}},
	}
}

// TestFaultPathMatchesReference drives the old fault path (refPopulateOne
// and refPopulateGuestOne above) and the address space's populate on twin
// kernels with one seeded fault sequence: random pages of random VMAs
// faulted from random sockets, re-faults of mapped pages included. After
// every fault the twins must agree on the result, the process's meter,
// the entries along the address's path in every table copy (the leaf's
// frame with them) and the free frames of every node. The cases cover 4KB faults into empty VMAs
// and existing leaf tables; THP faults that get a block, that fall back
// under fragmentation or a pressure floor, and whose block already holds a
// 4KB page; a fully replicated process and a PTFixed one; a pressure floor
// that spills allocation to another node; and a VM process with 4KB and
// THP guest faults and replicated guest and nested tables.
//
// Then both twins destroy their processes, the first with a poisoned data
// frame (a 4KB one, and one inside a huge page where there is one), the
// reference one frame at a time, and allocate 64 frames per node: the
// frames and every node's retired count must agree. (The vm case's exit
// runs DestroyProcess on both twins; TestGuestExitFreesItsFrames checks it.)
func TestFaultPathMatchesReference(t *testing.T) {
	for i, c := range faultRefCases() {
		t.Run(c.name, func(t *testing.T) {
			refK, refProcs := c.build(t)
			gotK, gotProcs := c.build(t)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			sockets := refK.topo.Sockets()
			var sizes [3]int
			for step := 0; step < 3000; step++ {
				pi := rng.Intn(len(refProcs))
				ref, got := refProcs[pi], gotProcs[pi]
				vi := rng.Intn(len(ref.vmas))
				v := ref.vmas[vi]
				va := v.Start + pt.VirtAddr(rng.Int63n(int64(v.End-v.Start)))
				socket := numa.SocketID(rng.Intn(sockets))
				refSize, refErr := refK.refPopulateOne(ref, v, va, socket)
				gotSize, gotErr := got.as.populate(got.vmas[vi], va, socket)
				if (refErr == nil) != (gotErr == nil) || refSize != gotSize {
					t.Fatalf("step %d: fault at %#x: got (%v, %v), reference (%v, %v)", step, uint64(va), gotSize, gotErr, refSize, refErr)
				}
				if refErr == nil {
					sizes[refSize]++
				}
				if ref.Meter != got.Meter {
					t.Fatalf("step %d: fault at %#x: meter\n got %+v\n ref %+v", step, uint64(va), got.Meter, ref.Meter)
				}
				if a, b := pathEntries(refK, ref, va), pathEntries(gotK, got, va); !slices.Equal(a, b) {
					t.Fatalf("step %d: fault at %#x: path entries\n got %v\n ref %v", step, uint64(va), b, a)
				}
				compareFreeFrames(t, fmt.Sprintf("step %d", step), refK, gotK)
			}
			t.Logf("faults mapped: %d 4KB, %d 2MB", sizes[pt.Size4K], sizes[pt.Size2M])
			if sizes[pt.Size4K] == 0 {
				t.Fatal("no 4KB fault mapped")
			}
			if refK.thp && sizes[pt.Size2M] == 0 {
				t.Fatal("no 2MB fault mapped on a THP kernel")
			}

			poisonOne(refK, refProcs[0])
			poisonOne(gotK, gotProcs[0])
			for pi := range refProcs {
				refK.refDestroyProcess(refProcs[pi])
				gotK.DestroyProcess(gotProcs[pi])
			}
			compareFreeFrames(t, "after exit", refK, gotK)
			for n := numa.NodeID(0); int(n) < refK.topo.Nodes(); n++ {
				if a, b := refK.pm.Retired(n), gotK.pm.Retired(n); a != b {
					t.Fatalf("node %d retired %d frames, reference %d", n, b, a)
				}
				for range 64 {
					a, errA := refK.pm.AllocData(n)
					b, errB := gotK.pm.AllocData(n)
					if a != b || (errA == nil) != (errB == nil) {
						t.Fatalf("node %d allocated frame %d (%v), reference %d (%v)", n, b, errB, a, errA)
					}
				}
			}
		})
	}
}

// poisonOne poisons the first 4KB data frame p maps and the last frame of
// its first huge page, if it has one.
func poisonOne(k *Kernel, p *Process) {
	var small, huge bool
	for _, v := range p.vmas {
		p.forEachMapped(v, func(_ pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			switch {
			case size == pt.Size4K && !small:
				k.pm.SetPoison(leaf.Frame())
				small = true
			case size == pt.Size2M && !huge:
				k.pm.SetPoison(leaf.Frame() + mem.HugeFrames - 1)
				huge = true
			}
		})
	}
}

func compareFreeFrames(t *testing.T, at string, ref, got *Kernel) {
	t.Helper()
	for n := numa.NodeID(0); int(n) < ref.topo.Nodes(); n++ {
		if a, b := ref.pm.FreeFrames(n), got.pm.FreeFrames(n); a != b {
			t.Fatalf("%s: node %d has %d free frames, reference %d", at, n, b, a)
		}
	}
}

// TestMunmapMatchesReference faults random pages of every VMA on twin
// kernels (the cases of TestFaultPathMatchesReference), poisons a 4KB data
// frame (and a frame of a huge page where there is one), and unmaps every
// VMA: the reference frame by frame, the other through FreeAll in
// leaf-table runs. After each munmap the twins must agree on every node's
// free and retired frames and on the calling core's cycles; at the end,
// allocating every frame each node still has must hand out the same frames
// in the same order, which compares the allocators' bitmaps. The vm case
// has no older path to replay: its munmaps are checked against a model
// (checkGuestMunmaps).
func TestMunmapMatchesReference(t *testing.T) {
	for i, c := range faultRefCases() {
		t.Run(c.name, func(t *testing.T) {
			refK, refProcs := c.build(t)
			gotK, gotProcs := c.build(t)
			rng := rand.New(rand.NewSource(int64(200 + i)))
			sockets := refK.topo.Sockets()
			for range 1500 {
				pi := rng.Intn(len(refProcs))
				vi := rng.Intn(len(refProcs[pi].vmas))
				v := refProcs[pi].vmas[vi]
				va := v.Start + pt.VirtAddr(rng.Int63n(int64(v.End-v.Start)))
				socket := numa.SocketID(rng.Intn(sockets))
				_, refErr := refProcs[pi].as.populate(v, va, socket)
				_, gotErr := gotProcs[pi].as.populate(gotProcs[pi].vmas[vi], va, socket)
				if (refErr == nil) != (gotErr == nil) {
					t.Fatalf("fault at %#x: got %v, reference %v", uint64(va), gotErr, refErr)
				}
			}
			if gotProcs[0].GuestSpace() != nil {
				checkGuestMunmaps(t, gotK, gotProcs[0])
				return
			}
			poisonOne(refK, refProcs[0])
			poisonOne(gotK, gotProcs[0])
			var before, after, retired uint64
			for n := numa.NodeID(0); int(n) < refK.topo.Nodes(); n++ {
				before += refK.pm.FreeFrames(n)
			}
			for pi := range refProcs {
				ref, got := refProcs[pi], gotProcs[pi]
				for len(ref.vmas) > 0 {
					base := ref.vmas[0].Start
					if err := refK.refMunmap(ref, base); err != nil {
						t.Fatal(err)
					}
					if err := gotK.Munmap(got, base); err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("munmap(%#x)", uint64(base))
					compareFreeFrames(t, at, refK, gotK)
					for n := numa.NodeID(0); int(n) < refK.topo.Nodes(); n++ {
						if a, b := refK.pm.Retired(n), gotK.pm.Retired(n); a != b {
							t.Fatalf("%s: node %d retired %d frames, reference %d", at, n, b, a)
						}
					}
					c := refK.callCore(ref)
					if a, b := refK.machine.Stats(c).Cycles, gotK.machine.Stats(c).Cycles; a != b {
						t.Fatalf("%s: core %d at %d cycles, reference %d", at, c, b, a)
					}
				}
			}
			for n := numa.NodeID(0); int(n) < refK.topo.Nodes(); n++ {
				after += refK.pm.FreeFrames(n)
				retired += refK.pm.Retired(n)
			}
			t.Logf("munmap freed %d frames and retired %d", after-before, retired)
			if after <= before || retired == 0 {
				t.Fatal("the munmaps freed or retired nothing")
			}
			for n := numa.NodeID(0); int(n) < refK.topo.Nodes(); n++ {
				for {
					a, errA := refK.pm.AllocData(n)
					b, errB := gotK.pm.AllocData(n)
					if a != b || (errA == nil) != (errB == nil) {
						t.Fatalf("node %d allocated frame %d (%v), reference %d (%v)", n, b, errB, a, errA)
					}
					if errA != nil {
						break
					}
				}
			}
		})
	}
}

// guestLeaf is one guest data page: its VA and size and the host frame
// backing its first 4KB.
type guestLeaf struct {
	va   pt.VirtAddr
	size pt.PageSize
	host mem.FrameID
}

// guestLeaves lists p's guest data pages in [start, end), read through the
// primary guest table.
func guestLeaves(k *Kernel, p *Process, start, end pt.VirtAddr) []guestLeaf {
	g := p.as.(*guestSpace)
	var out []guestLeaf
	for va := start; va < end; {
		e, size, ok := refGuestLookup(k, g, va)
		if !ok {
			va += pt.VirtAddr(pt.Size4K.Bytes())
			continue
		}
		out = append(out, guestLeaf{va, size, refHostFrame(k, g, virt.GuestFrame(e.Frame()))})
		va = pt.PageBase(va, size) + pt.VirtAddr(size.Bytes())
	}
	return out
}

// frameStates returns the metadata of every frame of the machine.
func frameStates(k *Kernel) []mem.FrameMeta {
	out := make([]mem.FrameMeta, k.pm.TotalFrames())
	for f := range out {
		out[f] = *k.pm.Meta(mem.FrameID(f))
	}
	return out
}

// checkGuestMunmaps poisons the host backing of p's first 4KB guest page
// and the last frame of its first 2MB one, then unmaps every VMA of p, a
// process in a VM. After each munmap no guest entry of the range may be
// present in the primary guest table or any replica, every host frame that
// backed a guest data page of the range must be free (retired if it was
// poisoned), and no other frame may have changed state.
func checkGuestMunmaps(t *testing.T, k *Kernel, p *Process) {
	t.Helper()
	var small, huge bool
	for _, v := range p.vmas {
		for _, l := range guestLeaves(k, p, v.Start, v.End) {
			switch {
			case l.size == pt.Size4K && !small:
				k.pm.SetPoison(l.host)
				small = true
			case l.size == pt.Size2M && !huge:
				k.pm.SetPoison(l.host + mem.HugeFrames - 1)
				huge = true
			}
		}
	}
	if !small || !huge {
		t.Fatalf("faults mapped no 4KB (%v) or 2MB (%v) guest page", small, huge)
	}
	var freed, retired int
	for len(p.vmas) > 0 {
		v := p.vmas[0]
		backing := map[mem.FrameID]bool{}
		for _, l := range guestLeaves(k, p, v.Start, v.End) {
			for f := l.host; f < l.host+mem.FrameID(l.size.Bytes()>>pt.PageShift4K); f++ {
				backing[f] = k.pm.Poisoned(f)
			}
		}
		before := frameStates(k)
		if err := k.Munmap(p, v.Start); err != nil {
			t.Fatal(err)
		}
		at := fmt.Sprintf("munmap(%#x)", uint64(v.Start))
		for f, m := range frameStates(k) {
			poisoned, backed := backing[mem.FrameID(f)]
			switch {
			case !backed && m != before[f]:
				t.Fatalf("%s: frame %d changed from %+v to %+v", at, f, before[f], m)
			case backed && poisoned && m.Kind != mem.KindRetired:
				t.Fatalf("%s: poisoned frame %d is %v, want retired", at, f, m.Kind)
			case backed && !poisoned && m.Kind != mem.KindFree:
				t.Fatalf("%s: frame %d is %v, want free", at, f, m.Kind)
			case backed && poisoned:
				retired++
			case backed:
				freed++
			}
		}
		roots, nodes := guestRoots(k, p.as.(*guestSpace))
		for i, root := range roots {
			for va := v.Start; va < v.End; va += pt.VirtAddr(pt.Size4K.Bytes()) {
				if _, _, ok := refGuestLookupIn(k, p.as.(*guestSpace), root, va); ok {
					t.Fatalf("%s: %#x still mapped in the guest table on node %d", at, uint64(va), nodes[i])
				}
			}
		}
	}
	t.Logf("munmap freed %d host frames and retired %d", freed, retired)
	if freed == 0 || retired != 2 {
		t.Fatalf("the munmaps freed %d frames and retired %d, want some and 2", freed, retired)
	}
}
