package kernel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// virtFixture boots a small kernel with one VM and one guest process: VM
// and guest page-tables initialized on homeNode, vCPU on socket 0 — the
// §7.4 worst case when homeNode is remote.
func virtFixture(t *testing.T, thp bool, homeNode numa.NodeID) (*Kernel, *Process) {
	t.Helper()
	k := New(Config{
		Topology:      numa.NewTopology(2, 2),
		FramesPerNode: 1 << 15,
		THP:           thp,
	})
	vm, err := k.CreateVM(homeNode)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.CreateProcess(ProcessOpts{
		Name:       "guest",
		Home:       0,
		VM:         vm,
		PTPolicy:   PTFixed,
		PTNode:     homeNode,
		DataPolicy: Bind,
		BindNode:   homeNode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunOn(p, []numa.CoreID{k.Topology().FirstCoreOf(0)}); err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestGuestProcessFaultsAndTranslates(t *testing.T) {
	k, p := virtFixture(t, false, 1)
	base, err := k.Mmap(p, 64<<12, MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	core0 := p.Cores()[0]
	m := k.Machine()
	for i := 0; i < 64; i++ {
		if err := hwtest.Access(m, core0, base+pt.VirtAddr(i<<12), true); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	st := m.Stats(core0)
	if st.Faults == 0 {
		t.Error("guest process took no faults")
	}
	if st.Walks == 0 {
		t.Error("no 2D walks recorded")
	}
	if st.GuestWalkCycles == 0 || st.NestedWalkCycles == 0 {
		t.Errorf("guest/nested walk cycle split missing: guest=%d nested=%d",
			st.GuestWalkCycles, st.NestedWalkCycles)
	}
	if _, ok := p.GuestSpace().Descend(base).Mapped(); !ok {
		t.Error("guest table holds no mapping after fault")
	}
	// Repeat accesses hit the TLB: no further walks.
	before := m.Stats(core0).Walks
	if err := hwtest.Access(m, core0, base, false); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(core0).Walks; got != before {
		t.Errorf("re-access walked again (%d -> %d); vTLB not caching the composed leaf", before, got)
	}
}

// coldCaches empties the machine's translation and page-table line caches
// (Machine.Reset), reloads p's contexts and zeroes the counters, so the
// walks that follow start cold.
func coldCaches(k *Kernel, p *Process) {
	k.machine.Reset()
	k.reloadContexts(p)
	k.machine.ResetStats()
}

// A cold 2D walk of a 4KB guest page over a 4KB-nested VM performs the
// §7.4 worst case of 24 table reads.
func TestGuestWalkWorstCase24Accesses(t *testing.T) {
	k, p := virtFixture(t, false, 1)
	base, err := k.Mmap(p, 8<<12, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	core0 := p.Cores()[0]
	m := k.Machine()
	k.reloadContexts(p) // flushes core0's translation caches
	m.ResetStats()
	if err := hwtest.Access(m, core0, base, false); err != nil {
		t.Fatal(err)
	}
	st := m.Stats(core0)
	if got := st.WalkMemAccesses + st.WalkLLCHits; got != 24 {
		t.Errorf("2D walk table reads = %d, want 24 (4 guest levels x 5 + 4)", got)
	}
	if st.Walks != 1 {
		t.Errorf("walks = %d, want 1", st.Walks)
	}
}

// With THP on, guest 2MB leaves compose with nested 2MB leaves: the cold
// walk drops to 18 reads and the vTLB entry covers the whole 2MB page.
func TestGuestWalkHugeLeaf18Accesses(t *testing.T) {
	k, p := virtFixture(t, true, 1)
	base, err := k.Mmap(p, 2<<20, MmapOpts{Writable: true, THP: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if size, ok := p.GuestSpace().Descend(base).Mapped(); !ok || size != pt.Size2M {
		t.Fatalf("guest mapping at %#x: ok=%v size=%v, want a 2MB leaf", uint64(base), ok, size)
	}
	core0 := p.Cores()[0]
	m := k.Machine()
	k.reloadContexts(p) // flushes core0's translation caches
	m.ResetStats()
	if err := hwtest.Access(m, core0, base+0x1000, false); err != nil {
		t.Fatal(err)
	}
	st := m.Stats(core0)
	if got := st.WalkMemAccesses + st.WalkLLCHits; got != 18 {
		t.Errorf("huge 2D walk table reads = %d, want 18 (3 guest levels x 5 + 3)", got)
	}
	// Another 4KB page of the same 2MB mapping hits the TLB entry.
	before := m.Stats(core0).Walks
	if err := hwtest.Access(m, core0, base+0x1F5000, true); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(core0).Walks; got != before {
		t.Errorf("2MB vTLB entry did not cover the page (walks %d -> %d)", before, got)
	}
}

// Replicating both dimensions onto the vCPU's node makes the whole 2D walk
// local, recovering the worst-case placement (§7.4 / Table 6 shape).
func TestReplicateVMRecoversLocality(t *testing.T) {
	k, p := virtFixture(t, false, 1)
	base, err := k.Mmap(p, 128<<12, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	core0 := p.Cores()[0]
	m := k.Machine()

	coldCaches(k, p)
	for i := 0; i < 128; i++ {
		if err := hwtest.Access(m, core0, base+pt.VirtAddr(i<<12), false); err != nil {
			t.Fatal(err)
		}
	}
	worst := m.Stats(core0)
	if worst.WalkRemoteAccesses == 0 {
		t.Fatal("worst-case placement produced no remote walk reads")
	}

	if err := k.ReplicateVM(p, VMLayerBoth); err != nil {
		t.Fatal(err)
	}
	nodes := p.ReplicaNodes()
	if len(nodes) != 2 {
		t.Fatalf("replica nodes = %v, want both nodes", nodes)
	}
	coldCaches(k, p)
	for i := 0; i < 128; i++ {
		if err := hwtest.Access(m, core0, base+pt.VirtAddr(i<<12), false); err != nil {
			t.Fatal(err)
		}
	}
	best := m.Stats(core0)
	if best.WalkRemoteAccesses != 0 {
		t.Errorf("replicated 2D walk still reads remotely: %d accesses", best.WalkRemoteAccesses)
	}
	if best.WalkCycles >= worst.WalkCycles {
		t.Errorf("replicated walks (%d cycles) not cheaper than worst case (%d)",
			best.WalkCycles, worst.WalkCycles)
	}
}

// gPT and ePT replicate independently: a gpt-only layer selector leaves
// the nested table unreplicated and vice versa.
func TestVMLayersIndependent(t *testing.T) {
	k, p := virtFixture(t, false, 1)
	if _, err := k.Mmap(p, 16<<12, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ReplicateVMNode(p, 0, VMLayerGPT); err != nil {
		t.Fatal(err)
	}
	if got := p.GuestSpace().ReplicaNodes(); len(got) != 2 {
		t.Errorf("guest replica nodes = %v, want both", got)
	}
	if got := p.VM().vm.NestedReplicaNodes(); len(got) != 1 {
		t.Errorf("nested replica nodes = %v, want home only", got)
	}
	if _, err := k.ReplicateVMNode(p, 0, VMLayerEPT); err != nil {
		t.Fatal(err)
	}
	if got := p.VM().vm.NestedReplicaNodes(); len(got) != 2 {
		t.Errorf("nested replica nodes after ept = %v, want both", got)
	}
	// Drop them independently again.
	if applied, err := k.DropVMReplica(p, 0, VMLayerGPT); err != nil || !applied {
		t.Fatalf("gpt drop: applied=%v err=%v", applied, err)
	}
	if got := p.VM().vm.NestedReplicaNodes(); len(got) != 2 {
		t.Errorf("gpt drop also dropped nested: %v", got)
	}
	if applied, err := k.DropVMReplica(p, 0, VMLayerEPT); err != nil || !applied {
		t.Fatalf("ept drop: applied=%v err=%v", applied, err)
	}
	if got := p.ReplicaNodes(); len(got) != 1 {
		t.Errorf("replica nodes after drops = %v, want home only", got)
	}
}

// TestGuestExitFreesItsFrames: the exit of a process in a VM frees every
// frame its guest data pages and guest-table trees (primary and replicas)
// took, and its host root. Only the nested table's pages, grown for the
// process's guest memory and replicated with it, stay with the VM.
func TestGuestExitFreesItsFrames(t *testing.T) {
	for _, thp := range []bool{false, true} {
		t.Run(fmt.Sprintf("thp=%v", thp), func(t *testing.T) {
			k := New(Config{Topology: numa.NewTopology(2, 2), FramesPerNode: 1 << 15, THP: thp})
			vm, err := k.CreateVM(1)
			if err != nil {
				t.Fatal(err)
			}
			before := frameStates(k)
			p := newProc(t, k, ProcessOpts{Home: 0, VM: vm})
			if err := k.RunOn(p, []numa.CoreID{0, 2}); err != nil {
				t.Fatal(err)
			}
			if _, err := k.Mmap(p, 64<<12, MmapOpts{Writable: true, Populate: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := k.Mmap(p, 4<<20, MmapOpts{Writable: true, THP: thp, Populate: true}); err != nil {
				t.Fatal(err)
			}
			if err := k.ReplicateVM(p, VMLayerBoth); err != nil {
				t.Fatal(err)
			}
			if got := p.GuestSpace().ReplicaNodes(); len(got) != 2 {
				t.Fatalf("guest tables on nodes %v, want both", got)
			}
			taken := 0
			for f, m := range frameStates(k) {
				if m.Kind != before[f].Kind {
					taken++
				}
			}
			k.DestroyProcess(p)
			// The nested tables: every root's tree, replicas included.
			nested := map[mem.FrameID]bool{}
			for s := numa.SocketID(0); int(s) < k.topo.Sockets(); s++ {
				root := vm.vm.NestedRootFor(s)
				nested[root] = true
				pt.NewTable(k.pm, root, vm.vm.NestedLevels()).VisitInterior(func(_ uint8, _ pt.EntryRef, e pt.PTE) bool {
					nested[e.Frame()] = true
					return true
				})
			}
			kept := 0
			for f, m := range frameStates(k) {
				switch {
				case m == before[f]:
				case !nested[mem.FrameID(f)]:
					t.Fatalf("frame %d went from %+v to %+v and is no nested-table page", f, before[f], m)
				default:
					kept++
				}
			}
			t.Logf("the process took %d frames; the VM kept %d nested-table pages", taken, kept)
			if kept == 0 || kept >= taken {
				t.Fatalf("the VM kept %d of the %d frames the process took", kept, taken)
			}
		})
	}
}

// TestVMProcessRejectsHostTableCalls: a process in a VM keeps its host
// page table empty, so replicating or migrating that table is refused with
// an error naming the process and the VM calls to use, and nothing moves.
func TestVMProcessRejectsHostTableCalls(t *testing.T) {
	k, p := virtFixture(t, false, 1)
	if _, err := k.Mmap(p, 16<<12, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	cores := slices.Clone(p.Cores())
	for name, call := range map[string]func() error{
		"SetReplicationMask": func() error { return p.SetReplicationMask([]numa.NodeID{0, 1}) },
		"MigratePT":          func() error { return k.MigratePT(p, 0, false) },
		"MigrateProcess":     func() error { return k.MigrateProcess(p, 1, MigrateOpts{Data: true, PageTables: true}) },
	} {
		err := call()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("process %d %q", p.PID, p.Name)) || !strings.Contains(err.Error(), "vm.replication") {
			t.Errorf("%s: err %v, want a refusal naming the process and vm.replication", name, err)
		}
	}
	if got := p.Space().ReplicaNodes(); !slices.Equal(got, []numa.NodeID{1}) {
		t.Errorf("host table on nodes %v, want [1]", got)
	}
	if got := p.ReplicaNodes(); !slices.Equal(got, []numa.NodeID{1}) {
		t.Errorf("guest and nested tables on nodes %v, want [1]", got)
	}
	if !slices.Equal(p.Cores(), cores) {
		t.Errorf("process moved to cores %v from %v", p.Cores(), cores)
	}
}
