package kernel

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/mem/memtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
)

func newTestKernel(t testing.TB) *Kernel {
	t.Helper()
	return New(testConfig())
}

// testConfig is the machine newTestKernel boots: 4 sockets of 2 cores,
// 64MB per node.
func testConfig() Config {
	return Config{Topology: numa.NewTopology(4, 2), FramesPerNode: 16384}
}

// newPooledKernel is newTestKernel with 64 page-table frames reserved per
// node, the reservation the facade boots with.
func newPooledKernel(t testing.TB) *Kernel {
	t.Helper()
	cfg := testConfig()
	cfg.PageCacheTarget = 64
	return New(cfg)
}

// newTHPKernel is newTestKernel with transparent huge pages on.
func newTHPKernel(t testing.TB) *Kernel {
	t.Helper()
	cfg := testConfig()
	cfg.THP = true
	return New(cfg)
}

func newProc(t testing.TB, k *Kernel, opts ProcessOpts) *Process {
	t.Helper()
	p, err := k.CreateProcess(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCreateProcessRootPlacement(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Name: "a", Home: 2})
	if got := k.pm.NodeOf(p.mapper.Root()); got != 2 {
		t.Errorf("root on node %d, want 2 (home socket)", got)
	}
	q := newProc(t, k, ProcessOpts{Name: "b", Home: 0, PTPolicy: PTFixed, PTNode: 3})
	if got := k.pm.NodeOf(q.mapper.Root()); got != 3 {
		t.Errorf("root on node %d, want 3 (fixed)", got)
	}
}

func TestMmapAndFault(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	// Demand paging: access faults the page in.
	if err := hwtest.Access(k.machine, p.Cores()[0], base+0x123, true); err != nil {
		t.Fatal(err)
	}
	leaf, size, ok := pttest.Lookup(p.Table(), base)
	if !ok || size != pt.Size4K {
		t.Fatalf("lookup after fault: ok=%v size=%v", ok, size)
	}
	// First-touch: data on the faulting socket's node.
	if got := k.pm.NodeOf(leaf.Frame()); got != 0 {
		t.Errorf("data on node %d, want 0", got)
	}
	s := k.machine.Stats(p.Cores()[0])
	if s.Faults != 1 {
		t.Errorf("faults = %d, want 1", s.Faults)
	}
	if s.FaultCycles == 0 {
		t.Error("no fault cycles charged")
	}
}

func TestFaultOutsideVMA(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	err := hwtest.Access(k.machine, p.Cores()[0], 0xdead000, false)
	if err == nil {
		t.Fatal("expected segfault")
	}
}

func TestWriteToReadOnly(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := hwtest.Access(k.machine, p.Cores()[0], base, true); err == nil {
		t.Fatal("expected permission fault")
	}
	// Reads still work.
	if err := hwtest.Access(k.machine, p.Cores()[0], base, false); err != nil {
		t.Fatal(err)
	}
}

func TestMmapPopulate(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 1})
	if err := k.RunOnSocket(p, 1); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 4<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every page is mapped; accesses take no faults.
	for off := uint64(0); off < 4<<20; off += 4096 {
		if _, _, ok := pttest.Lookup(p.Table(), base+pt.VirtAddr(off)); !ok {
			t.Fatalf("page at +%#x not populated", off)
		}
	}
	if err := hwtest.Access(k.machine, p.Cores()[0], base+0x5000, false); err != nil {
		t.Fatal(err)
	}
	if got := k.machine.Stats(p.Cores()[0]).Faults; got != 0 {
		t.Errorf("faults = %d, want 0 after populate", got)
	}
}

func TestInterleavePolicy(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0, DataPolicy: Interleave})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[numa.NodeID]int)
	for off := uint64(0); off < 1<<20; off += 4096 {
		leaf, _, ok := pttest.Lookup(p.Table(), base+pt.VirtAddr(off))
		if !ok {
			t.Fatal("unpopulated page")
		}
		counts[k.pm.NodeOf(leaf.Frame())]++
	}
	for n := numa.NodeID(0); n < 4; n++ {
		if counts[n] != 64 {
			t.Errorf("node %d got %d pages, want 64 (interleave)", n, counts[n])
		}
	}
}

func TestBindPolicy(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0, DataPolicy: Bind, BindNode: 3})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 1<<20; off += 4096 {
		leaf, _, _ := pttest.Lookup(p.Table(), base+pt.VirtAddr(off))
		if got := k.pm.NodeOf(leaf.Frame()); got != 3 {
			t.Fatalf("page on node %d, want 3", got)
		}
	}
}

func TestTHPAllocatesHugePages(t *testing.T) {
	k := newTHPKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, THP: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	leaf, size, ok := pttest.Lookup(p.Table(), base+0x300000)
	if !ok || size != pt.Size2M {
		t.Fatalf("lookup: ok=%v size=%v, want 2MB", ok, size)
	}
	if !leaf.Huge() {
		t.Error("PS bit missing")
	}
}

func TestTHPFallbackUnderFragmentation(t *testing.T) {
	k := newTHPKernel(t)
	// Fragment all nodes completely: no 2MB blocks anywhere.
	r := rand.New(rand.NewSource(7))
	for n := numa.NodeID(0); n < 4; n++ {
		k.pm.Fragment(n, 1.0, r)
	}
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 4<<20, MmapOpts{Writable: true, THP: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	_, size, ok := pttest.Lookup(p.Table(), base)
	if !ok || size != pt.Size4K {
		t.Fatalf("lookup: ok=%v size=%v, want 4KB fallback", ok, size)
	}
}

func TestMunmapFreesEverything(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	freeBefore := k.pm.FreeFrames(0)
	base, err := k.Mmap(p, 2<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Munmap(p, base); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := pttest.Lookup(p.Table(), base); ok {
		t.Error("translation survives munmap")
	}
	// Data frames returned (page-table pages may remain, as in Linux).
	freed := k.pm.FreeFrames(0)
	dataPages := uint64(2 << 20 / 4096)
	if freeBefore-freed >= dataPages {
		t.Errorf("data frames not freed: before=%d after=%d", freeBefore, freed)
	}
	// Accessing the unmapped region now segfaults.
	if err := hwtest.Access(k.machine, p.Cores()[0], base, false); err == nil {
		t.Error("access to unmapped region succeeded")
	}
}

func TestMprotect(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	core0 := p.Cores()[0]
	if err := hwtest.Access(k.machine, core0, base, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Mprotect(p, base, false); err != nil {
		t.Fatal(err)
	}
	// Writes now fault with a permission error.
	if err := hwtest.Access(k.machine, core0, base, true); err == nil {
		t.Error("write allowed after mprotect(PROT_READ)")
	}
}

func TestAutoNUMAMigratesDataNotPT(t *testing.T) {
	k := newTestKernel(t)
	// Process faults its memory from socket 0, then runs on socket 2.
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	ptOn0 := memtest.AllocatedPT(k.pm, 0)
	if err := k.RunOnSocket(p, 2); err != nil {
		t.Fatal(err)
	}
	// Accesses from socket 2 sample remote usage.
	c := p.Cores()[0]
	for off := uint64(0); off < 1<<20; off += 4096 {
		for i := 0; i < 5; i++ {
			if err := hwtest.Access(k.machine, c, base+pt.VirtAddr(off), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	migrated := k.AutoNUMAScan(p, DefaultAutoNUMAConfig())
	if migrated == 0 {
		t.Fatal("AutoNUMA migrated nothing")
	}
	// Data now on node 2.
	leaf, _, _ := pttest.Lookup(p.Table(), base)
	if got := k.pm.NodeOf(leaf.Frame()); got != 2 {
		t.Errorf("data on node %d after AutoNUMA, want 2", got)
	}
	// Page-tables did NOT move (the paper's key observation).
	if got := memtest.AllocatedPT(k.pm, 0); got != ptOn0 {
		t.Errorf("PT pages on node 0 changed: %d -> %d", ptOn0, got)
	}
	if got := memtest.AllocatedPT(k.pm, 2); got != 0 {
		t.Errorf("PT pages appeared on node 2: %d", got)
	}
}

func TestMigrateProcessWithMitosisPT(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MigrateProcess(p, 3, MigrateOpts{Data: true, PageTables: true}); err != nil {
		t.Fatal(err)
	}
	if got := p.home; got != 3 {
		t.Errorf("home = %d, want 3", got)
	}
	if got := k.pm.NodeOf(p.mapper.Root()); got != 3 {
		t.Errorf("root on node %d, want 3", got)
	}
	if got := memtest.AllocatedPT(k.pm, 0); got != 0 {
		t.Errorf("origin keeps %d PT pages", got)
	}
	leaf, _, ok := pttest.Lookup(p.Table(), base)
	if !ok {
		t.Fatal("translation lost in migration")
	}
	if got := k.pm.NodeOf(leaf.Frame()); got != 3 {
		t.Errorf("data on node %d, want 3", got)
	}
	// The core runs with the migrated table.
	if err := hwtest.Access(k.machine, p.Cores()[0], base, true); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationViaMask(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	nodes := p.Space().ReplicaNodes()
	if len(nodes) != 3 {
		t.Errorf("replica nodes = %v, want [0 1 2]", nodes)
	}
	// Each scheduled core got its local root.
	for _, c := range p.Cores() {
		root := k.machine.ContextRoot(c)
		if got := k.pm.NodeOf(root); got != 0 {
			t.Errorf("core %d CR3 on node %d, want 0", c, got)
		}
	}
}

func TestReplicatedProcessRunsEverywhere(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOn(p, everyCore(k)); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Space().ReplicaNodes()); got != 4 {
		t.Fatalf("replica nodes = %d, want 4", got)
	}
	// Every socket's core uses its local replica and can access memory.
	for s := numa.SocketID(0); s < 4; s++ {
		c := k.topo.FirstCoreOf(s)
		root := k.machine.ContextRoot(c)
		if got := k.pm.NodeOf(root); got != k.topo.NodeOf(s) {
			t.Errorf("socket %d CR3 on node %d", s, got)
		}
		if err := hwtest.Access(k.machine, c, base+pt.VirtAddr(uint64(s)*4096), true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDestroyProcessLeaksNothing(t *testing.T) {
	k := newTestKernel(t)
	var before [4]uint64
	for n := 0; n < 4; n++ {
		before[n] = k.pm.FreeFrames(numa.NodeID(n))
	}
	p := newProc(t, k, ProcessOpts{Home: 1})
	if err := k.RunOnSocket(p, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 4<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	k.DestroyProcess(p)
	for n := 0; n < 4; n++ {
		if got := k.pm.FreeFrames(numa.NodeID(n)); got != before[n] {
			t.Errorf("node %d leaked %d frames", n, before[n]-got)
		}
	}
	if k.Process(p.PID) != nil {
		t.Error("process still registered")
	}
}

func TestMunmapBadAddress(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.Munmap(p, 0xdead000); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
}

// TestBootConfigSurvivesReset: the kernel boots with its THP setting and
// page-cache reservation, and Reset restores both: it refills the pool
// after wiping memory, so the machine matches a fresh boot. A zero config
// reserves nothing.
func TestBootConfigSurvivesReset(t *testing.T) {
	cfg := testConfig()
	cfg.THP = true
	cfg.PageCacheTarget = 8
	k := New(cfg)
	fresh := New(cfg)
	check := func(when string) {
		t.Helper()
		if !k.THP() {
			t.Errorf("%s: THP off, want on", when)
		}
		for n := numa.NodeID(0); int(n) < k.topo.Nodes(); n++ {
			if got := k.cache.Cached(n); got != 8 {
				t.Errorf("%s: node %d reserves %d frames, want 8", when, n, got)
			}
			if got, want := k.pm.FreeFrames(n), fresh.pm.FreeFrames(n); got != want {
				t.Errorf("%s: node %d has %d free frames, a fresh boot %d", when, n, got, want)
			}
		}
	}
	check("boot")

	// A run that takes page-table frames from every node's pool.
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOn(p, everyCore(k)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 4<<20, MmapOpts{Writable: true, THP: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := k.cache.Cached(3); got == 8 {
		t.Fatal("the run took no frame from node 3's pool")
	}
	k.Reset()
	check("after Reset")

	zero := newTestKernel(t)
	if zero.THP() {
		t.Error("zero config: THP on, want off")
	}
	for n := numa.NodeID(0); int(n) < zero.topo.Nodes(); n++ {
		if got := zero.cache.Cached(n); got != 0 {
			t.Errorf("zero config: node %d reserves %d frames, want 0", n, got)
		}
	}
}

func TestFixedNodePTPolicy(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0, PTPolicy: PTFixed, PTNode: 2})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = base
	// All PT pages on node 2, none elsewhere.
	if memtest.AllocatedPT(k.pm, 2) == 0 {
		t.Error("no PT pages on fixed node")
	}
	for _, n := range []numa.NodeID{0, 1, 3} {
		if got := memtest.AllocatedPT(k.pm, n); got != 0 {
			t.Errorf("PT pages on node %d: %d, want 0", n, got)
		}
	}
}

// everyCore lists every core of the machine, for RunOn.
func everyCore(k *Kernel) []numa.CoreID {
	cores := make([]numa.CoreID, k.topo.Cores())
	for i := range cores {
		cores[i] = numa.CoreID(i)
	}
	return cores
}
