package translate_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// TestSyscallsLeaveNoStaleTranslation checks the range shootdowns of
// mprotect and munmap on every backend. Two cores on two sockets store to
// every page of a populated region, so both cache writable translations.
// After mprotect(read-only) a store must fault on both cores, and after
// munmap any access must. The regions sit on each side of the 33-page
// full-flush threshold, mapped with 4 KB pages and with THP, by a native
// process and by one in a VM whose guest and nested tables are replicated
// on both sockets. The remask case unmaps while a core runs on another
// root than the one it cached the region under.
func TestSyscallsLeaveNoStaleTranslation(t *testing.T) {
	for _, backend := range []string{translate.BackendX8664, translate.BackendX8664LA57, translate.BackendVictima} {
		for _, size := range []pt.PageSize{pt.Size4K, pt.Size2M} {
			for _, pages := range []int{8, 64} {
				t.Run(fmt.Sprintf("%s/%dx%v", backend, pages, size), func(t *testing.T) {
					testSyscallShootdowns(t, backend, size, pages, false)
				})
				t.Run(fmt.Sprintf("%s/vm/%dx%v", backend, pages, size), func(t *testing.T) {
					if backend == translate.BackendX8664LA57 {
						t.Skip("a VM needs 4-level paging: its guest tables are 4-level")
					}
					testSyscallShootdowns(t, backend, size, pages, true)
				})
			}
		}
		t.Run(backend+"/remask", func(t *testing.T) {
			testShootdownAcrossRoots(t, backend)
		})
	}
}

// testShootdownAcrossRoots: a core on socket 1 reads 8 pages on the
// process's primary root. Replicating onto nodes 0 and 1 moves the core
// to its socket's replica, munmap runs there, and dropping the replica
// moves the core back to the primary root. A load of an unmapped page
// must then fault, not hit a translation cached under the primary.
func testShootdownAcrossRoots(t *testing.T, backend string) {
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(2, 1),
		FramesPerNode: 1 << 16,
		Hardware:      translate.Spec{Backend: backend},
	})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "remask", Home: 0, PTPolicy: kernel.PTFixed, PTNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Topology().FirstCoreOf(1)
	if err := k.RunOn(p, []numa.CoreID{c}); err != nil {
		t.Fatal(err)
	}
	const pages = 8
	base, err := k.Mmap(p, pages*pt.Size4K.Bytes(), kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	m := k.Machine()
	primary := m.ContextRoot(c)
	for i := range pages {
		if err := hwtest.Access(m, c, base+pt.VirtAddr(uint64(i)*pt.Size4K.Bytes()), false); err != nil {
			t.Fatalf("load of page %d: %v", i, err)
		}
	}
	if err := p.SetReplicationMask([]numa.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if m.ContextRoot(c) == primary {
		t.Fatal("replication did not move the core to its socket's replica")
	}
	if err := k.Munmap(p, base); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask(nil); err != nil {
		t.Fatal(err)
	}
	if m.ContextRoot(c) != primary {
		t.Fatalf("core runs on root %d after dropping the replica, want the primary %d", m.ContextRoot(c), primary)
	}
	for i := range pages {
		if err := hwtest.Access(m, c, base+pt.VirtAddr(uint64(i)*pt.Size4K.Bytes()), false); !errors.Is(err, hw.ErrSegfault) {
			t.Fatalf("load of unmapped page %d: err %v, want a fault", i, err)
		}
	}
}

func testSyscallShootdowns(t *testing.T, backend string, size pt.PageSize, pages int, inVM bool) {
	thp := size == pt.Size2M
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(2, 1),
		FramesPerNode: 1 << 16,
		Hardware:      translate.Spec{Backend: backend},
		THP:           thp,
	})
	opts := kernel.ProcessOpts{Name: "shootdown", Home: 0}
	if inVM {
		vm, err := k.CreateVM(0)
		if err != nil {
			t.Fatal(err)
		}
		opts.VM = vm
	}
	p, err := k.CreateProcess(opts)
	if err != nil {
		t.Fatal(err)
	}
	cores := []numa.CoreID{0, 1}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, uint64(pages)*size.Bytes(), kernel.MmapOpts{Writable: true, THP: thp, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	descend := p.Table().Descend
	if inVM {
		if err := k.ReplicateVM(p, kernel.VMLayerBoth); err != nil {
			t.Fatal(err)
		}
		if got := p.ReplicaNodes(); len(got) != 2 {
			t.Fatalf("guest and nested tables on nodes %v, want both", got)
		}
		descend = p.GuestSpace().Descend
	}
	if got, ok := descend(base).Mapped(); !ok || got != size {
		t.Fatalf("region mapped with %v pages (present %v), want %v", got, ok, size)
	}
	m := k.Machine()
	// each runs access on every page on every core and checks its outcome.
	each := func(what string, write, wantFault bool) {
		t.Helper()
		for _, c := range cores {
			for i := range pages {
				err := hwtest.Access(m, c, base+pt.VirtAddr(uint64(i)*size.Bytes()), write)
				ok := err == nil
				if wantFault {
					ok = errors.Is(err, hw.ErrSegfault)
				}
				if !ok {
					t.Fatalf("%s: core %d page %d: err %v, want fault %v", what, c, i, err, wantFault)
				}
			}
		}
	}
	each("store before mprotect", true, false)
	if err := k.Mprotect(p, base, false); err != nil {
		t.Fatal(err)
	}
	each("store after mprotect(ro)", true, true)
	each("load after mprotect(ro)", false, false)
	if err := k.Munmap(p, base); err != nil {
		t.Fatal(err)
	}
	each("load after munmap", false, true)
	each("store after munmap", true, true)
}
