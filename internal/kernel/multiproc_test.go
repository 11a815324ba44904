package kernel

import (
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
)

func TestTwoProcessesIsolated(t *testing.T) {
	k := newTestKernel(t)
	a := newProc(t, k, ProcessOpts{Name: "a", Home: 0})
	b := newProc(t, k, ProcessOpts{Name: "b", Home: 1})
	if err := k.RunOnSocket(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.RunOnSocket(b, 1); err != nil {
		t.Fatal(err)
	}
	baseA, err := k.Mmap(a, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := k.Mmap(b, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same virtual addresses, different translations: address spaces are
	// isolated.
	if baseA != baseB {
		t.Fatalf("mmap bases differ (%#x vs %#x); expected identical layout", uint64(baseA), uint64(baseB))
	}
	la, _, okA := pttest.Lookup(a.Table(), baseA)
	lb, _, okB := pttest.Lookup(b.Table(), baseB)
	if !okA || !okB {
		t.Fatal("lookups failed")
	}
	if la.Frame() == lb.Frame() {
		t.Error("two processes share a data frame")
	}
	// Each core accesses its own process's memory.
	if err := hwtest.Access(k.machine, a.Cores()[0], baseA, true); err != nil {
		t.Fatal(err)
	}
	if err := hwtest.Access(k.machine, b.Cores()[0], baseB, true); err != nil {
		t.Fatal(err)
	}
}

func TestCoreConflictRejected(t *testing.T) {
	k := newTestKernel(t)
	a := newProc(t, k, ProcessOpts{Home: 0})
	b := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.RunOnSocket(b, 0); err == nil {
		t.Fatal("two processes scheduled on the same cores")
	}
	// After descheduling a, b can run there.
	k.Deschedule(a)
	if err := k.RunOnSocket(b, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationBlockedByBusyTarget(t *testing.T) {
	k := newTestKernel(t)
	a := newProc(t, k, ProcessOpts{Home: 0})
	b := newProc(t, k, ProcessOpts{Home: 1})
	if err := k.RunOnSocket(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.RunOnSocket(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.MigrateProcess(a, 1, MigrateOpts{}); err == nil {
		t.Fatal("migration onto busy socket succeeded")
	}
	// a is still runnable where it was.
	if err := k.RunOnSocket(a, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPerProcessReplicationIndependent(t *testing.T) {
	k := newTestKernel(t)
	a := newProc(t, k, ProcessOpts{Name: "repl", Home: 0})
	b := newProc(t, k, ProcessOpts{Name: "plain", Home: 1})
	if err := k.RunOnSocket(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.RunOnSocket(b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(a, 1<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(b, 1<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !a.Space().Replicated() {
		t.Error("a not replicated")
	}
	if b.Space().Replicated() {
		t.Error("b replicated without asking")
	}
	// Destroying the replicated process does not disturb the other.
	k.DestroyProcess(a)
	base := b.vmas[0].Start
	if err := hwtest.Access(k.machine, b.Cores()[0], base, true); err != nil {
		t.Fatal(err)
	}
}

func TestContextSwitchBetweenProcesses(t *testing.T) {
	k := newTestKernel(t)
	a := newProc(t, k, ProcessOpts{Name: "a", Home: 0})
	b := newProc(t, k, ProcessOpts{Name: "b", Home: 0})
	if err := k.RunOn(a, []numa.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	baseA, err := k.Mmap(a, 1<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := hwtest.Access(k.machine, 0, baseA, true); err != nil {
		t.Fatal(err)
	}
	// Switch the core to b: the TLB flush must prevent a's stale
	// translations from leaking into b's address space.
	k.Deschedule(a)
	if err := k.RunOn(b, []numa.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	baseB, err := k.Mmap(b, 1<<20, MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := hwtest.Access(k.machine, 0, baseB, true); err != nil {
		t.Fatal(err)
	}
	lb, _, ok := pttest.Lookup(b.Table(), baseB)
	if !ok {
		t.Fatal("b's fault did not map")
	}
	la, _, _ := pttest.Lookup(a.Table(), baseA)
	if la.Frame() == lb.Frame() {
		t.Error("processes share a frame after context switch")
	}
	if got := k.CurrentOn(0); got != b {
		t.Errorf("CurrentOn(0) = %v, want b", got)
	}
}

func TestMmapAtOverlapPanics(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("overlapping MAP_FIXED did not panic")
		}
	}()
	_, _ = k.Mmap(p, 4096, MmapOpts{Writable: true, At: base + 0x1000})
}

func TestMmapAtUnalignedRejected(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if _, err := k.Mmap(p, 4096, MmapOpts{At: pt.VirtAddr(0x123)}); err == nil {
		t.Fatal("unaligned MAP_FIXED accepted")
	}
}
