package core

import (
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem/memtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

func TestIncrementalReplicationCompletes(t *testing.T) {
	fx := newFixture(t, 0)
	var vas []pt.VirtAddr
	for i := 0; i < 100; i++ {
		va := pt.VirtAddr(uint64(i) * 0x40201000)
		fx.mapPage(t, va, 0)
		vas = append(vas, va)
	}
	ir, err := fx.space.StartIncrementalReplication(fx.ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := ir.Step(fx.ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
		if steps > 1000 {
			t.Fatal("incremental replication never completed")
		}
	}
	if steps < 2 {
		t.Errorf("completed in %d steps; batching had no effect", steps)
	}
	ir.Finish()

	if got := fx.space.Mask(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("mask = %v, want [2]", got)
	}
	root := fx.space.RootFor(2)
	if fx.pm.NodeOf(root) != 2 {
		t.Fatalf("RootFor(2) on node %d", fx.pm.NodeOf(root))
	}
	// The finished replica translates everything identically and is fully
	// local.
	assertEquivalent(t, fx, vas)
	assertIndependent(t, fx)
}

func TestIncrementalReplicaCorrectWhilePartial(t *testing.T) {
	fx := newFixture(t, 0)
	var vas []pt.VirtAddr
	for i := 0; i < 60; i++ {
		va := pt.VirtAddr(uint64(i) * 0x40201000)
		fx.mapPage(t, va, 0)
		vas = append(vas, va)
	}
	ir, err := fx.space.StartIncrementalReplication(fx.ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One small step: the replica root exists but most children are
	// uncopied.
	if done, err := ir.Step(fx.ctx, 2); err != nil || done {
		t.Fatalf("step: done=%v err=%v", done, err)
	}
	root, ok := ringMemberOn(fx.pm, fx.mp.Root(), 1)
	if !ok {
		t.Fatal("no partial replica root on node 1")
	}
	// The partial tree must already translate every address correctly
	// (through remote pointers into the primary).
	tbl := pt.NewTable(fx.pm, root, 4)
	for _, va := range vas {
		pe, _, pok := pttest.Lookup(fx.mp.Table(), va)
		re, _, rok := pttest.Lookup(tbl, va)
		if pok != rok || (pok && pe.Frame() != re.Frame()) {
			t.Fatalf("partial replica mistranslates %#x", uint64(va))
		}
	}
}

func TestIncrementalSweepCatchesConcurrentMappings(t *testing.T) {
	fx := newFixture(t, 0)
	for i := 0; i < 30; i++ {
		fx.mapPage(t, pt.VirtAddr(uint64(i)*0x40201000), 0)
	}
	ir, err := fx.space.StartIncrementalReplication(fx.ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave copying with new mappings that create page-table pages
	// the initial queue never saw.
	extra := []pt.VirtAddr{0x7000001000, 0x7100001000, 0x7200001000}
	step := 0
	for {
		done, err := ir.Step(fx.ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		if step < len(extra) {
			fx.mapPage(t, extra[step], 0)
			step++
		}
		if done {
			break
		}
	}
	ir.Finish()

	root := fx.space.RootFor(3)
	tbl := pt.NewTable(fx.pm, root, 4)
	for _, va := range extra {
		if _, _, ok := pttest.Lookup(tbl, va); !ok {
			t.Errorf("replica missing concurrent mapping %#x", uint64(va))
		}
	}
	// Completed replica is fully local.
	tbl.Visit(func(level uint8, ref pt.EntryRef, e pt.PTE) bool {
		if level > 1 && !e.Huge() {
			if fx.pm.NodeOf(e.Frame()) != 3 {
				t.Errorf("interior pointer to node %d after completion", fx.pm.NodeOf(e.Frame()))
			}
		}
		return true
	})
}

func TestIncrementalOnExistingReplicaIsDone(t *testing.T) {
	fx := newFixture(t, 0)
	fx.mapPage(t, 0x1000, 0)
	if err := fx.space.SetMask(fx.ctx, []numa.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	ir, err := fx.space.StartIncrementalReplication(fx.ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Done() {
		t.Error("job not done despite existing replica")
	}
}

func TestIncrementalBillsBackgroundContext(t *testing.T) {
	fx := newFixture(t, 0)
	for i := 0; i < 50; i++ {
		fx.mapPage(t, pt.VirtAddr(uint64(i)*0x201000), 0)
	}
	bg := &pvops.Meter{}
	bgCtx := &pvops.OpCtx{Meter: bg}
	ir, err := fx.space.StartIncrementalReplication(bgCtx, 3)
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := ir.Step(bgCtx, 4)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if bg.Cycles == 0 {
		t.Errorf("background meter empty: %+v", bg)
	}
	if memtest.AllocatedPT(fx.pm, 3) == 0 {
		t.Error("no replica pages on node 3")
	}
}
