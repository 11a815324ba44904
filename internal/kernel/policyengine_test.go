package kernel

import (
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/mem/memtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// policyProc builds a process on one core of socket with its page-table
// pages forced onto ptNode and an 8MB populated region under dataPolicy.
func policyProc(t *testing.T, k *Kernel, socket numa.SocketID, ptNode, bindNode numa.NodeID, data DataPolicy) (*Process, pt.VirtAddr) {
	t.Helper()
	p := newProc(t, k, ProcessOpts{
		Name: "pol", Home: socket,
		DataPolicy: data, BindNode: bindNode,
		PTPolicy: PTFixed, PTNode: ptNode,
	})
	if err := k.RunOn(p, []numa.CoreID{k.topo.FirstCoreOf(socket)}); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	return p, base
}

// tickRounds drives rounds of page-sweeping access batches with a policy
// tick after each, mimicking the workload engine's barrier cadence.
func tickRounds(t *testing.T, k *Kernel, p *Process, eng *PolicyEngine, base pt.VirtAddr, rounds int) {
	t.Helper()
	const chunk = 256
	core0 := p.Cores()[0]
	ops := make([]hw.AccessOp, chunk)
	va := base
	for r := 1; r <= rounds; r++ {
		for i := range ops {
			ops[i] = hw.AccessOp{VA: va, Write: true}
			va += 4096
			if va >= base+8<<20 {
				va = base
			}
		}
		if err := k.Machine().AccessBatch(core0, ops); err != nil {
			t.Fatal(err)
		}
		k.Machine().DrainCoherence([]numa.CoreID{core0})
		if err := eng.Tick(r); err != nil {
			t.Fatal(err)
		}
		core0 = p.Cores()[0] // a tick may migrate the process
	}
}

func TestPolicyEngineOnDemandReplicatesAndDeprecates(t *testing.T) {
	k := newPooledKernel(t)
	// Threads on socket 2, table stranded on node 0: remote walks.
	p, base := policyProc(t, k, 2, 0, 0, FirstTouch)
	odCfg := core.DefaultOnDemandConfig()
	odCfg.ColdTicks = 3
	eng := k.AttachPolicy(p, core.NewOnDemand(odCfg), PolicyEngineConfig{StepPages: 8})
	if p.policyEngine != eng {
		t.Fatal("engine not registered with process")
	}

	tickRounds(t, k, p, eng, base, 12)
	if !slices.Contains(p.Space().ReplicaNodes(), 2) {
		t.Fatalf("no replica on node 2 after hot ticks; nodes %v, log %v",
			p.Space().ReplicaNodes(), eng.ActionLog())
	}
	var sawReplicate bool
	for _, rec := range eng.ActionLog() {
		if a := rec.Action.(core.Action); a.Kind == core.ActionReplicate && a.Node == 2 {
			sawReplicate = true
		}
	}
	if !sawReplicate {
		t.Errorf("action log %v missing replicate->node2", eng.ActionLog())
	}
	if eng.BackgroundCycles() == 0 {
		t.Error("incremental copy did no metered background work")
	}

	// The process goes idle: the replica goes cold and is deprecated.
	for r := 13; r <= 20; r++ {
		if err := eng.Tick(r); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Contains(p.Space().Mask(), 2) {
		t.Errorf("cold replica on node 2 survived idle ticks; log %v", eng.ActionLog())
	}
	var sawDrop bool
	for _, rec := range eng.ActionLog() {
		if a := rec.Action.(core.Action); a.Kind == core.ActionDrop && a.Node == 2 {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Errorf("action log %v missing drop->node2", eng.ActionLog())
	}
	// Timeline tracked the build-up and the deprecation, as change points
	// stamped with the rounds of the ticks that saw them.
	tl := eng.ReplicaTimeline()
	if len(tl) < 3 || tl[0] != (ReplicaChange{Round: 1, Replicas: 1}) {
		t.Fatalf("timeline %v: want the first tick's single copy, a rise and a fall", tl)
	}
	peak := 0
	for i, c := range tl {
		if c.Round > 20 || i > 0 && (c.Round <= tl[i-1].Round || c.Replicas == tl[i-1].Replicas) {
			t.Errorf("timeline %v: entry %d is not a change point of ticks 1-20", tl, i)
		}
		peak = max(peak, c.Replicas)
	}
	if peak < 2 || tl[len(tl)-1].Replicas != 1 {
		t.Errorf("timeline %v: want a rise to >=2 copies and a return to 1", tl)
	}
}

func TestPolicyEngineCostAdaptiveMigratesThreads(t *testing.T) {
	k := newPooledKernel(t)
	// Threads on socket 2; table AND data on node 0: migrating the threads
	// back is cheaper than copying the table next to remote data.
	p, base := policyProc(t, k, 2, 0, 0, Bind)
	eng := k.AttachPolicy(p, core.NewCostAdaptive(core.DefaultCostAdaptiveConfig(), k.cost), PolicyEngineConfig{})

	tickRounds(t, k, p, eng, base, 8)
	if got := k.topo.SocketOf(p.Cores()[0]); got != 0 {
		t.Fatalf("process on socket %d after ticks, want 0 (migrated); log %v", got, eng.ActionLog())
	}
	var sawMigrate bool
	for _, rec := range eng.ActionLog() {
		if a := rec.Action.(core.Action); a.Kind == core.ActionMigrate && a.Socket == 0 {
			sawMigrate = true
		}
	}
	if !sawMigrate {
		t.Errorf("action log %v missing migrate->socket0", eng.ActionLog())
	}
	if p.Space().Replicated() {
		t.Errorf("cost model replicated (%v) where migration sufficed", p.Space().Mask())
	}
}

func TestDropReplica(t *testing.T) {
	k := newPooledKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 4<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	before := memtest.AllocatedPT(k.pm, 2) // page-cache reservation baseline
	if err := p.SetReplicationMask([]numa.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	dropped, err := k.DropReplica(p, 2)
	if err != nil || !dropped {
		t.Fatalf("DropReplica(2) = %v, %v", dropped, err)
	}
	if got := p.Space().Mask(); !slices.Equal(got, []numa.NodeID{1}) {
		t.Errorf("mask after drop = %v, want [1]", got)
	}
	if got := memtest.AllocatedPT(k.pm, 2); got != before {
		t.Errorf("node 2 keeps %d PT pages after drop, want %d (reservation only)", got, before)
	}
	// Dropping a node without a replica (or the primary) is a no-op.
	for _, n := range []numa.NodeID{0, 3} {
		if dropped, err := k.DropReplica(p, n); err != nil || dropped {
			t.Errorf("DropReplica(%d) = %v, %v; want no-op", n, dropped, err)
		}
	}
}
