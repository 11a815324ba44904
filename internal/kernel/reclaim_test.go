package kernel

import (
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/mem/memtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

func TestReclaimReplicasFreesMemory(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	replicaPT := memtest.AllocatedPT(k.pm, 1) + memtest.AllocatedPT(k.pm, 2) + memtest.AllocatedPT(k.pm, 3)
	if replicaPT == 0 {
		t.Fatal("no replica pages created")
	}
	freed := k.ReclaimReplicas()
	if freed == 0 {
		t.Fatal("reclaim freed nothing")
	}
	if p.Space().Replicated() {
		t.Error("process still replicated after reclaim")
	}
	for _, n := range []numa.NodeID{1, 2, 3} {
		if got := memtest.AllocatedPT(k.pm, n); got != 0 {
			t.Errorf("node %d keeps %d PT pages after reclaim", n, got)
		}
	}
	// The process still runs correctly on the single table.
	if err := hwtest.Access(k.machine, p.Cores()[0], p.vmas[0].Start, true); err != nil {
		t.Fatal(err)
	}
}

func TestOOMFaultTriggersReclaim(t *testing.T) {
	k := New(Config{Topology: numa.NewTopology(2, 1), FramesPerNode: 2048})
	victim := newProc(t, k, ProcessOpts{Name: "victim", Home: 0})
	if err := k.RunOn(victim, []numa.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	// The victim maps a small region replicated on both nodes.
	if _, err := k.Mmap(victim, 1<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := victim.SetReplicationMask([]numa.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}

	// A hungry process consumes everything that's left. Faults beyond the
	// free-frame budget (data plus fresh page-table pages) succeed only
	// because the kernel reclaims the victim's replicas.
	hungry := newProc(t, k, ProcessOpts{Name: "hungry", Home: 1})
	if err := k.RunOn(hungry, []numa.CoreID{1}); err != nil {
		t.Fatal(err)
	}
	free := k.pm.FreeFrames(0) + k.pm.FreeFrames(1)
	size := (free + 64) * 4096 // deliberately more than exists
	base, err := k.Mmap(hungry, size, MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	faulted := uint64(0)
	for off := uint64(0); off < size; off += 4096 {
		if err := hwtest.Access(k.machine, 1, base+pt.VirtAddr(off), true); err != nil {
			break // genuine OOM once nothing is left to reclaim
		}
		faulted++
	}
	if victim.Space().Replicated() {
		t.Error("victim keeps replicas despite memory pressure")
	}
	// Progress must have continued past the point where page-table pages
	// exhausted the free budget — only reclaim makes that possible.
	ptOverhead := free/512 + 8
	if faulted+ptOverhead <= free {
		t.Errorf("faulted only %d of %d free frames; reclaim never helped", faulted, free)
	}
	// And memory really is exhausted now.
	if got := k.pm.FreeFrames(0) + k.pm.FreeFrames(1); got != 0 {
		t.Errorf("%d frames still free after OOM loop", got)
	}
}

// TestReclaimSkipsMidIncrementalReplication: a process with an unfinished
// incremental replication is a busy replica holder — collapsing its rings
// would free pages the copy job still references.
func TestReclaimSkipsMidIncrementalReplication(t *testing.T) {
	k := newPooledKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	ir, bgCtx, err := k.StartBackgroundReplication(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Step(bgCtx, 2); err != nil { // partial copy in flight
		t.Fatal(err)
	}
	if !k.replicaHolderBusy(p, nil) {
		t.Fatal("process not busy while mid-incremental-replication")
	}
	k.ReclaimReplicas()
	if !p.Space().Replicated() {
		t.Fatal("reclaim collapsed replicas under an in-flight incremental copy")
	}
	// Finishing unpins the process; reclaim may now take everything.
	for {
		done, err := ir.Step(bgCtx, 64)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	k.FinishBackgroundReplication(p, ir)
	if k.replicaHolderBusy(p, nil) {
		t.Fatal("process still busy after finish")
	}
	k.ReclaimReplicas()
	if p.Space().Replicated() {
		t.Errorf("replicas survived reclaim after finish: %v", p.Space().Mask())
	}
}

// TestAbortBackgroundReplicationUnpins: aborting a copy tears down the
// partial replica and releases the reclaim pin.
func TestAbortBackgroundReplicationUnpins(t *testing.T) {
	k := newPooledKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	baseline := memtest.AllocatedPT(k.pm, 3)
	ir, bgCtx, err := k.StartBackgroundReplication(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Step(bgCtx, 2); err != nil {
		t.Fatal(err)
	}
	if !k.replicaHolderBusy(p, nil) {
		t.Fatal("not pinned while copy in flight")
	}
	k.AbortBackgroundReplication(p, ir, bgCtx)
	if k.replicaHolderBusy(p, nil) {
		t.Error("still pinned after abort")
	}
	if got := memtest.AllocatedPT(k.pm, 3); got != baseline {
		t.Errorf("partial replica leaked: node 3 has %d PT pages, want %d", got, baseline)
	}
	if slices.Contains(p.Space().Mask(), 3) {
		t.Errorf("aborted node joined the mask: %v", p.Space().Mask())
	}
}

// TestReclaimConsultsPolicy: with a policy engine attached, memory
// pressure tears down only the replicas the policy volunteers.
func TestReclaimConsultsPolicy(t *testing.T) {
	k := newPooledKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Prime the policy: socket 1 walking hard (hot replica), socket 2 idle
	// (cold for one tick) — exactly what a tick after the last run would
	// have recorded.
	pol := core.NewOnDemand(core.DefaultOnDemandConfig())
	tl := &core.Telemetry{
		PrimaryNode: 0, Mask: []numa.NodeID{1, 2},
		Sockets: make([]core.SocketSample, 4),
	}
	for i := range tl.Sockets {
		tl.Sockets[i].Node = numa.NodeID(i)
	}
	tl.Sockets[1].Walks = 1000
	pol.Decide(tl)
	k.AttachPolicy(p, pol, PolicyEngineConfig{})

	k.ReclaimReplicas()
	if got := p.Space().Mask(); !slices.Equal(got, []numa.NodeID{1}) {
		t.Errorf("mask after policy-mediated reclaim = %v, want [1] (hot kept, cold taken)", got)
	}
}

func TestBackgroundReplicationKernelFlow(t *testing.T) {
	k := newTestKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOn(p, everyCore(k)); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	ir, bgCtx, err := k.StartBackgroundReplication(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	appCore := p.Cores()[0]
	appBefore := k.machine.Stats(appCore).Cycles
	for {
		done, err := ir.Step(bgCtx, 4)
		if err != nil {
			t.Fatal(err)
		}
		// The app keeps making progress while the copy runs.
		if err := hwtest.Access(k.machine, appCore, base, false); err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	// Background work cost cycles — on the background meter, not the app.
	if bgCtx.Meter.Cycles == 0 {
		t.Error("background meter empty")
	}
	appCost := k.machine.Stats(appCore).Cycles - appBefore
	if appCost > numa.Cycles(uint64(bgCtx.Meter.Cycles)) && bgCtx.Meter.Cycles > 0 {
		// The app paid only for its own accesses; sanity bound only.
		t.Logf("app %d vs bg %d cycles", appCost, bgCtx.Meter.Cycles)
	}
	k.FinishBackgroundReplication(p, ir)
	// Socket 2's core now runs on its local replica root.
	c2 := k.topo.FirstCoreOf(2)
	if got := k.pm.NodeOf(k.machine.ContextRoot(c2)); got != 2 {
		t.Errorf("socket 2 CR3 on node %d after finish, want 2", got)
	}
	if err := hwtest.Access(k.machine, c2, base, true); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundReplicationOfSpreadTableReloadsCR3: first touch from two
// sockets spreads an unreplicated table over their nodes, so starting a
// background replica first rebuilds the primary on a new root and frees
// the old table pages. The process's cores must then run on the new root:
// walking from the freed one reads a frame that holds no table.
func TestBackgroundReplicationOfSpreadTableReloadsCR3(t *testing.T) {
	k := newPooledKernel(t)
	p := newProc(t, k, ProcessOpts{Home: 0})
	cores := []numa.CoreID{k.topo.FirstCoreOf(0), k.topo.FirstCoreOf(1)}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	const size = 8 << 20
	base, err := k.Mmap(p, size, MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	var vas []pt.VirtAddr
	for off := pt.VirtAddr(0); off < size; off += pt.VirtAddr(pt.Size4K.Bytes()) {
		vas = append(vas, base+off)
	}
	half := len(vas) / 2
	for i, va := range vas {
		if err := hwtest.Access(k.machine, cores[i/half], va, true); err != nil {
			t.Fatal(err)
		}
	}
	nodes := map[numa.NodeID]bool{}
	p.Table().VisitInterior(func(_ uint8, _ pt.EntryRef, e pt.PTE) bool {
		nodes[k.pm.NodeOf(e.Frame())] = true
		return true
	})
	if !nodes[0] || !nodes[1] {
		t.Fatalf("table pages on nodes %v, want nodes 0 and 1", nodes)
	}
	oldRoot := p.mapper.Root()
	ir, bgCtx, err := k.StartBackgroundReplication(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.mapper.Root() == oldRoot {
		t.Fatal("starting the replica did not rebuild the spread table")
	}
	for _, c := range cores {
		if got, want := k.machine.ContextRoot(c), p.space.RootFor(k.topo.SocketOf(c)); got != want {
			t.Errorf("core %d CR3 = %d after the start, want the new root %d", c, got, want)
		}
	}
	k.machine.ShootdownRange(cores[0], vas, cores)
	for i, va := range vas {
		if err := hwtest.Access(k.machine, cores[i/half], va, false); err != nil {
			t.Fatal(err)
		}
	}
	for done := false; !done; {
		if done, err = ir.Step(bgCtx, 64); err != nil {
			t.Fatal(err)
		}
	}
	k.FinishBackgroundReplication(p, ir)
}

// TestReclaimFaultCoreIsPerProcess: the faulting-core exemption reclaim
// grants a caller must cover exactly the caller's own fault. Before the
// fault path was sharded per process the kernel kept one machine-wide
// "currently faulting core" slot, so one process's in-flight fault could
// exempt a busy core while reclaim ran on behalf of a *different* process
// — collapsing replicas under a walker. faultCore is now per-process
// state guarded by that process's fault lock; this pins the semantics.
func TestReclaimFaultCoreIsPerProcess(t *testing.T) {
	k := newTestKernel(t)
	a := newProc(t, k, ProcessOpts{Name: "a", Home: 0})
	b := newProc(t, k, ProcessOpts{Name: "b", Home: 1})
	for i, pr := range []*Process{a, b} {
		if err := k.RunOnSocket(pr, numa.SocketID(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Mmap(pr, 4<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetReplicationMask([]numa.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetReplicationMask([]numa.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}

	// One core of each process is mid-batch, as during concurrent faults.
	coreA, coreB := a.Cores()[0], b.Cores()[0]
	busy := []numa.CoreID{coreA, coreB}
	k.machine.BeginConcurrent(busy)

	// a is mid-fault on coreA: the handler records the core under a's
	// fault lock before reaching the allocator, exactly as HandleFault
	// does on the path that leads into reclaim.
	a.faultLock.Lock()
	a.faultCore = coreA
	if k.replicaHolderBusy(a, a) {
		t.Error("caller's own faulting core not exempt from the busy check")
	}
	if !k.replicaHolderBusy(b, a) {
		t.Error("another process's busy core must pin its replicas — the exemption leaked across processes")
	}
	if k.reclaimReplicas(a) == 0 {
		t.Error("self-reclaim freed nothing despite the caller's collapsible replicas")
	}
	if a.Space().Replicated() {
		t.Error("caller's replicas survived reclaim from its own fault path")
	}
	if !b.Space().Replicated() {
		t.Error("reclaim collapsed replicas under a process with a busy core")
	}
	a.faultCore = -1
	a.faultLock.Unlock()
	k.machine.EndConcurrent(busy)

	// With all cores quiescent, a victim whose fault lock is contended
	// (its fault path is between the busy-check window and completion) is
	// skipped rather than blocked on — and is reclaimed normally once the
	// lock frees.
	b.faultLock.Lock()
	k.ReclaimReplicas()
	if !b.Space().Replicated() {
		t.Error("reclaim collapsed a victim whose fault lock was held")
	}
	b.faultLock.Unlock()
	k.ReclaimReplicas()
	if b.Space().Replicated() {
		t.Error("replicas survived reclaim at quiescence")
	}
}
