package kernel

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// ReclaimReplicas tears down page-table replicas to free memory — the
// paper's §5.5: kept replicas are "lazily deallocated in case physical
// memory is becoming scarce". Replicas are pure caches of the primary
// table, so dropping them is always safe for a quiescent process;
// affected processes fall back to walking the primary remotely until
// replication is re-enabled. It returns the number of frames freed.
//
// When invoked from the concurrent fault path, processes with a core
// mid-batch (other than the caller's own faulting core) are skipped:
// collapsing them would free replica pages their walkers may still hold
// pointers into, and reloading their CR3s would race with the running
// batches. A real kernel would quiesce those CPUs with IPIs; the simulator
// instead leaves such replicas in place and lets the allocation fail if
// nothing else is reclaimable. Processes mid-incremental-replication are
// skipped for the same structural reason: the copy job holds references
// into the rings a collapse would free.
//
// A process with an attached replication-policy engine is reclaimed on the
// policy's terms: only the replica nodes its ReclaimAdvisor volunteers are
// torn down (hot replicas survive). Processes without a policy keep the
// legacy behaviour — every idle replica goes.
func (k *Kernel) ReclaimReplicas() uint64 {
	return k.reclaimReplicas(nil)
}

// reclaimReplicas is the implementation behind ReclaimReplicas. caller is
// the process on whose behalf memory is being allocated (nil when invoked
// directly at quiescence): its own faulting core is exempt from the busy
// check, and its own fault lock — already held when we arrive from the
// fault path — is never re-acquired.
//
// With the fault path sharded per process, reclaim is the one remaining
// cross-process writer: it serializes globally on reclaimMu (two
// concurrent OOM faults must not collapse the same victim twice), and
// before touching another process's space it must exclude that process's
// own fault path. It does so with TryLock on the victim's fault lock:
// blocking there could deadlock (the victim might be in *its* fault path
// waiting on the same allocator this reclaim is trying to refill), so a
// victim whose lock is contended is simply skipped — its replicas count as
// pinned, exactly like a victim with a busy core. At quiescence the
// TryLock always succeeds, so single-process scenarios and all committed
// benchmark records behave bit-identically to the pre-sharding design.
func (k *Kernel) reclaimReplicas(caller *Process) uint64 {
	k.reclaimMu.Lock()
	defer k.reclaimMu.Unlock()
	var before uint64
	for n := 0; n < k.topo.Nodes(); n++ {
		before += k.pm.FreeFrames(numa.NodeID(n))
	}
	// Walk processes in PID order: teardown frees frames into the page
	// cache, so the visit order must be deterministic for run-to-run
	// counter identity.
	pids := make([]int, 0, len(k.procs))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		p := k.procs[pid]
		if !p.space.Replicated() {
			continue
		}
		// Exclude the victim's own fault path. The caller's own lock is
		// exempt: the caller already holds it.
		locked := false
		if p != caller {
			if !p.faultLock.TryLock() {
				continue
			}
			locked = true
		}
		if k.replicaHolderBusy(p, caller) {
			if locked {
				p.faultLock.Unlock()
			}
			continue
		}
		victims := reclaimVictims(p)
		if len(victims) == 0 {
			if locked {
				p.faultLock.Unlock()
			}
			continue
		}
		keep := slices.DeleteFunc(slices.Clone(p.space.Mask()), func(n numa.NodeID) bool {
			return slices.Contains(victims, n)
		})
		// A shrinking mask only tears down; it cannot fail.
		if err := p.space.SetMask(p.opCtx(), keep); err != nil {
			panic(fmt.Sprintf("kernel: reclaim teardown: %v", err))
		}
		p.requestedMask = slices.Clone(p.space.Mask())
		k.reloadContexts(p)
		if locked {
			p.faultLock.Unlock()
		}
	}
	// The reservation pool is the next victim.
	k.cache.Drain()
	var after uint64
	for n := 0; n < k.topo.Nodes(); n++ {
		after += k.pm.FreeFrames(numa.NodeID(n))
	}
	return after - before
}

// reclaimVictims resolves which of p's replica nodes memory pressure may
// take: the active policy's choice when it implements core.ReclaimAdvisor,
// the whole mask otherwise.
func reclaimVictims(p *Process) []numa.NodeID {
	mask := p.space.Mask()
	if p.policyEngine != nil {
		if adv, ok := p.policyEngine.Policy().(core.ReclaimAdvisor); ok {
			return adv.ReclaimVictims(mask)
		}
	}
	return mask
}

// replicaHolderBusy reports whether p's replicas are pinned: an
// incremental replication is mid-copy (its job queue holds frames a
// collapse would free), or, on the fault path, a core is currently
// executing an access batch. The quiescent entry (caller == nil: a round
// barrier or a direct call) has no batch in flight by definition, so a run
// that pinned its cores with BeginConcurrent does not count as busy there.
// When p is the caller's own process, the core whose fault is being
// handled is exempt — it is parked in the handler and re-reads CR3 on walk
// retry. faultCore is per-process state guarded by the process's fault
// lock, which the caller holds for its own process on the fault path (and
// which reclaim TryLocks for every other candidate before calling this).
func (k *Kernel) replicaHolderBusy(p, caller *Process) bool {
	if p.bgRepl > 0 {
		return true
	}
	if caller == nil {
		return false
	}
	exempt := numa.CoreID(-1)
	if p == caller {
		exempt = p.faultCore
	}
	for _, c := range p.cores {
		if c != exempt && k.machine.CoreBusy(c) {
			return true
		}
	}
	return false
}

// StartBackgroundReplication begins building a page-table replica for p on
// node without stalling the process: the copy proceeds in batches via
// (*core.IncrementalReplication).Step with costs billed to the returned
// background context (a kthread on the target socket), and the process
// keeps running against its existing tables meanwhile. Call
// FinishBackgroundReplication once Step reports completion.
// While the copy is in flight the process counts as a busy replica holder
// (replicaHolderBusy), so memory-pressure reclaim will not collapse the
// rings under it. Balance every successful Start with either
// FinishBackgroundReplication or AbortBackgroundReplication.
//
// A table that first touch spread over several nodes is first rebuilt on
// a new root, and its old pages are freed; the process's cores then reload
// CR3 so no core walks from the freed root. A table the start leaves in
// place reloads nothing, since a reload costs every core a context switch.
func (k *Kernel) StartBackgroundReplication(p *Process, node numa.NodeID) (*core.IncrementalReplication, *pvops.OpCtx, error) {
	bgCtx := &pvops.OpCtx{Meter: &pvops.Meter{}}
	root := p.mapper.Root()
	ir, err := p.space.StartIncrementalReplication(bgCtx, node)
	if err != nil {
		return nil, nil, fmt.Errorf("kernel: background replication: %w", err)
	}
	if p.mapper.Root() != root {
		k.reloadContexts(p)
	}
	p.bgRepl++
	return ir, bgCtx, nil
}

// FinishBackgroundReplication publishes a completed background replica:
// the node joins the process's mask and the process's cores reload CR3 so
// the target socket starts using its local root.
func (k *Kernel) FinishBackgroundReplication(p *Process, ir *core.IncrementalReplication) {
	ir.Finish()
	k.endBackgroundReplication(p)
	p.requestedMask = append([]numa.NodeID(nil), p.space.Mask()...)
	k.reloadContexts(p)
}

// AbortBackgroundReplication abandons an unfinished background replica,
// tearing down the partial copy and unpinning the process for reclaim.
func (k *Kernel) AbortBackgroundReplication(p *Process, ir *core.IncrementalReplication, ctx *pvops.OpCtx) {
	ir.Abort(ctx)
	k.endBackgroundReplication(p)
}

// endBackgroundReplication drops one in-flight replication from p's count.
func (k *Kernel) endBackgroundReplication(p *Process) {
	if p.bgRepl > 0 {
		p.bgRepl--
	}
}
