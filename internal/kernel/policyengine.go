package kernel

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// PolicyEngineConfig tunes the runtime replication-policy engine.
type PolicyEngineConfig struct {
	// StepPages bounds the replica pages copied per tick for each in-flight
	// incremental replication, keeping per-tick policy work bounded (the
	// §6.1 background-thread sketch). Default 64.
	StepPages int
}

// ActionRecord is one entry of a barrier engine's action log: what the
// policy, tier or fault engine did, stamped with the round it ticked on.
// Action is a core.Action, a tier.Action or a fault-recovery note. The
// record sequence is part of the engines' determinism contract: identical
// runs produce identical logs regardless of engine mode.
type ActionRecord struct {
	Round  int
	Action fmt.Stringer
}

func (r ActionRecord) String() string {
	return fmt.Sprintf("r%d:%v", r.Round, r.Action)
}

// PolicyEngine ticks a core.ReplicationPolicy for one process at the round
// barriers of the workload engine. Each tick it (1) advances in-flight
// incremental replications by a bounded batch, publishing completed ones,
// (2) aggregates the per-socket hardware-counter deltas since the previous
// tick into core.Telemetry, (3) asks the policy for actions and applies
// them, and (4) records the replica-count timeline. All of that runs at a
// quiescent point (no access batch in flight), so it may touch CR3s, the
// mapper and the replication state freely.
type PolicyEngine struct {
	k      *Kernel
	p      *Process
	policy core.ReplicationPolicy
	cfg    PolicyEngineConfig

	prev     []hw.CoreStats // per-socket cumulative snapshot at last tick
	inflight []*bgJob       // in node order of creation (deterministic)
	log      []ActionRecord
	timeline []ReplicaChange
	bgCycles numa.Cycles

	// t is the telemetry every tick refills in place, and nodes the tick's
	// replica nodes: the policies read the telemetry only inside Decide,
	// so a native process's tick allocates nothing.
	t     core.Telemetry
	nodes []numa.NodeID
}

// ReplicaChange is one change point of a policy engine's replica-count
// timeline: from the tick at Round on, Replicas nodes held a copy of the
// table (primary included).
type ReplicaChange struct {
	Round    int
	Replicas int
}

// bgJob is one in-flight background replication.
type bgJob struct {
	ir  *core.IncrementalReplication
	ctx *pvops.OpCtx
}

// AttachPolicy installs a policy engine for p. The engine is returned to be
// ticked at the workload engine's round barriers (it is a
// workloads.BarrierHook); it also registers with the process so
// memory-pressure reclaim can consult the policy. Attaching replaces any
// previous engine.
func (k *Kernel) AttachPolicy(p *Process, pol core.ReplicationPolicy, cfg PolicyEngineConfig) *PolicyEngine {
	if cfg.StepPages <= 0 {
		cfg.StepPages = 64
	}
	e := &PolicyEngine{
		k: k, p: p, policy: pol, cfg: cfg,
		prev: make([]hw.CoreStats, k.topo.Sockets()),
		t:    core.Telemetry{Sockets: make([]core.SocketSample, k.topo.Sockets())},
	}
	p.policyEngine = e
	return e
}

// NewPolicy builds a built-in policy by name ("static", "ondemand",
// "costadaptive") with default thresholds, priced against this kernel's
// cost model where relevant.
func (k *Kernel) NewPolicy(name string) (core.ReplicationPolicy, error) {
	switch name {
	case "static":
		return core.NewStatic(), nil
	case "ondemand":
		return core.NewOnDemand(core.DefaultOnDemandConfig()), nil
	case "costadaptive":
		return core.NewCostAdaptive(core.DefaultCostAdaptiveConfig(), k.cost), nil
	default:
		return nil, fmt.Errorf("kernel: unknown replication policy %q (have %v)", name, core.PolicyNames())
	}
}

// Policy returns the wrapped policy.
func (e *PolicyEngine) Policy() core.ReplicationPolicy { return e.policy }

// ActionLog returns the applied actions in order.
func (e *PolicyEngine) ActionLog() []ActionRecord { return e.log }

// ReplicaTimeline returns the change points of the number of nodes holding
// a copy of the table after each tick's actions were applied, stamped with
// the ticks' rounds; the first tick is always a change point.
func (e *PolicyEngine) ReplicaTimeline() []ReplicaChange { return e.timeline }

// BackgroundCycles returns the cycles the background replication kthreads
// have consumed so far (off the application's critical path).
func (e *PolicyEngine) BackgroundCycles() numa.Cycles { return e.bgCycles }

// InFlight returns the number of incremental replications in progress.
func (e *PolicyEngine) InFlight() int { return len(e.inflight) }

// RunStart implements the workload engine's run-start hook: the
// per-socket snapshots resynchronize with the machine's current counters,
// so the first tick's telemetry covers only the run (not Setup work, and
// not stale pre-ResetStats values — reusing an engine across runs would
// otherwise underflow the deltas).
func (e *PolicyEngine) RunStart() {
	for s := range e.prev {
		e.prev[s] = e.k.machine.SocketStats(numa.SocketID(s))
	}
}

// RunEnd implements the workload engine's run-end hook: leftover
// in-flight replications are aborted (partial replicas torn down), so the
// process does not stay pinned against memory-pressure reclaim after the
// run. The policy re-requests the replica next run if the signal persists.
func (e *PolicyEngine) RunEnd() {
	for _, job := range e.inflight {
		e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
		e.drainBg(job)
	}
	e.inflight = nil
}

// AbortInflightOn aborts the in-flight incremental replication
// targeting node, if any, tearing down its partial copy. It returns the
// number of jobs aborted (0 or 1). The fault engine uses it when node
// goes offline.
func (e *PolicyEngine) AbortInflightOn(node numa.NodeID) int {
	aborted := 0
	kept := e.inflight[:0]
	for _, job := range e.inflight {
		if job.ir.Node() != node {
			kept = append(kept, job)
			continue
		}
		e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
		e.drainBg(job)
		aborted++
	}
	e.inflight = kept
	return aborted
}

// AbortAllInflight aborts every in-flight incremental replication —
// the pressure ladder's second rung, freeing the partial copies' frames
// before anyone gets OOM-killed. It returns the number aborted.
func (e *PolicyEngine) AbortAllInflight() int {
	aborted := len(e.inflight)
	for _, job := range e.inflight {
		e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
		e.drainBg(job)
	}
	e.inflight = nil
	return aborted
}

// Tick implements workloads.BarrierHook: it runs one policy tick at a
// round barrier. round stamps the tick's actions and timeline entry.
func (e *PolicyEngine) Tick(round int) error {
	e.advanceInflight()
	t := e.telemetry()
	for _, a := range e.policy.Decide(t) {
		applied, err := e.apply(a)
		if err != nil {
			return err
		}
		if applied {
			e.log = append(e.log, ActionRecord{Round: round, Action: a})
		}
	}
	e.nodes = e.p.as.replicaNodes(e.nodes[:0])
	n := len(e.nodes)
	if len(e.timeline) == 0 || e.timeline[len(e.timeline)-1].Replicas != n {
		e.timeline = append(e.timeline, ReplicaChange{Round: round, Replicas: n})
	}
	return nil
}

// advanceInflight steps every in-flight replication by the bounded batch,
// publishing finished replicas. A step that fails (strict allocation under
// memory pressure) aborts its job; the policy will re-request the replica
// if the signal persists once memory frees up.
func (e *PolicyEngine) advanceInflight() {
	kept := e.inflight[:0]
	for _, job := range e.inflight {
		done, err := job.ir.Step(job.ctx, e.cfg.StepPages)
		e.drainBg(job)
		if err != nil {
			e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
			e.drainBg(job)
			continue
		}
		if done {
			e.k.FinishBackgroundReplication(e.p, job.ir)
			continue
		}
		kept = append(kept, job)
	}
	e.inflight = kept
}

// drainBg moves a job's metered cycles into the engine's background total.
func (e *PolicyEngine) drainBg(job *bgJob) {
	e.bgCycles += job.ctx.Meter.Cycles
	job.ctx.Meter.Cycles = 0
}

// telemetry assembles the tick's per-socket deltas and replication state
// in e.t.
func (e *PolicyEngine) telemetry() *core.Telemetry {
	k, p, t := e.k, e.p, &e.t
	topo := k.topo
	p.as.policyState(t)
	t.PrimarySocket = topo.SocketOfNode(t.PrimaryNode)
	t.InFlight = t.InFlight[:0]
	for _, job := range e.inflight {
		t.InFlight = append(t.InFlight, job.ir.Node())
	}
	t.MemFree, t.MemPressure, t.Offline = t.MemFree[:0], t.MemPressure[:0], t.Offline[:0]
	for n := 0; n < topo.Nodes(); n++ {
		id := numa.NodeID(n)
		t.MemFree = append(t.MemFree, k.pm.FreeFrames(id))
		t.MemPressure = append(t.MemPressure, k.pm.PressureFrames(id))
		if k.pm.NodeOffline(id) {
			t.Offline = append(t.Offline, id)
		}
	}
	e.nodes = p.as.replicaNodes(e.nodes[:0])
	for s := 0; s < topo.Sockets(); s++ {
		sid := numa.SocketID(s)
		cur := k.machine.SocketStats(sid)
		node := topo.NodeOf(sid)
		t.Sockets[s] = core.SocketSample{
			Node:       node,
			RunsCores:  e.runsOn(sid),
			HasReplica: slices.Contains(e.nodes, node),
			CoreStats:  cur.Sub(e.prev[s]),
		}
		e.prev[s] = cur
	}
	return t
}

// runsOn reports whether the process has a core on socket s.
func (e *PolicyEngine) runsOn(s numa.SocketID) bool {
	for _, c := range e.p.cores {
		if e.k.topo.SocketOf(c) == s {
			return true
		}
	}
	return false
}

// apply executes one action. It returns whether the action took effect
// (redundant actions — replica already present, node already bare — are
// validated away without logging).
func (e *PolicyEngine) apply(a core.Action) (bool, error) {
	switch a.Kind {
	case core.ActionReplicate:
		return e.p.as.replicate(e, a.Node)
	case core.ActionDrop:
		return e.p.as.drop(a.Node)
	case core.ActionMigrate:
		if e.runsOnlyOn(a.Socket) {
			return false, nil
		}
		if err := e.k.MigrateProcess(e.p, a.Socket, MigrateOpts{}); err != nil {
			return false, fmt.Errorf("kernel: policy migrate to socket %d: %w", a.Socket, err)
		}
		return true, nil
	default:
		return false, fmt.Errorf("kernel: unknown policy action %v", a.Kind)
	}
}

// replicate starts an incremental replication (§6.1) onto node, which the
// engine steps at its ticks.
func (a nativeSpace) replicate(e *PolicyEngine, node numa.NodeID) (bool, error) {
	k, p := e.k, a.p
	if node == p.space.PrimaryNode() || slices.Contains(p.space.Mask(), node) {
		return false, nil
	}
	for _, job := range e.inflight {
		if job.ir.Node() == node {
			return false, nil
		}
	}
	ir, ctx, err := k.StartBackgroundReplication(p, node)
	if err != nil {
		// Strict allocation failure under memory pressure: skip the
		// action rather than kill the run — mirroring the mid-copy
		// failure path, the policy re-requests once memory frees up.
		return false, nil
	}
	if ir.Done() {
		// Raced with an existing replica; nothing to drive.
		k.endBackgroundReplication(p)
		return false, nil
	}
	e.inflight = append(e.inflight, &bgJob{ir: ir, ctx: ctx})
	return true, nil
}

func (a nativeSpace) drop(node numa.NodeID) (bool, error) { return a.p.kernel.DropReplica(a.p, node) }

// replicate copies the guest and/or nested tables onto node, per the
// process's policy layers, at once: the VM dimensions have no incremental
// copy, so the copy stalls the vCPU as an explicit mask change would.
func (g *guestSpace) replicate(_ *PolicyEngine, node numa.NodeID) (bool, error) {
	// Allocation pressure mid-copy: swallow the error (the policy
	// re-requests once memory frees up) but keep applied — a partially
	// applied both-layers action did repoint roots and must appear in the
	// log.
	applied, _ := g.p.kernel.ReplicateVMNode(g.p, node, g.layers)
	return applied, nil
}

func (g *guestSpace) drop(node numa.NodeID) (bool, error) {
	return g.p.kernel.DropVMReplica(g.p, node, g.layers)
}

// runsOnlyOn reports whether the process runs on socket s and nowhere else.
func (e *PolicyEngine) runsOnlyOn(s numa.SocketID) bool {
	for _, c := range e.p.cores {
		if e.k.topo.SocketOf(c) != s {
			return false
		}
	}
	return len(e.p.cores) > 0
}

// DropReplica tears down p's replica on node (a policy "deprecate"
// decision). It reports whether a replica was actually dropped. Dropping
// the primary's node is a no-op.
func (k *Kernel) DropReplica(p *Process, node numa.NodeID) (bool, error) {
	mask := p.space.Mask()
	if !slices.Contains(mask, node) {
		return false, nil
	}
	keep := slices.DeleteFunc(slices.Clone(mask), func(n numa.NodeID) bool { return n == node })
	if err := p.space.SetMask(p.opCtx(), keep); err != nil {
		return false, err
	}
	p.requestedMask = slices.Clone(p.space.Mask())
	k.reloadContexts(p)
	if len(p.cores) > 0 {
		k.machine.AddCycles(k.callCore(p), drainMeterCycles(p))
	}
	return true, nil
}
