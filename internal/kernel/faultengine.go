package kernel

// The fault engine is the recovery half of the deterministic
// fault-injection subsystem (internal/fault holds the plan/injector
// half). It runs at round barriers — the same quiescent points the
// replication-policy engine uses — consuming due events from the plan's
// injector and repairing the machine synchronously, in canonical
// process/node order, before the next access batch starts.
//
// The model is "patrol scrub + synchronous MCE": poisoning a frame
// raises the machine-check at the barrier itself and recovery completes
// inside the same tick, so no access batch ever observes a poisoned
// frame. The hw.Machine guard (hw.ErrMachineCheck) actively enforces
// that invariant rather than assuming it — if a recovery path ever
// leaked a poisoned frame into a live mapping, the next access would
// fail loudly instead of silently reading bad memory.

import (
	"errors"
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/fault"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// ErrProcessKilled reports that fault recovery killed the process whose
// phase was running: a SIGBUS on an unreplicated page-table MCE, or an
// OOM-kill by the pressure ladder. The workload run unwinds with its
// partial counters; the caller owns the corpse (DestroyProcess).
var ErrProcessKilled = errors.New("kernel: process killed by fault recovery")

// FaultStats aggregates what the fault engine injected and how the
// machine recovered. All counts are deterministic for a given plan and
// scenario, regardless of engine mode or worker count.
type FaultStats struct {
	// Injected is the number of plan events fired.
	Injected int `json:"injected"`
	// MCEs is the number of simulated machine-check exceptions raised
	// (one per poisoned frame).
	MCEs int `json:"mces,omitempty"`
	// PTRebuilds counts page-table copies rebuilt from a surviving
	// replica (the failover the plan exists to measure).
	PTRebuilds int `json:"ptRebuilds,omitempty"`
	// DataDiscards counts poisoned data pages discarded for re-faulting.
	DataDiscards int `json:"dataDiscards,omitempty"`
	// SigbusKills counts processes killed by an unrecoverable
	// page-table MCE (no surviving replica).
	SigbusKills int `json:"sigbusKills,omitempty"`
	// OOMKills counts processes killed by the pressure ladder.
	OOMKills int `json:"oomKills,omitempty"`
	// NodesOfflined counts node hot-remove events applied.
	NodesOfflined int `json:"nodesOfflined,omitempty"`
	// EvacuatedPages counts data pages migrated off offlined nodes.
	EvacuatedPages int `json:"evacuatedPages,omitempty"`
	// RetiredFrames counts frames poisoned and permanently retired from
	// the allocator.
	RetiredFrames int `json:"retiredFrames,omitempty"`
	// ReclaimedFrames counts frames freed by the pressure ladder's
	// replica-reclaim rung.
	ReclaimedFrames uint64 `json:"reclaimedFrames,omitempty"`
	// AbortedReplications counts in-flight incremental replications the
	// pressure ladder and node offlining aborted.
	AbortedReplications int `json:"abortedReplications,omitempty"`
	// RecoveryCycles is the total cycle cost of all recovery work,
	// attributed to the victim processes' cores.
	RecoveryCycles numa.Cycles `json:"recoveryCycles,omitempty"`
}

// recoveryNote is one line of what the fault engine injected or how it
// recovered, the Action of its log records.
type recoveryNote string

func (n recoveryNote) String() string { return string(n) }

// ReplicaHealth is one process's replica redundancy state after a run,
// as rendered by ptdump -faults.
type ReplicaHealth struct {
	// Proc is the process index in spawn order; PID its kernel id.
	Proc int    `json:"proc"`
	PID  int    `json:"pid"`
	Name string `json:"name,omitempty"`
	// State is one of "replicated" (every requested replica present),
	// "degraded" (some survive), "lost" (all requested replicas gone),
	// "unreplicated" (none requested), or "killed:<reason>".
	State string `json:"state"`
	// Nodes lists the nodes holding a copy of the table (primary
	// included), empty for killed processes.
	Nodes []numa.NodeID `json:"nodes,omitempty"`
}

// FaultEngine drives a fault.Plan against the kernel at round barriers.
// It is attached once per run, after every process has spawned, so plan
// events address processes by spawn order.
type FaultEngine struct {
	k     *Kernel
	inj   *fault.Injector
	procs []*Process
	names []string

	stats  FaultStats
	log    []ActionRecord
	killed map[int]string // proc index -> "sigbus" | "oom"
}

// AttachFaultEngine builds a fault engine over the spawned processes
// (in spawn order — the order plan events address them by). names are
// the processes' scenario names, for the action log; nil is allowed.
func (k *Kernel) AttachFaultEngine(plan *fault.Plan, procs []*Process, names []string) *FaultEngine {
	return &FaultEngine{
		k:      k,
		inj:    fault.NewInjector(plan),
		procs:  procs,
		names:  names,
		killed: make(map[int]string),
	}
}

// Stats returns the engine's aggregate counters so far.
func (e *FaultEngine) Stats() FaultStats { return e.stats }

// ActionLog returns the deterministic recovery log in firing order.
func (e *FaultEngine) ActionLog() []ActionRecord { return e.log }

// Pending reports how many plan events have not fired (scheduled past
// the last barrier the run reached).
func (e *FaultEngine) Pending() int { return e.inj.Pending() }

// Killed reports whether the fault engine killed process i (spawn
// order) and why ("sigbus" or "oom").
func (e *FaultEngine) Killed(i int) (string, bool) {
	reason, ok := e.killed[i]
	return reason, ok
}

// Health reports every process's replica redundancy state.
func (e *FaultEngine) Health() []ReplicaHealth {
	out := make([]ReplicaHealth, len(e.procs))
	for i, p := range e.procs {
		h := ReplicaHealth{Proc: i, PID: p.PID, Name: e.name(i)}
		if reason, dead := e.killed[i]; dead {
			h.State = "killed:" + reason
			out[i] = h
			continue
		}
		h.Nodes = p.space.ReplicaNodes()
		want := p.requestedMask
		missing := 0
		for _, n := range want {
			if !slices.Contains(h.Nodes, n) {
				missing++
			}
		}
		switch {
		case len(want) == 0:
			h.State = "unreplicated"
		case missing == 0:
			h.State = "replicated"
		case len(h.Nodes) > 1:
			h.State = "degraded"
		default:
			h.State = "lost"
		}
		out[i] = h
	}
	return out
}

// Tick fires every plan event due at the cumulative round barrier and
// runs its recovery synchronously. current is the process whose phase
// the barrier belongs to (nil between phases); if recovery kills it,
// Tick returns an ErrProcessKilled-wrapped error after finishing the
// barrier's remaining events, and the caller must destroy the process.
// Idle victims are destroyed immediately — the facade runs processes
// sequentially, so everyone but current is quiescent at the barrier.
func (e *FaultEngine) Tick(round uint64, current *Process) error {
	killedCurrent := false
	for _, ev := range e.inj.Due(round) {
		e.stats.Injected++
		switch ev.Kind {
		case fault.PoisonData:
			e.poisonData(round, ev)
		case fault.PoisonPT:
			killedCurrent = e.poisonPT(round, ev, current) || killedCurrent
		case fault.OfflineNode:
			e.offlineNode(round, ev)
		case fault.Pressure:
			killedCurrent = e.pressure(round, ev, current) || killedCurrent
		}
	}
	if killedCurrent {
		return fmt.Errorf("kernel: fault recovery at round %d killed pid %d: %w",
			round, current.PID, ErrProcessKilled)
	}
	return nil
}

// poisonData fires an uncorrectable ECC error on one of the victim's
// mapped data pages. Recovery is the kernel's hwpoison path: the MCE
// discards the mapping, the frame retires, and the next touch
// demand-faults a fresh page.
func (e *FaultEngine) poisonData(round uint64, ev fault.Event) {
	i := ev.Proc
	if !e.alive(round, i, ev) {
		return
	}
	p := e.procs[i]
	type mapped struct {
		va   pt.VirtAddr
		size pt.PageSize
	}
	var pages []mapped
	p.ForEachMappedPage(func(va pt.VirtAddr, _ mem.FrameID, size pt.PageSize) {
		pages = append(pages, mapped{va, size})
	})
	if len(pages) == 0 {
		e.logf(round, "skip %v: pid %d has no mapped pages", ev, p.PID)
		return
	}
	t := pages[ev.Page%len(pages)]
	leaf, err := p.mapper.Unmap(p.opCtx(), t.va, t.size)
	if err != nil {
		e.logf(round, "skip %v: unmap %#x: %v", ev, uint64(t.va), err)
		return
	}
	p.tierUnmapped(t.va)
	frame := leaf.Frame()
	e.k.pm.SetPoison(frame)
	e.stats.MCEs++
	e.stats.RetiredFrames++
	// MCE trap + hwpoison handling ride the fault-entry cost; the frame
	// free below retires the poisoned frame instead of recycling it.
	p.Meter.Cycles += e.k.costs.FaultEntry
	p.freeDataPage(leaf, t.size)
	e.k.machine.ShootdownPage(e.k.callCore(p), t.va, p.cores)
	e.charge(p)
	e.stats.DataDiscards++
	e.logf(round, "mce pid %d data va %#x (%v) on node %d: page discarded, frame retired",
		p.PID, uint64(t.va), t.size, e.k.pm.NodeOf(frame))
}

// poisonPT fires an uncorrectable ECC error on the page-table root the
// CPUs of ev.Node's socket walk from: the node-local replica root if
// one exists, otherwise the primary root. A poisoned replica is torn
// down and rebuilt from the primary; a poisoned primary with survivors
// promotes the lowest surviving replica and rebuilds the lost copy from
// it; a poisoned primary with no replica kills the process (SIGBUS) —
// the redundancy argument this subsystem exists to measure.
// It reports whether recovery killed current.
func (e *FaultEngine) poisonPT(round uint64, ev fault.Event, current *Process) bool {
	i := ev.Proc
	if !e.alive(round, i, ev) {
		return false
	}
	p := e.procs[i]
	root := p.space.RootFor(e.k.topo.SocketOfNode(ev.Node))
	e.k.pm.SetPoison(root)
	e.stats.MCEs++
	e.stats.RetiredFrames++
	p.Meter.Cycles += e.k.costs.FaultEntry
	ctx := p.opCtx()
	rootNode := e.k.pm.NodeOf(root)
	if rootNode != p.space.PrimaryNode() {
		// A replica root died: tear the copy down (retiring the poisoned
		// frame) and rebuild it fresh from the primary.
		mask := slices.Clone(p.space.Mask())
		without := slices.DeleteFunc(slices.Clone(mask), func(n numa.NodeID) bool { return n == rootNode })
		if err := p.space.SetMask(ctx, without); err != nil {
			e.logf(round, "mce pid %d pt node %d: teardown failed: %v", p.PID, rootNode, err)
			return false
		}
		if err := p.space.SetMask(ctx, mask); err != nil {
			e.logf(round, "mce pid %d pt node %d: replica dropped, rebuild failed: %v", p.PID, rootNode, err)
		} else {
			e.stats.PTRebuilds++
			e.logf(round, "mce pid %d pt node %d: replica rebuilt from primary", p.PID, rootNode)
		}
		e.k.reloadContexts(p)
		e.charge(p)
		return false
	}
	if survivors := p.space.Mask(); len(survivors) > 0 {
		// The primary died but replicas survive: promote the lowest
		// surviving replica to primary (tearing down the poisoned copy)
		// and rebuild the lost node's copy from the survivor.
		want := p.space.ReplicaNodes()
		promoted := survivors[0]
		if err := p.space.Migrate(ctx, promoted, false); err != nil {
			e.logf(round, "mce pid %d pt primary node %d: promotion failed: %v", p.PID, rootNode, err)
			e.k.reloadContexts(p)
			e.charge(p)
			return false
		}
		if err := p.space.SetMask(ctx, want); err != nil {
			e.logf(round, "mce pid %d pt primary node %d: promoted node %d, rebuild failed: %v",
				p.PID, rootNode, promoted, err)
		} else {
			e.stats.PTRebuilds++
			e.logf(round, "mce pid %d pt primary node %d: promoted replica on node %d, copy rebuilt",
				p.PID, rootNode, promoted)
		}
		e.k.reloadContexts(p)
		e.charge(p)
		return false
	}
	// Unreplicated primary: nothing to walk from. SIGBUS.
	e.stats.SigbusKills++
	e.logf(round, "mce pid %d pt primary node %d: no replica, SIGBUS kill", p.PID, rootNode)
	return e.kill(i, "sigbus", current)
}

// offlineNode hot-removes a NUMA node: every process drops its replica
// there (poison-free teardown), primaries stranded on the node migrate
// to the lowest online node, mapped data evacuates through the standard
// migration path, and the allocator plus page-cache pool stop serving
// the node. Recovery order is spawn order — canonical and engine-mode
// independent.
func (e *FaultEngine) offlineNode(round uint64, ev fault.Event) {
	node := ev.Node
	if e.k.pm.NodeOffline(node) {
		e.logf(round, "skip %v: node already offline", ev)
		return
	}
	e.k.pm.SetOffline(node, true)
	e.stats.NodesOfflined++
	e.logf(round, "node %d offline", node)
	for i, p := range e.procs {
		if _, dead := e.killed[i]; dead {
			continue
		}
		ctx := p.opCtx()
		if pe := p.policyEngine; pe != nil {
			if n := pe.AbortInflightOn(node); n > 0 {
				e.stats.AbortedReplications += n
				e.logf(round, "offline node %d: pid %d aborted %d in-flight replications", node, p.PID, n)
			}
		}
		if mask := p.space.Mask(); slices.Contains(mask, node) {
			keep := slices.DeleteFunc(slices.Clone(mask), func(n numa.NodeID) bool { return n == node })
			if err := p.space.SetMask(ctx, keep); err == nil {
				e.logf(round, "offline node %d: pid %d replica dropped", node, p.PID)
			}
		}
		if p.space.PrimaryNode() == node {
			target := e.fallbackNode(node)
			if err := p.space.Migrate(ctx, target, false); err != nil {
				e.logf(round, "offline node %d: pid %d primary evacuation failed: %v", node, p.PID, err)
			} else {
				e.logf(round, "offline node %d: pid %d primary migrated to node %d", node, p.PID, target)
			}
		}
		moved := e.evacuateData(p, node)
		if moved > 0 {
			e.stats.EvacuatedPages += moved
			e.logf(round, "offline node %d: pid %d evacuated %d data pages", node, p.PID, moved)
		}
		e.k.reloadContexts(p)
		e.charge(p)
	}
	// The page-cache pool may hold reserved frames on the dead node;
	// rebuild it from online memory only.
	e.k.cache.Drain()
	e.k.cache.Refill()
}

// evacuateData migrates every data page the process has mapped on node
// to online memory, preferring the process's home node. It returns the
// number of pages moved.
func (e *FaultEngine) evacuateData(p *Process, node numa.NodeID) int {
	type cand struct {
		va   pt.VirtAddr
		size pt.PageSize
	}
	var cands []cand
	p.ForEachMappedPage(func(va pt.VirtAddr, frame mem.FrameID, size pt.PageSize) {
		if e.k.pm.NodeOf(frame) == node {
			cands = append(cands, cand{va, size})
		}
	})
	targets := e.evacTargets(p, node)
	moved := 0
	for _, c := range cands {
		for _, t := range targets {
			if err := e.k.migrateDataPage(p, c.va, c.size, t); err == nil {
				moved++
				break
			}
		}
	}
	return moved
}

// evacTargets orders online nodes for evacuation: home node first, then
// the rest ascending.
func (e *FaultEngine) evacTargets(p *Process, exclude numa.NodeID) []numa.NodeID {
	var out []numa.NodeID
	home := e.k.topo.NodeOf(p.home)
	if home != exclude && !e.k.pm.NodeOffline(home) {
		out = append(out, home)
	}
	for n := 0; n < e.k.topo.Nodes(); n++ {
		id := numa.NodeID(n)
		if id == exclude || id == home || e.k.pm.NodeOffline(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// fallbackNode returns the lowest online node other than exclude.
func (e *FaultEngine) fallbackNode(exclude numa.NodeID) numa.NodeID {
	for n := 0; n < e.k.topo.Nodes(); n++ {
		id := numa.NodeID(n)
		if id != exclude && !e.k.pm.NodeOffline(id) {
			return id
		}
	}
	return exclude
}

// pressure applies a memory-pressure wave: the node's usable-frame
// floor rises to ev.Frames, and the graceful-degradation ladder runs
// until allocations on the node can succeed again — (1) deprecate cold
// replicas via the reclaim path, (2) abort in-flight incremental
// replications, (3) OOM-kill by data footprint on the node, largest
// first, ties to the earliest process. It reports whether the ladder
// killed current.
func (e *FaultEngine) pressure(round uint64, ev fault.Event, current *Process) bool {
	node, floor := ev.Node, ev.Frames
	e.k.pm.SetPressure(node, floor)
	e.logf(round, "pressure wave on node %d: floor %d frames, %d free", node, floor, e.k.pm.FreeFrames(node))
	if e.k.pm.FreeFrames(node) > floor {
		return false
	}
	// Rung 1: deprecate cold replicas (ReclaimAdvisor-guided) and drop
	// the page-cache reserves.
	freed := e.k.ReclaimReplicas()
	e.stats.ReclaimedFrames += freed
	e.logf(round, "pressure node %d: reclaim freed %d frames", node, freed)
	if e.k.pm.FreeFrames(node) > floor {
		return false
	}
	// Rung 2: abort in-flight incremental replications, tearing down
	// their partial copies. The torn-down frames refill the page-cache
	// pool rung 1 drained, so drain it again before the floor check.
	for i, p := range e.procs {
		if _, dead := e.killed[i]; dead {
			continue
		}
		if pe := p.policyEngine; pe != nil {
			if n := pe.AbortAllInflight(); n > 0 {
				e.stats.AbortedReplications += n
				e.logf(round, "pressure node %d: pid %d aborted %d in-flight replications", node, p.PID, n)
			}
		}
	}
	e.k.cache.Drain()
	if e.k.pm.FreeFrames(node) > floor {
		return false
	}
	// Rung 3: OOM-kill by footprint until the node breathes.
	for e.k.pm.FreeFrames(node) <= floor {
		victim, frames := e.oomVictim(node)
		if victim < 0 {
			e.logf(round, "pressure node %d: no OOM candidates, %d free under floor %d",
				node, e.k.pm.FreeFrames(node), floor)
			return false
		}
		p := e.procs[victim]
		e.stats.OOMKills++
		e.logf(round, "pressure node %d: oom-kill pid %d (%d frames on node)", node, p.PID, frames)
		if e.kill(victim, "oom", current) {
			// The run unwinds before the corpse frees its frames; the
			// remaining deficit resolves when the caller destroys it.
			return true
		}
		// The idle victim's teardown parked its page-table frames in the
		// drained pool, as rung 2's aborts did.
		e.k.cache.Drain()
	}
	return false
}

// oomVictim picks the live process with the largest mapped data
// footprint on node (ties to the earliest spawn index). It returns
// (-1, 0) when no live process holds frames there.
func (e *FaultEngine) oomVictim(node numa.NodeID) (int, uint64) {
	best, bestFrames := -1, uint64(0)
	for i, p := range e.procs {
		if _, dead := e.killed[i]; dead {
			continue
		}
		var frames uint64
		p.ForEachMappedPage(func(_ pt.VirtAddr, frame mem.FrameID, size pt.PageSize) {
			if e.k.pm.NodeOf(frame) == node {
				frames += size.Bytes() / mem.FrameSize
			}
		})
		if frames > bestFrames {
			best, bestFrames = i, frames
		}
	}
	return best, bestFrames
}

// kill marks process i dead for reason. Idle victims are destroyed on
// the spot with their teardown cycles attributed; the current process
// is left for the caller (true return) since the engine still holds its
// contexts mid-run.
func (e *FaultEngine) kill(i int, reason string, current *Process) bool {
	p := e.procs[i]
	e.killed[i] = reason
	if p == current {
		return true
	}
	e.k.DestroyProcess(p)
	e.charge(p)
	return false
}

// alive guards an event addressing process index i: out-of-range and
// already-killed victims log a deterministic skip.
func (e *FaultEngine) alive(round uint64, i int, ev fault.Event) bool {
	if i < 0 || i >= len(e.procs) {
		e.logf(round, "skip %v: proc index out of range", ev)
		return false
	}
	if reason, dead := e.killed[i]; dead {
		e.logf(round, "skip %v: pid %d already killed (%s)", ev, e.procs[i].PID, reason)
		return false
	}
	return true
}

// charge drains the victim's metered recovery work onto its core and
// into the engine's recovery-cycle total.
func (e *FaultEngine) charge(p *Process) {
	cy := drainMeterCycles(p)
	if cy == 0 {
		return
	}
	e.stats.RecoveryCycles += cy
	e.k.machine.AddCycles(e.k.callCore(p), cy)
}

func (e *FaultEngine) name(i int) string {
	if i >= 0 && i < len(e.names) {
		return e.names[i]
	}
	return ""
}

func (e *FaultEngine) logf(round uint64, format string, args ...any) {
	e.log = append(e.log, ActionRecord{Round: int(round), Action: recoveryNote(fmt.Sprintf(format, args...))})
}
