package core

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// This file defines the pluggable replication-policy surface. The paper's
// Mitosis mechanism is policy-agnostic (§6: "the mechanism is independent
// of the policy deciding when to replicate"); a static per-process mask is
// one point in the design space. Related work explores dynamic points:
// numaPTE replicates and deprecates page-table replicas on demand from
// access telemetry, and Phoenix co-orchestrates thread placement with
// page-table placement under a cost model. A ReplicationPolicy is ticked
// at deterministic points (the workload engine's round barriers) with
// per-socket telemetry and answers with actions the kernel applies between
// rounds.

// ActionKind enumerates the decisions a replication policy can emit.
type ActionKind int

const (
	// ActionReplicate creates a page-table replica on Action.Node, built
	// incrementally (bounded pages per tick) in the background.
	ActionReplicate ActionKind = iota
	// ActionDrop tears down the replica on Action.Node.
	ActionDrop
	// ActionMigrate moves the process's cores to Action.Socket starting
	// with the next round (thread placement instead of page replication).
	ActionMigrate
)

func (k ActionKind) String() string {
	switch k {
	case ActionReplicate:
		return "replicate"
	case ActionDrop:
		return "drop"
	case ActionMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one policy decision, applied by the kernel at a round barrier.
type Action struct {
	Kind ActionKind
	// Node is the target NUMA node for ActionReplicate / ActionDrop.
	Node numa.NodeID
	// Socket is the target socket for ActionMigrate.
	Socket numa.SocketID
}

func (a Action) String() string {
	switch a.Kind {
	case ActionMigrate:
		return fmt.Sprintf("migrate->socket%d", a.Socket)
	default:
		return fmt.Sprintf("%v->node%d", a.Kind, a.Node)
	}
}

// SocketSample is one socket's telemetry delta for the tick interval:
// hardware counters of the socket's cores since the previous tick, plus the
// replication state the policy needs to interpret them.
type SocketSample struct {
	// Node is the socket's attached memory node.
	Node numa.NodeID
	// RunsCores reports whether the process has cores scheduled on this
	// socket this round.
	RunsCores bool
	// HasReplica reports whether the socket's node holds the primary table
	// or a complete replica (its cores walk locally).
	HasReplica bool

	// CoreStats is the socket's counter delta over the tick interval.
	// numaPTE-style policies threshold WalkRemoteCycles; Phoenix-style
	// cost models weigh DataRemoteAccesses, the thread-vs-table placement
	// signal.
	translate.CoreStats
}

// RemoteWalkCycleFraction returns the fraction of the socket's cycles spent
// on remote page-table DRAM reads this tick.
func (s *SocketSample) RemoteWalkCycleFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.WalkRemoteCycles) / float64(s.Cycles)
}

// Telemetry is one tick's input to a policy: per-socket samples plus the
// process's replication state.
type Telemetry struct {
	// PrimaryNode holds the primary table; PrimarySocket is its socket.
	PrimaryNode   numa.NodeID
	PrimarySocket numa.SocketID
	// Mask is the current replication mask (completed replicas beyond the
	// primary).
	Mask []numa.NodeID
	// InFlight lists nodes with an incremental replication in progress.
	InFlight []numa.NodeID
	// PTPages is the page count of the primary table tree — the size of
	// the copy a replication action commits to.
	PTPages int
	// Sockets holds one sample per socket, indexed by SocketID.
	Sockets []SocketSample
	// MemFree is the per-node free-frame count at the tick, indexed by
	// NodeID. Policies use it to avoid replicating onto full nodes.
	MemFree []uint64
	// MemPressure is the per-node usable-frame floor an active pressure
	// wave withholds (0 = no wave), indexed by NodeID.
	MemPressure []uint64
	// Offline lists the nodes currently hot-removed, ascending. A
	// replica there is gone and a replicate action there will fail.
	Offline []numa.NodeID
}

// InFlightOn reports whether a replica build for node is in progress.
func (t *Telemetry) InFlightOn(node numa.NodeID) bool {
	return slices.Contains(t.InFlight, node)
}

// ReplicationPolicy decides, tick by tick, where page-table replicas should
// exist and where the process's threads should run. Implementations may be
// stateful; they are driven from a single goroutine at deterministic points,
// so identical telemetry sequences must yield identical action sequences
// (the policy half of the engine's determinism contract).
type ReplicationPolicy interface {
	// Name identifies the policy in logs and bench output.
	Name() string
	// Decide consumes one tick of telemetry and returns the actions to
	// apply. Returning nil means no change.
	Decide(t *Telemetry) []Action
}

// ReclaimAdvisor is optionally implemented by policies that want a say in
// memory-pressure replica reclaim: given the process's current mask it
// returns the subset of replica nodes the kernel may tear down. Policies
// without the interface keep the legacy behaviour (all replicas are fair
// game).
type ReclaimAdvisor interface {
	ReclaimVictims(mask []numa.NodeID) []numa.NodeID
}

// Static is the compatibility baseline: replication is decided once, up
// front, through the per-process mask, and never revisited.
// Decide always returns nil, so attaching it perturbs no counter — a run
// with Static is bit-identical to a run without a policy engine.
type Static struct{}

// NewStatic returns the static (per-process mask) policy.
func NewStatic() *Static { return &Static{} }

// Name implements ReplicationPolicy.
func (*Static) Name() string { return "static" }

// Decide implements ReplicationPolicy: the static policy never acts.
func (*Static) Decide(*Telemetry) []Action { return nil }

// OnDemandConfig tunes the OnDemand policy.
type OnDemandConfig struct {
	// ReplicateFraction: replicate to a socket's node once the fraction of
	// that socket's tick cycles spent on remote page-table DRAM reads
	// reaches it.
	ReplicateFraction float64
	// MinTickWalks is the walk floor below which a socket is considered
	// idle this tick: too little signal to replicate, and — sustained —
	// evidence that its replica has gone cold.
	MinTickWalks uint64
	// ColdTicks is the number of consecutive idle ticks after which a
	// socket's replica is dropped.
	ColdTicks int
}

// DefaultOnDemandConfig returns thresholds tuned for the simulator's
// workloads at the engine's default chunking.
func DefaultOnDemandConfig() OnDemandConfig {
	return OnDemandConfig{
		ReplicateFraction: 0.02,
		MinTickWalks:      8,
		ColdTicks:         4,
	}
}

// OnDemand is a numaPTE-style dynamic policy: a socket whose remote
// page-walk cycles cross a threshold gets a replica on its node; a replica
// whose socket stops walking (process descheduled there, or the working set
// fell back into the TLB) goes cold and is deprecated after a few ticks.
type OnDemand struct {
	cfg OnDemandConfig
	// cold counts consecutive idle ticks per node holding a replica.
	cold map[numa.NodeID]int
}

// NewOnDemand returns an OnDemand policy with the given thresholds.
func NewOnDemand(cfg OnDemandConfig) *OnDemand {
	if cfg.ReplicateFraction <= 0 {
		cfg.ReplicateFraction = DefaultOnDemandConfig().ReplicateFraction
	}
	if cfg.MinTickWalks == 0 {
		cfg.MinTickWalks = DefaultOnDemandConfig().MinTickWalks
	}
	if cfg.ColdTicks <= 0 {
		cfg.ColdTicks = DefaultOnDemandConfig().ColdTicks
	}
	return &OnDemand{cfg: cfg, cold: make(map[numa.NodeID]int)}
}

// Name implements ReplicationPolicy.
func (*OnDemand) Name() string { return "ondemand" }

// Decide implements ReplicationPolicy.
func (o *OnDemand) Decide(t *Telemetry) []Action {
	var acts []Action
	for i := range t.Sockets {
		s := &t.Sockets[i]
		// Replicate where remote walks hurt.
		if !s.HasReplica && !t.InFlightOn(s.Node) &&
			s.Walks >= o.cfg.MinTickWalks &&
			s.RemoteWalkCycleFraction() >= o.cfg.ReplicateFraction {
			acts = append(acts, Action{Kind: ActionReplicate, Node: s.Node})
		}
	}
	// Track coldness of completed replicas (never the primary: it is not in
	// the mask). An idle socket ages its replica; any walk activity — local
	// by construction once the replica exists — resets the clock.
	for _, node := range t.Mask {
		s := &t.Sockets[numa.SocketID(node)]
		if s.Walks < o.cfg.MinTickWalks {
			o.cold[node]++
		} else {
			o.cold[node] = 0
		}
		if o.cold[node] >= o.cfg.ColdTicks {
			acts = append(acts, Action{Kind: ActionDrop, Node: node})
			delete(o.cold, node)
		}
	}
	// Forget state for nodes that left the mask by other means (reclaim,
	// migration).
	for node := range o.cold {
		if !slices.Contains(t.Mask, node) {
			delete(o.cold, node)
		}
	}
	return acts
}

// ReclaimVictims implements ReclaimAdvisor: memory pressure may take
// replicas that have been idle for at least one tick, but hot replicas are
// protected — tearing them down would trade page-walk cycles for a handful
// of frames, and the policy would immediately rebuild them.
func (o *OnDemand) ReclaimVictims(mask []numa.NodeID) []numa.NodeID {
	var victims []numa.NodeID
	for _, n := range mask {
		if o.cold[n] >= 1 {
			victims = append(victims, n)
		}
	}
	return victims
}

// CostAdaptiveConfig tunes the CostAdaptive policy.
type CostAdaptiveConfig struct {
	// TriggerFraction is the remote-walk cycle fraction above which a
	// socket's placement is (re)evaluated.
	TriggerFraction float64
	// MinTickWalks is the walk floor below which a socket carries too
	// little signal to act on.
	MinTickWalks uint64
	// HorizonTicks is the amortization horizon: one-time action costs are
	// weighed against this many ticks of projected savings. The default
	// (256 ticks ≈ 8k ops at the engine's default chunk) assumes a
	// long-running process, as §6.1 does for replication amortization.
	HorizonTicks int
	// MigrateCost is the modeled one-time cost of moving the process's
	// threads to another socket (CR3 reloads, cache and TLB refill).
	MigrateCost numa.Cycles
	// AvgEntriesPerPage estimates the live entries copied per page-table
	// page when pricing a replication.
	AvgEntriesPerPage int
}

// DefaultCostAdaptiveConfig returns the calibrated defaults.
func DefaultCostAdaptiveConfig() CostAdaptiveConfig {
	return CostAdaptiveConfig{
		TriggerFraction:   0.02,
		MinTickWalks:      8,
		HorizonTicks:      256,
		MigrateCost:       50_000,
		AvgEntriesPerPage: 128,
	}
}

// CostAdaptive is a Phoenix-style policy: it prices both levers — replicate
// the page-table to the threads, or migrate the threads to the page-table —
// with the machine's cost model and picks the cheaper one. A process
// spanning several sockets can only be helped by replication; for a process
// on one socket, thread migration wins when its data already lives with the
// primary table (replication wins when the data is local and only the table
// is remote — the paper's §3.2 stranded-table scenario).
type CostAdaptive struct {
	cfg  CostAdaptiveConfig
	cost *numa.CostModel
}

// NewCostAdaptive returns a CostAdaptive policy priced against cost.
func NewCostAdaptive(cfg CostAdaptiveConfig, cost *numa.CostModel) *CostAdaptive {
	if cost == nil {
		panic("core: CostAdaptive requires a cost model")
	}
	d := DefaultCostAdaptiveConfig()
	if cfg.TriggerFraction <= 0 {
		cfg.TriggerFraction = d.TriggerFraction
	}
	if cfg.MinTickWalks == 0 {
		cfg.MinTickWalks = d.MinTickWalks
	}
	if cfg.HorizonTicks <= 0 {
		cfg.HorizonTicks = d.HorizonTicks
	}
	if cfg.MigrateCost == 0 {
		cfg.MigrateCost = d.MigrateCost
	}
	if cfg.AvgEntriesPerPage <= 0 {
		cfg.AvgEntriesPerPage = d.AvgEntriesPerPage
	}
	return &CostAdaptive{cfg: cfg, cost: cost}
}

// Name implements ReplicationPolicy.
func (*CostAdaptive) Name() string { return "costadaptive" }

// replicationCost prices a full replica build of ptPages pages.
func (c *CostAdaptive) replicationCost(ptPages int) float64 {
	p := c.cost.Params()
	perPage := p.PTAllocInit + p.PageZero +
		numa.Cycles(c.cfg.AvgEntriesPerPage)*(p.PTELoad+p.PTEStore)
	return float64(ptPages) * float64(perPage)
}

// Decide implements ReplicationPolicy.
func (c *CostAdaptive) Decide(t *Telemetry) []Action {
	var running []*SocketSample
	for i := range t.Sockets {
		if t.Sockets[i].RunsCores {
			running = append(running, &t.Sockets[i])
		}
	}
	hot := func(s *SocketSample) bool {
		return !s.HasReplica && !t.InFlightOn(s.Node) &&
			s.Walks >= c.cfg.MinTickWalks &&
			s.RemoteWalkCycleFraction() >= c.cfg.TriggerFraction
	}
	// Multi-socket process: thread migration cannot make every socket
	// local, so replication is the only lever — behave on-demand.
	if len(running) > 1 {
		var acts []Action
		for _, s := range running {
			if hot(s) {
				acts = append(acts, Action{Kind: ActionReplicate, Node: s.Node})
			}
		}
		return acts
	}
	if len(running) != 1 || !hot(running[0]) {
		return nil
	}
	s := running[0]
	p := c.cost.Params()
	delta := float64(p.RemoteDRAM - p.LocalDRAM)
	horizon := float64(c.cfg.HorizonTicks)
	// Both levers make the walks local.
	walkGain := float64(s.WalkRemoteAccesses) * delta
	// Migration to the primary's socket additionally flips data locality:
	// remote data accesses (approximated as co-located with the primary
	// table) turn local, currently-local ones turn remote.
	dataLocal := float64(s.DataMemAccesses - s.DataRemoteAccesses)
	dataGain := (float64(s.DataRemoteAccesses) - dataLocal) * delta
	netRepl := horizon*walkGain - c.replicationCost(t.PTPages)
	netMigr := horizon*(walkGain+dataGain) - float64(c.cfg.MigrateCost)
	switch {
	case netMigr > netRepl && netMigr > 0:
		return []Action{{Kind: ActionMigrate, Socket: t.PrimarySocket}}
	case netRepl > 0:
		return []Action{{Kind: ActionReplicate, Node: s.Node}}
	default:
		return nil
	}
}

// PolicyNames lists the built-in replication policies.
func PolicyNames() []string { return []string{"static", "ondemand", "costadaptive"} }
