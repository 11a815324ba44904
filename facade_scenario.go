package mitosis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/fault"
)

// Placement policy names shared by PlacementSpec.Data and
// PlacementSpec.PageTables.
const (
	// PlaceFirstTouch allocates on the faulting core's node (the Linux
	// default, and the default here).
	PlaceFirstTouch = "first-touch"
	// PlaceInterleave round-robins data pages across all nodes.
	PlaceInterleave = "interleave"
	// PlaceBind allocates data strictly on PlacementSpec.DataNode.
	PlaceBind = "bind"
	// PlaceFixed forces page-table pages onto PlacementSpec.PTNode (the
	// paper's §3.2 stranded-table knob).
	PlaceFixed = "fixed"
)

// PlacementSpec pins a process's threads, data and page-tables.
type PlacementSpec struct {
	// Sockets lists the sockets the process runs on, one worker group per
	// socket, in order (the first is the home socket). Empty means every
	// socket. []int{0} explicitly selects socket 0.
	Sockets []int `json:"sockets,omitempty"`
	// CoresPerSocket is the number of worker cores per listed socket
	// (default 1 — the experiments' placement).
	CoresPerSocket int `json:"cores_per_socket,omitempty"`
	// Data is the data placement policy: PlaceFirstTouch (default),
	// PlaceInterleave, or PlaceBind (+ DataNode).
	Data string `json:"data,omitempty"`
	// DataNode is the node PlaceBind binds data to.
	DataNode int `json:"data_node,omitempty"`
	// PageTables is the page-table placement policy: PlaceFirstTouch
	// (default) or PlaceFixed (+ PTNode).
	PageTables string `json:"page_tables,omitempty"`
	// PTNode is the node PlaceFixed forces page-table pages onto.
	PTNode int `json:"pt_node,omitempty"`
}

// ReplicationSpec is a static page-table replication decision, applied
// once when the scenario starts (dynamic decisions belong to PolicySpec).
type ReplicationSpec struct {
	// All replicates on every node — numactl --pgtablerepl=all.
	All bool `json:"all,omitempty"`
	// Nodes replicates on the listed nodes only. Mutually exclusive with
	// All.
	Nodes []int `json:"nodes,omitempty"`
	// Eager applies the mask before the workload's Setup runs, so
	// initialization pays the update-propagation cost too (the paper's
	// Table 6 end-to-end configuration). Default: after Setup, the
	// replicate-existing-tables workflow.
	Eager bool `json:"eager,omitempty"`
}

// wants reports whether the spec asks for any replica.
func (r ReplicationSpec) wants() bool { return r.All || len(r.Nodes) > 0 }

// PolicySpec attaches a telemetry-driven replication policy (see
// Policies) that ticks at the engine's round barriers.
type PolicySpec struct {
	// Name is one of Policies(), or ""/"none" for no runtime policy.
	Name string `json:"name,omitempty"`
	// TickEvery is the tick period in rounds (default 1).
	TickEvery int `json:"tick_every,omitempty"`
	// StepPages bounds replica pages copied per tick by in-flight
	// background replication (default 64).
	StepPages int `json:"step_pages,omitempty"`
}

// TieringSpec attaches a memory-tiering policy (see TierPolicies) that
// ticks at the engine's round barriers alongside any replication policy:
// the Tracker classifies pages hot/cold from the folded access samples, the
// policy decides promotions/demotions (and page-table placement), and the
// Mover applies a bounded page budget per tick. Meaningful on machines with
// slow-tier nodes (WithTiers); on a flat machine the policy ticks but finds
// nothing to move — a valid sweep control point.
type TieringSpec struct {
	// Policy is one of TierPolicies(), or ""/"none" for no tiering.
	Policy string `json:"policy,omitempty"`
	// TickEvery is the tick period in rounds (default 1).
	TickEvery int `json:"tick_every,omitempty"`
	// StepPages bounds the 4KB pages the Mover migrates per tick (default
	// 64).
	StepPages int `json:"step_pages,omitempty"`
	// HotThreshold is the tracker's decayed-score hot cutoff (default 8).
	HotThreshold uint64 `json:"hot_threshold,omitempty"`
	// ColdTicks is the unsampled-tick streak after which a page counts as
	// cold (default 4).
	ColdTicks int `json:"cold_ticks,omitempty"`
}

// wants reports whether the spec asks for a tiering engine.
func (t TieringSpec) wants() bool { return t.Policy != "" && t.Policy != "none" }

// VM replication-mode and policy-layer selector names.
const (
	// VMReplicationNone leaves both dimensions unreplicated (default).
	VMReplicationNone = "none"
	// VMReplicationGPT replicates the guest page-table onto the vCPU
	// nodes (guest-visible NUMA, §7.4).
	VMReplicationGPT = "gpt"
	// VMReplicationEPT replicates the nested (extended) page-table onto
	// the vCPU nodes with the ordinary Mitosis machinery.
	VMReplicationEPT = "ept"
	// VMReplicationBoth replicates both dimensions.
	VMReplicationBoth = "both"
)

// VMSpec runs a process inside a virtual machine with hardware-assisted
// nested paging: its address space becomes a guest page-table whose pages
// live in guest-physical memory, translated by the VM's nested table, so
// every TLB miss performs the two-dimensional walk of §7.4 (up to 24
// NUMA-sensitive accesses). The process's Placement is the vCPU
// placement: Sockets pins the vCPUs, and the data policy picks where
// guest frames are host-backed. Guest and nested page-tables are built on
// HomeNode (the node the VM "booted" on) unless Placement.PageTables
// overrides the guest side.
type VMSpec struct {
	// HomeNode is where the hypervisor builds the nested table and the
	// guest kernel builds its page-tables. A HomeNode remote to the vCPU
	// sockets reproduces the paper's migrated-VM worst case.
	HomeNode int `json:"home_node"`
	// Replication statically replicates page-table dimensions onto the
	// vCPU nodes when the scenario starts (after workload Setup):
	// VMReplicationNone (default), VMReplicationGPT, VMReplicationEPT or
	// VMReplicationBoth.
	Replication string `json:"replication,omitempty"`
	// PolicyLayers selects which dimensions a runtime policy's
	// replicate/drop actions act on: "gpt", "ept" or "both" (default) —
	// gPT and ePT replication are driven independently.
	PolicyLayers string `json:"policy_layers,omitempty"`
}

// validate checks the VM section against the machine shape.
func (v VMSpec) validate(where string, sockets int) error {
	if v.HomeNode < 0 || v.HomeNode >= sockets {
		return fmt.Errorf("%s: vm home_node %d out of range [0,%d)", where, v.HomeNode, sockets)
	}
	switch v.Replication {
	case "", VMReplicationNone, VMReplicationGPT, VMReplicationEPT, VMReplicationBoth:
	default:
		return fmt.Errorf("%s: vm replication %q invalid (have %q, %q, %q, %q)", where,
			v.Replication, VMReplicationNone, VMReplicationGPT, VMReplicationEPT, VMReplicationBoth)
	}
	switch v.PolicyLayers {
	case "", VMReplicationGPT, VMReplicationEPT, VMReplicationBoth:
	default:
		return fmt.Errorf("%s: vm policy_layers %q invalid (have %q, %q, %q)", where,
			v.PolicyLayers, VMReplicationGPT, VMReplicationEPT, VMReplicationBoth)
	}
	return nil
}

// PhaseSpec is one step of a process's run: optional pre-actions (process
// migration, Mitosis page-table migration, an AutoNUMA scan) followed by
// Ops operations per thread on the deterministic engine.
type PhaseSpec struct {
	// Name labels the phase in results (default "phaseN").
	Name string `json:"name,omitempty"`
	// Ops is the operation count per thread. Zero is allowed for
	// action-only phases.
	Ops int `json:"ops,omitempty"`
	// Warmup marks the phase as warmup: it runs and is reported, but
	// RunResult.Measured skips it.
	Warmup bool `json:"warmup,omitempty"`
	// IncludeSetup measures without resetting the counters first, so
	// allocation and initialization cycles are included (Table 6).
	IncludeSetup bool `json:"include_setup,omitempty"`
	// AutoNUMA runs an AutoNUMA data-migration scan before the phase.
	AutoNUMA bool `json:"autonuma,omitempty"`
	// MigrateTo moves the process to the given socket before the phase.
	// Data follows; page-tables follow only with MigratePT — the
	// capability Mitosis adds (§3.2).
	MigrateTo *int `json:"migrate_to,omitempty"`
	// MigratePT makes page-tables follow a MigrateTo.
	MigratePT bool `json:"migrate_pt,omitempty"`
	// MovePT migrates the page-tables (only) to the given node before the
	// phase and pins future page-table allocations there — the "+M"
	// recovery of the workload-migration scenario.
	MovePT *int `json:"move_pt,omitempty"`
}

// Warmup returns a warmup phase of ops operations per thread.
func Warmup(ops int) PhaseSpec { return PhaseSpec{Name: "warmup", Ops: ops, Warmup: true} }

// Measure returns a measured phase of ops operations per thread.
func Measure(ops int) PhaseSpec { return PhaseSpec{Name: "measure", Ops: ops} }

// ProcSpec describes one process of a scenario: what it runs, where it is
// placed, how its page-tables replicate, and its phase schedule.
type ProcSpec struct {
	// Name labels the process; it must be unique within the scenario.
	Name string `json:"name"`
	// Workload is the benchmark model the process executes.
	Workload WorkloadSpec `json:"workload"`
	// Placement pins threads, data and page-tables.
	Placement PlacementSpec `json:"placement,omitzero"`
	// Replication is the static replication decision.
	Replication ReplicationSpec `json:"replication,omitzero"`
	// Policy is the runtime replication policy.
	Policy PolicySpec `json:"policy,omitzero"`
	// Tiering is the runtime memory-tiering policy.
	Tiering TieringSpec `json:"tiering,omitzero"`
	// VM, when set, runs the process inside a virtual machine with nested
	// paging (see VMSpec).
	VM *VMSpec `json:"vm,omitempty"`
	// Phases is the execution schedule; at least one phase is required.
	Phases []PhaseSpec `json:"phases"`
}

// ProcOpt tweaks a ProcSpec under construction.
type ProcOpt func(*ProcSpec)

// NewProc builds a ProcSpec for a workload with the given options.
func NewProc(name string, w WorkloadSpec, opts ...ProcOpt) ProcSpec {
	p := ProcSpec{Name: name, Workload: w}
	for _, o := range opts {
		o(&p)
	}
	return p
}

// OnSockets pins the process to the listed sockets ([]int{0} is
// explicitly socket 0; omit the option for every socket).
func OnSockets(sockets ...int) ProcOpt {
	return func(p *ProcSpec) { p.Placement.Sockets = sockets }
}

// WithCoresPerSocket sets the worker-core count per listed socket.
func WithCoresPerSocket(n int) ProcOpt {
	return func(p *ProcSpec) { p.Placement.CoresPerSocket = n }
}

// WithDataPolicy sets the data placement policy (PlaceFirstTouch or
// PlaceInterleave; use WithDataBind for PlaceBind).
func WithDataPolicy(policy string) ProcOpt {
	return func(p *ProcSpec) { p.Placement.Data = policy }
}

// WithDataBind binds all data pages to one node.
func WithDataBind(node int) ProcOpt {
	return func(p *ProcSpec) { p.Placement.Data = PlaceBind; p.Placement.DataNode = node }
}

// WithPTNode forces page-table pages onto one node (the stranded-table
// configuration of §3.2).
func WithPTNode(node int) ProcOpt {
	return func(p *ProcSpec) { p.Placement.PageTables = PlaceFixed; p.Placement.PTNode = node }
}

// WithReplication sets the static replication decision.
func WithReplication(r ReplicationSpec) ProcOpt {
	return func(p *ProcSpec) { p.Replication = r }
}

// UnderPolicy attaches a runtime replication policy by name (see
// Policies).
func UnderPolicy(name string) ProcOpt {
	return func(p *ProcSpec) { p.Policy.Name = name }
}

// WithPolicySpec attaches a runtime replication policy with explicit
// engine knobs.
func WithPolicySpec(ps PolicySpec) ProcOpt {
	return func(p *ProcSpec) { p.Policy = ps }
}

// UnderTierPolicy attaches a runtime memory-tiering policy by name (see
// TierPolicies).
func UnderTierPolicy(name string) ProcOpt {
	return func(p *ProcSpec) { p.Tiering.Policy = name }
}

// WithTiering attaches a runtime memory-tiering policy with explicit
// tracker/mover knobs.
func WithTiering(ts TieringSpec) ProcOpt {
	return func(p *ProcSpec) { p.Tiering = ts }
}

// WithPhases sets the execution schedule.
func WithPhases(phases ...PhaseSpec) ProcOpt {
	return func(p *ProcSpec) { p.Phases = phases }
}

// WithVM runs the process inside a virtual machine with nested paging.
// The process's placement becomes the vCPU placement; spec.HomeNode is
// where the guest and nested page-tables are built.
func WithVM(spec VMSpec) ProcOpt {
	return func(p *ProcSpec) { v := spec; p.VM = &v }
}

// Scenario is a complete, serializable experiment description: a machine,
// the processes on it, and everything the paper's runs vary — workloads,
// placement, replication, policies, phases, interference, fragmentation.
// Scenario values round-trip through JSON and validate strictly; Run
// executes them on the deterministic engine.
type Scenario struct {
	// Name labels the scenario in records.
	Name string `json:"name,omitempty"`
	// Machine shapes the simulated machine (zero = the paper's platform;
	// when running on an existing System, zero inherits its machine).
	Machine SystemConfig `json:"machine,omitzero"`
	// Seed drives all randomness (0 = 42).
	Seed int64 `json:"seed,omitempty"`
	// Fragmentation pre-fragments every node's physical memory by the
	// given fraction in [0,1), defeating huge-page allocation (Figure 11).
	Fragmentation float64 `json:"fragmentation,omitempty"`
	// Interference lists nodes whose memory bandwidth a co-located hog
	// loads for the whole run (§3.2's interference configurations).
	Interference []int `json:"interference,omitempty"`
	// Faults is a deterministic fault-injection plan in the fault DSL
	// (';'-separated events, e.g. "poison-pt:r8:p0:n1;offline:r12:n2" —
	// see internal/fault.ParsePlan). Events fire at the cumulative
	// round-barrier clock that advances across all processes and phases
	// in execution order; recovery runs synchronously at the same
	// barrier. Empty means no faults, leaving every path untouched.
	Faults string `json:"faults,omitempty"`
	// Processes run in order: each process executes its full phase
	// schedule before the next starts (the engine drives one process at a
	// time; simultaneity is modeled via Interference).
	Processes []ProcSpec `json:"processes"`
}

// ScenarioOpt tweaks a Scenario under construction.
type ScenarioOpt func(*Scenario)

// NewScenario builds a scenario with the given options.
func NewScenario(name string, opts ...ScenarioOpt) Scenario {
	sc := Scenario{Name: name}
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// OnMachine sets the machine configuration.
func OnMachine(cfg SystemConfig) ScenarioOpt { return func(s *Scenario) { s.Machine = cfg } }

// WithSeed sets the scenario seed.
func WithSeed(seed int64) ScenarioOpt { return func(s *Scenario) { s.Seed = seed } }

// WithFragmentation pre-fragments physical memory by the given fraction.
func WithFragmentation(f float64) ScenarioOpt { return func(s *Scenario) { s.Fragmentation = f } }

// WithInterference marks nodes as bandwidth-loaded for the whole run.
func WithInterference(nodes ...int) ScenarioOpt {
	return func(s *Scenario) { s.Interference = nodes }
}

// WithFaults sets the fault-injection plan (the fault DSL, e.g.
// "poison-pt:r8:p0:n1;pressure:r4:n0:f4096").
func WithFaults(plan string) ScenarioOpt {
	return func(s *Scenario) { s.Faults = plan }
}

// WithProc appends a process.
func WithProc(p ProcSpec) ScenarioOpt {
	return func(s *Scenario) { s.Processes = append(s.Processes, p) }
}

// WithTiers appends slow-tier memory nodes (CXL/NVM) to the machine, in
// order, after the per-socket DRAM nodes: the first listed tier becomes
// node Sockets, the next Sockets+1, and so on.
func WithTiers(tiers ...TierSpec) ScenarioOpt {
	return func(s *Scenario) { s.Machine.Tiers = tierString(tiers) }
}

// validate checks the placement against a concrete machine shape. Data and
// page-table nodes range over all memory nodes (DRAM plus slow tiers):
// binding data — or stranding page-tables — on a CXL/NVM node is exactly
// the experiment the tier dimension adds.
func (pl PlacementSpec) validate(where string, sockets, coresPerSocket, nodes int) error {
	seen := map[int]bool{}
	for _, s := range pl.Sockets {
		if s < 0 || s >= sockets {
			return fmt.Errorf("%s: socket %d out of range [0,%d)", where, s, sockets)
		}
		if seen[s] {
			return fmt.Errorf("%s: socket %d listed twice", where, s)
		}
		seen[s] = true
	}
	if pl.CoresPerSocket < 0 || pl.CoresPerSocket > coresPerSocket {
		return fmt.Errorf("%s: cores_per_socket %d out of range [0,%d]", where, pl.CoresPerSocket, coresPerSocket)
	}
	switch pl.Data {
	case "", PlaceFirstTouch, PlaceInterleave:
		if pl.DataNode != 0 {
			return fmt.Errorf("%s: data_node %d set but data policy is %q; use %q", where, pl.DataNode, pl.Data, PlaceBind)
		}
	case PlaceBind:
		if pl.DataNode < 0 || pl.DataNode >= nodes {
			return fmt.Errorf("%s: data_node %d out of range [0,%d)", where, pl.DataNode, nodes)
		}
	default:
		return fmt.Errorf("%s: data policy %q invalid (have %q, %q, %q)", where, pl.Data, PlaceFirstTouch, PlaceInterleave, PlaceBind)
	}
	switch pl.PageTables {
	case "", PlaceFirstTouch:
		if pl.PTNode != 0 {
			return fmt.Errorf("%s: pt_node %d set but page_tables policy is %q; use %q", where, pl.PTNode, pl.PageTables, PlaceFixed)
		}
	case PlaceFixed:
		if pl.PTNode < 0 || pl.PTNode >= nodes {
			return fmt.Errorf("%s: pt_node %d out of range [0,%d)", where, pl.PTNode, nodes)
		}
	default:
		return fmt.Errorf("%s: page_tables policy %q invalid (have %q, %q)", where, pl.PageTables, PlaceFirstTouch, PlaceFixed)
	}
	return nil
}

// Validate checks the scenario end to end and returns the first problem
// found, phrased to be fixable. It is called automatically by Run,
// MarshalJSON and UnmarshalJSON.
func (sc Scenario) Validate() error {
	m := sc.Machine.normalize()
	if err := sc.Machine.checkShape(); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if sc.Fragmentation < 0 || sc.Fragmentation >= 1 {
		return fmt.Errorf("scenario %q: fragmentation %v outside [0,1)", sc.Name, sc.Fragmentation)
	}
	tiers, err := parseTiers(m.Tiers)
	if err != nil {
		return fmt.Errorf("scenario %q: machine tiers: %w", sc.Name, err)
	}
	for i, tn := range tiers {
		if int(tn.Home) >= m.Sockets {
			return fmt.Errorf("scenario %q: tier %d home socket %d out of range [0,%d)", sc.Name, i, tn.Home, m.Sockets)
		}
	}
	hs, err := ParseHardware(m.Hardware)
	if err != nil {
		return fmt.Errorf("scenario %q: machine hardware: %w", sc.Name, err)
	}
	if hs != (HardwareSpec{}) {
		if err := hs.translateSpec().Validate(); err != nil {
			return fmt.Errorf("scenario %q: machine hardware %q: %w", sc.Name, m.Hardware, err)
		}
	}
	nodes := m.Sockets + len(tiers)
	for _, n := range sc.Interference {
		if n < 0 || n >= nodes {
			return fmt.Errorf("scenario %q: interference node %d out of range [0,%d)", sc.Name, n, nodes)
		}
	}
	if len(sc.Processes) == 0 {
		return fmt.Errorf("scenario %q has no processes; add one with mitosis.WithProc(mitosis.NewProc(...))", sc.Name)
	}
	faultPlan, err := fault.ParsePlan(sc.Faults)
	if err != nil {
		return fmt.Errorf("scenario %q: faults: %w", sc.Name, err)
	}
	if err := faultPlan.Validate(len(sc.Processes), nodes); err != nil {
		return fmt.Errorf("scenario %q: faults: %w", sc.Name, err)
	}
	if !faultPlan.Empty() {
		for i, p := range sc.Processes {
			if p.VM != nil {
				return fmt.Errorf("scenario %q: faults set but process[%d] %q is virtualized; fault injection is native-only", sc.Name, i, p.Name)
			}
		}
	}
	names := map[string]bool{}
	for i, p := range sc.Processes {
		where := fmt.Sprintf("scenario %q: process[%d] %q", sc.Name, i, p.Name)
		if p.Name == "" {
			return fmt.Errorf("scenario %q: process[%d] has no name", sc.Name, i)
		}
		if names[p.Name] {
			return fmt.Errorf("%s: duplicate process name", where)
		}
		names[p.Name] = true
		if err := p.Workload.validate(where); err != nil {
			return err
		}
		if err := p.Placement.validate(where, m.Sockets, m.CoresPerSocket, nodes); err != nil {
			return err
		}
		if p.VM != nil {
			if err := p.VM.validate(where, m.Sockets); err != nil {
				return err
			}
			if p.Replication.wants() {
				return fmt.Errorf("%s: host replication spec set on a virtualized process; use vm.replication (%q/%q/%q) instead", where,
					VMReplicationGPT, VMReplicationEPT, VMReplicationBoth)
			}
			if hs.Backend == HardwareX8664LA57 {
				return fmt.Errorf("%s: vm requires 4-level paging (guest tables are 4-level); use a 4-level hardware backend", where)
			}
			if p.Tiering.wants() {
				return fmt.Errorf("%s: tiering policy set on a virtualized process; guest-visible tiering is not modeled", where)
			}
		}
		if tp := p.Tiering.Policy; tp != "" && tp != "none" && !slices.Contains(TierPolicies(), tp) {
			return fmt.Errorf("%s: unknown tier policy %q (have %v, \"none\")", where, tp, TierPolicies())
		}
		if p.Tiering.TickEvery < 0 || p.Tiering.StepPages < 0 || p.Tiering.ColdTicks < 0 {
			return fmt.Errorf("%s: tiering tick_every/step_pages/cold_ticks must be non-negative", where)
		}
		if p.Replication.All && len(p.Replication.Nodes) > 0 {
			return fmt.Errorf("%s: replication sets both all and an explicit node list; pick one", where)
		}
		if p.Replication.Eager && !p.Replication.wants() {
			return fmt.Errorf("%s: replication.eager set without any target; set all or a node list", where)
		}
		for _, n := range p.Replication.Nodes {
			if n < 0 || n >= m.Sockets {
				return fmt.Errorf("%s: replication node %d out of range [0,%d)", where, n, m.Sockets)
			}
		}
		if pn := p.Policy.Name; pn != "" && pn != "none" && !slices.Contains(Policies(), pn) {
			return fmt.Errorf("%s: unknown policy %q (have %v, \"none\")", where, pn, Policies())
		}
		if p.Policy.TickEvery < 0 || p.Policy.StepPages < 0 {
			return fmt.Errorf("%s: policy tick_every/step_pages must be non-negative", where)
		}
		if len(p.Phases) == 0 {
			return fmt.Errorf("%s: no phases; add e.g. mitosis.WithPhases(mitosis.Measure(20000))", where)
		}
		for pi, ph := range p.Phases {
			pw := fmt.Sprintf("%s: phase[%d] %q", where, pi, ph.Name)
			if ph.Ops < 0 {
				return fmt.Errorf("%s: ops %d is negative", pw, ph.Ops)
			}
			if ph.Ops == 0 && !ph.AutoNUMA && ph.MigrateTo == nil && ph.MovePT == nil {
				return fmt.Errorf("%s: does nothing; set ops or a pre-action (autonuma/migrate_to/move_pt)", pw)
			}
			if ph.MigrateTo != nil && (*ph.MigrateTo < 0 || *ph.MigrateTo >= m.Sockets) {
				return fmt.Errorf("%s: migrate_to socket %d out of range [0,%d)", pw, *ph.MigrateTo, m.Sockets)
			}
			if ph.MigratePT && ph.MigrateTo == nil {
				return fmt.Errorf("%s: migrate_pt set without migrate_to; page-tables can only follow a migration", pw)
			}
			if ph.MovePT != nil && (*ph.MovePT < 0 || *ph.MovePT >= nodes) {
				return fmt.Errorf("%s: move_pt node %d out of range [0,%d)", pw, *ph.MovePT, nodes)
			}
			if p.VM != nil && (ph.MigratePT || ph.MovePT != nil) {
				return fmt.Errorf("%s: migrate_pt/move_pt act on the host table; a virtualized process recovers locality via vm.replication or a policy", pw)
			}
		}
	}
	return nil
}

// ScenarioVersion is the serialization format version MarshalJSON writes
// and UnmarshalJSON requires.
const ScenarioVersion = 1

// scenarioJSON is the wire form: Scenario plus a version stamp.
type scenarioJSON struct {
	Version       int          `json:"version"`
	Name          string       `json:"name,omitempty"`
	Machine       SystemConfig `json:"machine,omitzero"`
	Seed          int64        `json:"seed,omitempty"`
	Fragmentation float64      `json:"fragmentation,omitempty"`
	Interference  []int        `json:"interference,omitempty"`
	Faults        string       `json:"faults,omitempty"`
	Processes     []ProcSpec   `json:"processes"`
}

// MarshalJSON validates the scenario and writes it with a format version,
// so records are always replayable specs.
func (sc Scenario) MarshalJSON() ([]byte, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("mitosis: marshaling invalid scenario: %w", err)
	}
	return json.Marshal(scenarioJSON{
		Version:       ScenarioVersion,
		Name:          sc.Name,
		Machine:       sc.Machine,
		Seed:          sc.Seed,
		Fragmentation: sc.Fragmentation,
		Interference:  sc.Interference,
		Faults:        sc.Faults,
		Processes:     sc.Processes,
	})
}

// UnmarshalJSON reads a scenario strictly: unknown fields, a missing or
// wrong version, and invalid specs are all errors with actionable
// messages.
func (sc *Scenario) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j scenarioJSON
	if err := dec.Decode(&j); err != nil {
		return fmt.Errorf("mitosis: scenario JSON: %w", err)
	}
	if j.Version != ScenarioVersion {
		return fmt.Errorf("mitosis: scenario JSON version %d; this build reads version %d", j.Version, ScenarioVersion)
	}
	out := Scenario{
		Name:          j.Name,
		Machine:       j.Machine,
		Seed:          j.Seed,
		Fragmentation: j.Fragmentation,
		Interference:  j.Interference,
		Faults:        j.Faults,
		Processes:     j.Processes,
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*sc = out
	return nil
}
