package mitosis

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/mitosis-project/mitosis-sim/internal/fault"
)

// Sweep is a declarative experiment grid: the cartesian product of axis
// lists (workload x policy x socket count x fragmentation x virt) times a
// deterministic seed ladder, every cell a complete Scenario on the same
// machine. A Sweep is a *generator*: Cell(i) materializes cell i's
// Scenario from the spec alone, so a recorded sweep replays any cell
// bit-identically without storing per-cell specs. RunSweep executes the
// grid on a host-CPU worker pool over pooled, recycled systems.
type Sweep struct {
	// Name labels the sweep; cell scenario names derive from it.
	Name string `json:"name,omitempty"`
	// Machine shapes the simulated machine every cell runs on (zero = the
	// paper's platform).
	Machine SystemConfig `json:"machine,omitzero"`
	// Workloads lists paper workload names (see WorkloadNames). Required.
	Workloads []string `json:"workloads"`
	// Policies lists runtime replication policies (see Policies), plus
	// "none" for the unreplicated baseline. Default: ["none"].
	Policies []string `json:"policies,omitempty"`
	// SocketCounts lists process spans: a cell with count n runs its
	// process on sockets 0..n-1. Default: [1].
	SocketCounts []int `json:"socket_counts,omitempty"`
	// Fragmentation lists physical-memory fragmentation fractions in
	// [0,1). Default: [0].
	Fragmentation []float64 `json:"fragmentation,omitempty"`
	// Virt lists virtualization modes: false = native, true = the process
	// runs in a VM with nested paging. Default: [false].
	Virt []bool `json:"virt,omitempty"`
	// Tiers lists tier topologies in SystemConfig.Tiers form ("" = the
	// machine's own, typically flat; "cxl@0", "cxl@0,nvm@1", ...). A
	// non-empty entry overrides the machine's Tiers for that cell.
	// Default: [""].
	Tiers []string `json:"tiers,omitempty"`
	// TierPolicies lists runtime tiering policies (see TierPolicies()),
	// plus "none" for no tiering engine. Default: ["none"].
	TierPolicies []string `json:"tier_policies,omitempty"`
	// Hardware lists translation-hardware selections in
	// SystemConfig.Hardware form ("" = the machine's own backend,
	// typically the default x8664; "victima", "x8664la57", or a full
	// geometry string). A non-empty entry overrides the machine's
	// Hardware for that cell. Default: [""].
	Hardware []string `json:"hardware,omitempty"`
	// Faults lists fault plans in Scenario.Faults DSL form ("" = no
	// faults; "poison-pt:r8:p0:n1", "offline:r12:n1;pressure:r4:n0:f64",
	// ...). A non-empty entry injects that plan into the cell. Fault
	// cells must be native (virt cells cannot take faults). Default:
	// [""].
	Faults []string `json:"faults,omitempty"`

	// BaseSeed, SeedRungs and SeedStride form the seed ladder: every axis
	// combination runs once per rung r in [0,SeedRungs) with scenario seed
	// BaseSeed + r*SeedStride. Defaults: 42, 1, 1. No rung seed may be 0
	// (0 is the "default seed" sentinel in Scenario).
	BaseSeed   int64 `json:"base_seed,omitempty"`
	SeedRungs  int   `json:"seed_rungs,omitempty"`
	SeedStride int64 `json:"seed_stride,omitempty"`

	// Scale overrides the workload footprint scale (0 = calibrated).
	Scale float64 `json:"scale,omitempty"`
	// WarmupOps, when non-zero, prepends a warmup phase to every cell.
	WarmupOps int `json:"warmup_ops,omitempty"`
	// MeasureOps is each cell's measured phase length per thread.
	// Default: 2048.
	MeasureOps int `json:"measure_ops,omitempty"`
	// StrandPT places page-tables adversarially: native cells pin them on
	// the first socket outside the process's span (the paper's stranded
	// configuration); virt cells give the VM a home node there, stranding
	// guest and nested tables. Cells spanning the whole machine use node
	// 0. This gives replication policies remote-walk pressure to act on.
	StrandPT bool `json:"strand_pt,omitempty"`
}

// normalized resolves the sweep's defaults, so two sweeps generate the
// same cells iff they normalize equal. The normalized form is what
// SweepResult records.
func (sw Sweep) normalized() Sweep {
	if sw.Name == "" {
		sw.Name = "sweep"
	}
	if len(sw.Policies) == 0 {
		sw.Policies = []string{"none"}
	}
	if len(sw.SocketCounts) == 0 {
		sw.SocketCounts = []int{1}
	}
	if len(sw.Fragmentation) == 0 {
		sw.Fragmentation = []float64{0}
	}
	if len(sw.Virt) == 0 {
		sw.Virt = []bool{false}
	}
	if len(sw.Tiers) == 0 {
		sw.Tiers = []string{""}
	}
	if len(sw.TierPolicies) == 0 {
		sw.TierPolicies = []string{"none"}
	}
	if len(sw.Hardware) == 0 {
		sw.Hardware = []string{""}
	}
	if len(sw.Faults) == 0 {
		sw.Faults = []string{""}
	}
	if sw.BaseSeed == 0 {
		sw.BaseSeed = 42
	}
	if sw.SeedRungs == 0 {
		sw.SeedRungs = 1
	}
	if sw.SeedStride == 0 {
		sw.SeedStride = 1
	}
	if sw.MeasureOps == 0 {
		sw.MeasureOps = 2048
	}
	return sw
}

// Validate checks the sweep spec and returns the first problem found,
// phrased to be fixable. Individual cells additionally pass full Scenario
// validation when run.
func (sw Sweep) Validate() error {
	if err := sw.Machine.checkShape(); err != nil {
		return fmt.Errorf("sweep %q: %w", sw.Name, err)
	}
	sw = sw.normalized()
	m := sw.Machine.normalize()
	if len(sw.Workloads) == 0 {
		return fmt.Errorf("sweep %q: no workloads; list paper workload names (have %v)", sw.Name, WorkloadNames())
	}
	for _, w := range sw.Workloads {
		if _, err := NamedWorkload(w).resolve(); err != nil {
			return fmt.Errorf("sweep %q: workload %q: %w", sw.Name, w, err)
		}
	}
	for _, p := range sw.Policies {
		if p != "" && p != "none" && !slices.Contains(Policies(), p) {
			return fmt.Errorf("sweep %q: unknown policy %q (have %v, \"none\")", sw.Name, p, Policies())
		}
	}
	for _, n := range sw.SocketCounts {
		if n < 1 || n > m.Sockets {
			return fmt.Errorf("sweep %q: socket count %d out of range [1,%d]", sw.Name, n, m.Sockets)
		}
	}
	for _, f := range sw.Fragmentation {
		if f < 0 || f >= 1 {
			return fmt.Errorf("sweep %q: fragmentation %v outside [0,1)", sw.Name, f)
		}
	}
	for _, ts := range sw.Tiers {
		if ts == "" {
			continue
		}
		tn, err := parseTiers(ts)
		if err != nil {
			return fmt.Errorf("sweep %q: tiers %q: %w", sw.Name, ts, err)
		}
		for _, t := range tn {
			if int(t.Home) >= m.Sockets {
				return fmt.Errorf("sweep %q: tiers %q: home socket %d out of range [0,%d)", sw.Name, ts, t.Home, m.Sockets)
			}
		}
		cell := m
		cell.Tiers = ts
		if err := cell.checkShape(); err != nil {
			return fmt.Errorf("sweep %q: tiers %q: %w", sw.Name, ts, err)
		}
	}
	for _, tp := range sw.TierPolicies {
		if tp != "" && tp != "none" && !slices.Contains(TierPolicies(), tp) {
			return fmt.Errorf("sweep %q: unknown tier policy %q (have %v, \"none\")", sw.Name, tp, TierPolicies())
		}
		if tp != "" && tp != "none" && slices.Contains(sw.Virt, true) {
			return fmt.Errorf("sweep %q: virt cells cannot run tier policies (guest-visible tiering is not modeled); split the sweep", sw.Name)
		}
	}
	for _, hw := range sw.Hardware {
		cellMachine := m
		if hw != "" {
			cellMachine.Hardware = hw
		}
		hs, err := ParseHardware(cellMachine.Hardware)
		if err != nil {
			return fmt.Errorf("sweep %q: hardware %q: %w", sw.Name, hw, err)
		}
		if hs != (HardwareSpec{}) {
			if err := hs.translateSpec().Validate(); err != nil {
				return fmt.Errorf("sweep %q: hardware %q: %w", sw.Name, hw, err)
			}
		}
		if hs.Backend == HardwareX8664LA57 && slices.Contains(sw.Virt, true) {
			return fmt.Errorf("sweep %q: virt cells require 4-level paging; drop hardware %q or the virt axis", sw.Name, hw)
		}
	}
	for _, fp := range sw.Faults {
		if fp == "" {
			continue
		}
		plan, err := fault.ParsePlan(fp)
		if err != nil {
			return fmt.Errorf("sweep %q: faults %q: %w", sw.Name, fp, err)
		}
		// Every cell runs exactly one process on a machine with one NUMA
		// node per socket.
		if err := plan.Validate(1, m.Sockets); err != nil {
			return fmt.Errorf("sweep %q: faults %q: %w", sw.Name, fp, err)
		}
		if slices.Contains(sw.Virt, true) {
			return fmt.Errorf("sweep %q: virt cells cannot take faults (fault injection is native-only); split the sweep", sw.Name)
		}
	}
	if sw.SeedRungs < 1 {
		return fmt.Errorf("sweep %q: seed_rungs %d must be >= 1", sw.Name, sw.SeedRungs)
	}
	for r := 0; r < sw.SeedRungs; r++ {
		if sw.BaseSeed+int64(r)*sw.SeedStride == 0 {
			return fmt.Errorf("sweep %q: seed ladder rung %d lands on seed 0 (the default-seed sentinel); shift base_seed or seed_stride", sw.Name, r)
		}
	}
	if sw.Scale < 0 {
		return fmt.Errorf("sweep %q: scale %v is negative", sw.Name, sw.Scale)
	}
	if sw.WarmupOps < 0 || sw.MeasureOps <= 0 {
		return fmt.Errorf("sweep %q: warmup_ops %d / measure_ops %d invalid", sw.Name, sw.WarmupOps, sw.MeasureOps)
	}
	return nil
}

// Cells returns the total cell count of the grid.
func (sw Sweep) Cells() int {
	sw = sw.normalized()
	return len(sw.Workloads) * len(sw.Policies) * len(sw.SocketCounts) *
		len(sw.Fragmentation) * len(sw.Virt) * len(sw.Tiers) *
		len(sw.TierPolicies) * len(sw.Hardware) * len(sw.Faults) *
		sw.SeedRungs
}

// cellAxes is one cell's decoded axis tuple.
type cellAxes struct {
	workload   string
	policy     string
	sockets    int
	frag       float64
	virt       bool
	tiers      string
	tierPolicy string
	hardware   string
	faults     string
	seed       int64
}

// axes decodes cell index i (mixed radix; workload varies fastest, the
// seed rung slowest). The caller passes a normalized sweep.
func (sw Sweep) axes(i int) cellAxes {
	rem := i
	next := func(n int) int { v := rem % n; rem /= n; return v }
	ax := cellAxes{}
	ax.workload = sw.Workloads[next(len(sw.Workloads))]
	ax.policy = sw.Policies[next(len(sw.Policies))]
	ax.sockets = sw.SocketCounts[next(len(sw.SocketCounts))]
	ax.frag = sw.Fragmentation[next(len(sw.Fragmentation))]
	ax.virt = sw.Virt[next(len(sw.Virt))]
	// The tier axes sit between virt and the seed rung; their default
	// length-1 radix decodes old cell indices unchanged, so recorded flat
	// sweeps replay the same cells.
	ax.tiers = sw.Tiers[next(len(sw.Tiers))]
	ax.tierPolicy = sw.TierPolicies[next(len(sw.TierPolicies))]
	// The hardware axis sits between the tier axes and the seed rung;
	// its default length-1 radix decodes old cell indices unchanged, so
	// recorded sweeps without the axis replay the same cells.
	ax.hardware = sw.Hardware[next(len(sw.Hardware))]
	// The fault axis sits between hardware and the seed rung; its default
	// length-1 radix decodes old cell indices unchanged, so recorded
	// sweeps without the axis replay the same cells.
	ax.faults = sw.Faults[next(len(sw.Faults))]
	ax.seed = sw.BaseSeed + int64(next(sw.SeedRungs))*sw.SeedStride
	return ax
}

// Cell materializes cell i's Scenario from the spec. The mapping is part
// of the sweep's determinism contract: the same (normalized) spec and
// index always produce the same Scenario, which is how recorded sweeps
// replay individual cells.
func (sw Sweep) Cell(i int) (Scenario, error) {
	if err := sw.Validate(); err != nil {
		return Scenario{}, err
	}
	sw = sw.normalized()
	if i < 0 || i >= sw.Cells() {
		return Scenario{}, fmt.Errorf("sweep %q: cell %d out of range [0,%d)", sw.Name, i, sw.Cells())
	}
	return sw.cell(i, sw.axes(i)), nil
}

// cell builds the Scenario for a decoded cell; sw must be normalized.
func (sw Sweep) cell(i int, ax cellAxes) Scenario {
	mode := "native"
	if ax.virt {
		mode = "virt"
	}
	w := NamedWorkload(ax.workload)
	if sw.Scale > 0 {
		w.Scale = sw.Scale
	}
	p := ProcSpec{Name: "w", Workload: w}
	p.Placement.Sockets = make([]int, ax.sockets)
	for s := range p.Placement.Sockets {
		p.Placement.Sockets[s] = s
	}
	// The first socket outside the process's span (node 0 when the
	// process covers the machine): remote to the workload, so stranded
	// tables produce the remote-walk pressure policies react to.
	strand := 0
	if ax.sockets < sw.Machine.normalize().Sockets {
		strand = ax.sockets
	}
	if ax.virt {
		vm := VMSpec{}
		if sw.StrandPT {
			vm.HomeNode = strand
		}
		p.VM = &vm
	} else if sw.StrandPT {
		p.Placement.PageTables = PlaceFixed
		p.Placement.PTNode = strand
	}
	if ax.policy != "" && ax.policy != "none" {
		p.Policy.Name = ax.policy
	}
	if ax.tierPolicy != "" && ax.tierPolicy != "none" {
		p.Tiering.Policy = ax.tierPolicy
	}
	if sw.WarmupOps > 0 {
		p.Phases = append(p.Phases, Warmup(sw.WarmupOps))
	}
	p.Phases = append(p.Phases, Measure(sw.MeasureOps))
	machine := sw.Machine
	if ax.tiers != "" {
		machine.Tiers = ax.tiers
	}
	if ax.hardware != "" {
		machine.Hardware = ax.hardware
	}
	name := fmt.Sprintf("%s[%d]:%s/%s/s%d/f%g/%s/seed%d",
		sw.Name, i, ax.workload, ax.policy, ax.sockets, ax.frag, mode, ax.seed)
	// Tier components appear only for non-default axis values, keeping
	// flat cells' names — and so recorded flat sweeps — unchanged.
	if ax.tiers != "" || (ax.tierPolicy != "" && ax.tierPolicy != "none") {
		topoName := ax.tiers
		if topoName == "" {
			topoName = "flat"
		}
		tp := ax.tierPolicy
		if tp == "" {
			tp = "none"
		}
		name += fmt.Sprintf("/tiers=%s/%s", topoName, tp)
	}
	// Same non-default-only rule for the hardware axis: default cells'
	// names — and so recorded pre-axis sweeps — are unchanged.
	if ax.hardware != "" {
		name += "/hw=" + ax.hardware
	}
	// And for the fault axis.
	if ax.faults != "" {
		name += "/faults=" + ax.faults
	}
	return Scenario{
		Name:          name,
		Machine:       machine,
		Seed:          ax.seed,
		Fragmentation: ax.frag,
		Faults:        ax.faults,
		Processes:     []ProcSpec{p},
	}
}

// CellOutcome is the deterministic, diffable part of a cell's result: the
// simulated counters of the measured phase. Identical across worker
// counts, scheduling orders, engine hosts and machine recycling.
type CellOutcome struct {
	Counters Counters `json:"counters"`
	// ReplicaPTPages counts replica page-table pages the cell created.
	ReplicaPTPages uint64 `json:"replica_pt_pages"`
	// PolicyActions counts runtime-policy actions applied.
	PolicyActions int `json:"policy_actions,omitempty"`
	// TierActions counts runtime tiering actions applied (zero, and so
	// omitted, for cells without a tier policy).
	TierActions int `json:"tier_actions,omitempty"`
	// FaultsInjected counts fault events injected (zero, and so omitted,
	// for cells without a fault plan).
	FaultsInjected int `json:"faults_injected,omitempty"`
	// FaultKills counts processes killed by fault recovery (SIGBUS on an
	// unreplicated poisoned root plus OOM under pressure).
	FaultKills int `json:"fault_kills,omitempty"`
	// FaultRecoveries counts recoveries that kept the process alive
	// (page-table rebuilds plus data-page discards).
	FaultRecoveries int `json:"fault_recoveries,omitempty"`
}

// CellResult is one completed cell: its axis tuple, the deterministic
// outcome, and host-side timing (the only non-deterministic field).
type CellResult struct {
	Index         int     `json:"index"`
	Name          string  `json:"name"`
	Workload      string  `json:"workload"`
	Policy        string  `json:"policy"`
	Sockets       int     `json:"sockets"`
	Fragmentation float64 `json:"fragmentation"`
	Virt          bool    `json:"virt,omitempty"`
	Tiers         string  `json:"tiers,omitempty"`
	TierPolicy    string  `json:"tier_policy,omitempty"`
	Hardware      string  `json:"hardware,omitempty"`
	Faults        string  `json:"faults,omitempty"`
	Seed          int64   `json:"seed"`
	// Outcome is empty when Error is set.
	Outcome CellOutcome `json:"outcome"`
	// SimOps is the cell's total simulated operations (all phases).
	SimOps uint64 `json:"sim_ops"`
	// HostNS is the cell's host wall time in nanoseconds. Never compare
	// it across runs — it is the one field outside the determinism
	// contract.
	HostNS int64  `json:"host_ns"`
	Error  string `json:"error,omitempty"`
}

// SweepEvent is one progress notification: Cell just completed, Done of
// Total cells are finished. Events arrive in completion order on the
// collector goroutine.
type SweepEvent struct {
	Done  int
	Total int
	Cell  *CellResult
}

// SweepResult aggregates a sweep run: the normalized spec (sufficient to
// regenerate and replay every cell), per-cell results ordered by index,
// and host throughput.
type SweepResult struct {
	Sweep   Sweep `json:"sweep"`
	Workers int   `json:"workers"`
	// WallSec is the whole sweep's host wall time.
	WallSec float64 `json:"wall_sec"`
	// SimOps sums simulated operations across cells.
	SimOps uint64 `json:"sim_ops"`
	// HostOpsPerSec is SimOps/WallSec — the simulator-speed figure CI
	// diffs against its committed baseline.
	HostOpsPerSec float64 `json:"host_ops_per_sec"`
	// Errors counts failed cells (their CellResult carries the message).
	Errors int          `json:"errors"`
	Cells  []CellResult `json:"cells"`
}

// OutcomesJSON serializes only the deterministic per-cell payload (index,
// name, seed, outcome), ordered by index. Two runs of the same spec must
// produce byte-identical OutcomesJSON regardless of worker count or
// scheduling — the form determinism tests and outcome diffing use.
func (r *SweepResult) OutcomesJSON() ([]byte, error) {
	type det struct {
		Index   int         `json:"index"`
		Name    string      `json:"name"`
		Seed    int64       `json:"seed"`
		Outcome CellOutcome `json:"outcome"`
		Error   string      `json:"error,omitempty"`
	}
	out := make([]det, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = det{Index: c.Index, Name: c.Name, Seed: c.Seed, Outcome: c.Outcome, Error: c.Error}
	}
	return json.MarshalIndent(out, "", " ")
}

// sweepConfig collects RunSweep options.
type sweepConfig struct {
	workers     int
	limit       int
	shuffleSeed int64
	obs         func(SweepEvent)
}

// SweepOpt tunes one RunSweep invocation (host-side knobs only; no option
// may alter cell outcomes).
type SweepOpt func(*sweepConfig)

// WithSweepWorkers sets the worker-pool size (default: the host CPU
// count). Cell outcomes are identical for any worker count.
func WithSweepWorkers(n int) SweepOpt { return func(c *sweepConfig) { c.workers = n } }

// WithSweepLimit truncates the run to the first n cells of the grid
// (quick CI subsets). 0 = all cells.
func WithSweepLimit(n int) SweepOpt { return func(c *sweepConfig) { c.limit = n } }

// WithSweepShuffle dispatches cells to workers in a seed-shuffled order
// instead of index order. Outcomes are identical by the determinism
// contract; determinism stress tests use it to vary completion order.
func WithSweepShuffle(seed int64) SweepOpt { return func(c *sweepConfig) { c.shuffleSeed = seed } }

// WithSweepProgress streams per-cell completion events to f (called on
// the collector goroutine, in completion order).
func WithSweepProgress(f func(SweepEvent)) SweepOpt { return func(c *sweepConfig) { c.obs = f } }

// RunSweep executes the sweep's cells on a worker pool and aggregates the
// results. Each worker holds one system, pooled and recycled via Reset
// between cells, and runs independent scenarios; per-cell results stream
// over an internal channel to a collector that fires progress events and
// assembles the index-ordered result. Cell outcomes are bit-identical for
// any worker count and dispatch order, and to a fresh boot per cell
// (ReplayCell); a cell failure is recorded in its CellResult rather than
// aborting the sweep.
func RunSweep(sw Sweep, opts ...SweepOpt) (*SweepResult, error) {
	cfg := sweepConfig{workers: runtime.NumCPU()}
	for _, o := range opts {
		o(&cfg)
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	norm := sw.normalized()
	total := norm.Cells()
	if cfg.limit > 0 && cfg.limit < total {
		total = cfg.limit
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.workers > total {
		cfg.workers = total
	}
	order := make([]int, total)
	for i := range order {
		order[i] = i
	}
	if cfg.shuffleSeed != 0 {
		rand.New(rand.NewSource(cfg.shuffleSeed)).Shuffle(total, func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
	}

	start := time.Now()
	jobs := make(chan int)
	results := make(chan CellResult, cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sys *System
			defer func() {
				if sys != nil {
					sys.Release()
				}
			}()
			// pooled hands each cell this worker's system, Reset after
			// its previous cell. The tier and hardware axes give cells
			// different machine shapes: a mismatched system is parked in
			// its own pool (another worker on a same-shape cell picks it
			// up) and a matching one acquired.
			pooled := func(cfg SystemConfig) *System {
				if sys != nil && sys.Config() != cfg.normalize() {
					sys.Release()
					sys = nil
				}
				if sys == nil {
					sys = AcquireSystem(cfg)
				}
				return sys
			}
			for idx := range jobs {
				results <- norm.runCell(idx, pooled)
				sys.Reset()
			}
		}()
	}
	go func() {
		for _, i := range order {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	res := &SweepResult{
		Sweep:   norm,
		Workers: cfg.workers,
		Cells:   make([]CellResult, total),
	}
	done := 0
	for cr := range results {
		res.Cells[cr.Index] = cr
		done++
		if cr.Error != "" {
			res.Errors++
		}
		res.SimOps += cr.SimOps
		if cfg.obs != nil {
			cfg.obs(SweepEvent{Done: done, Total: total, Cell: &res.Cells[cr.Index]})
		}
	}
	res.WallSec = time.Since(start).Seconds()
	if res.WallSec > 0 {
		res.HostOpsPerSec = float64(res.SimOps) / res.WallSec
	}
	return res, nil
}

// runCell executes one cell on the system that system returns for the
// cell's machine: a pooled one in RunSweep, a freshly booted one in
// ReplayCell. Either is indistinguishable from a fresh boot. Cells run on
// the sequential engine: a sweep's parallelism is its cells.
func (sw Sweep) runCell(idx int, system func(SystemConfig) *System) CellResult {
	ax := sw.axes(idx)
	sc := sw.cell(idx, ax)
	cr := CellResult{
		Index:         idx,
		Name:          sc.Name,
		Workload:      ax.workload,
		Policy:        ax.policy,
		Sockets:       ax.sockets,
		Fragmentation: ax.frag,
		Virt:          ax.virt,
		Tiers:         ax.tiers,
		Hardware:      ax.hardware,
		Faults:        ax.faults,
		Seed:          ax.seed,
	}
	if ax.tierPolicy != "" && ax.tierPolicy != "none" {
		cr.TierPolicy = ax.tierPolicy
	}
	begin := time.Now()
	rr, err := system(sc.Machine).Run(sc, WithEngine(SequentialEngine))
	cr.HostNS = time.Since(begin).Nanoseconds()
	if err != nil {
		cr.Error = err.Error()
		return cr
	}
	for i := range rr.Phases {
		cr.SimOps += rr.Phases[i].Counters.Ops
	}
	cr.Outcome.ReplicaPTPages = rr.ReplicaPTPages
	if m := rr.Measured(""); m != nil {
		cr.Outcome.Counters = m.Counters
	}
	for i := range rr.Policies {
		cr.Outcome.PolicyActions += len(rr.Policies[i].Actions)
	}
	for i := range rr.Tiering {
		cr.Outcome.TierActions += len(rr.Tiering[i].Actions)
	}
	if rr.Faults != nil {
		cr.Outcome.FaultsInjected = rr.Faults.Injected
		cr.Outcome.FaultKills = rr.Faults.SigbusKills + rr.Faults.OOMKills
		cr.Outcome.FaultRecoveries = rr.Faults.PTRebuilds + rr.Faults.DataDiscards
	}
	return cr
}

// ReplayCell re-executes cell idx on a freshly booted system and returns
// its result. By the determinism contract the outcome is bit-identical to
// the cell's entry in any recorded run of the same normalized spec — the
// single-cell replay path for recorded sweeps (a run failure is recorded
// in the result's Error field, like during a sweep).
func (sw Sweep) ReplayCell(idx int) (CellResult, error) {
	if err := sw.Validate(); err != nil {
		return CellResult{}, err
	}
	norm := sw.normalized()
	if idx < 0 || idx >= norm.Cells() {
		return CellResult{}, fmt.Errorf("sweep %q: cell %d out of range [0,%d)", norm.Name, idx, norm.Cells())
	}
	return norm.runCell(idx, NewSystem), nil
}

// systemPools recycles booted systems per normalized machine
// configuration: a Release'd system is Reset (pristine, fresh-boot
// equivalent) and parked; AcquireSystem hands it back out instead of
// re-allocating frame metadata, bitmaps and cache arrays. sync.Pool drops
// idle entries under GC pressure, so the pools never pin memory.
var systemPools sync.Map // SystemConfig -> *sync.Pool

// AcquireSystem returns a system for cfg from the recycling pool, booting
// a fresh one when the pool is empty. Pooled systems are bit-identically
// equivalent to NewSystem(cfg): Release resets them to fresh-boot state.
func AcquireSystem(cfg SystemConfig) *System {
	if p, ok := systemPools.Load(cfg.normalize()); ok {
		if s, _ := p.(*sync.Pool).Get().(*System); s != nil {
			return s
		}
	}
	return NewSystem(cfg)
}

// Release resets the system to fresh-boot state and parks it for reuse by
// AcquireSystem. The caller must not use the system afterwards, and must
// be quiescent (no run in flight).
func (s *System) Release() {
	s.Reset()
	p, _ := systemPools.LoadOrStore(s.cfg, &sync.Pool{})
	p.(*sync.Pool).Put(s)
}
