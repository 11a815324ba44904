package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
)

// The paper's §8 headline speedups the simulated ones are compared with:
// Figure 9a XSBench (F / F+M) and Figure 10a GUPS (RPI-LD / RPI-LD+M).
const (
	paperMultisocketSpeedup = 1.34
	paperMigrationSpeedup   = 3.24
)

// params is what one job needs besides its workload.
type params struct {
	seed  int64
	quick bool
	// serial runs the job with one host worker (sweep and churn workers,
	// or the sequential engine) instead of the default, for the scaling
	// metric.
	serial bool
	// tr records spans under parent; nil for untraced jobs.
	tr     *tracer
	parent int
}

// hostWorkers is the host parallelism of a job: two workers, or fewer on
// a host with fewer CPUs, so the load never exceeds the host's cores.
func (p params) hostWorkers() int {
	if p.serial {
		return 1
	}
	return min(2, runtime.NumCPU())
}

// engine returns the engine mode of scenario runs: the default auto mode,
// or the sequential engine for the serial side of the scaling metric.
func (p params) engine() mitosis.EngineMode {
	if p.serial {
		return mitosis.SequentialEngine
	}
	return mitosis.AutoEngine
}

// pick returns full, or quick in the reduced-size mode tests use.
func (p params) pick(full, quick int) int {
	if p.quick {
		return quick
	}
	return full
}

// metric is one measured value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jobResult is the outcome of one job: one closed-loop unit of simulated
// work.
type jobResult struct {
	simOps uint64
	// outputs are the job's deterministic outputs; sim_digest hashes them.
	outputs any
	// info holds the deterministic per-layer counters and the accuracy
	// figures; they repeat exactly for a seed.
	info map[string]metric
	// cellMS is the host time of each sweep cell (fleet only).
	cellMS []float64
	// churn is compared across jobs with ChurnResult.DeterministicEquals.
	churn *mitosis.ChurnResult
	// check is the first correctness check the job failed, or nil.
	check error
	// peakRSSMB is the process's peak resident set size during the job.
	peakRSSMB float64
}

// digest is the SHA-256 of the canonical JSON of the job's deterministic
// outputs: equal digests mean the simulated results are unchanged.
func (r jobResult) digest() string {
	b, err := json.Marshal(r.outputs)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// replaySpec describes the machine and process the layer replay drives.
type replaySpec struct {
	// machines are the machine shapes the job boots; the first hosts the
	// replay.
	machines []mitosis.SystemConfig
	// proc is the replay's steady process: its placement and replication,
	// and the workload whose op stream drives the layers. Without a
	// workload the process populates a region and accesses it uniformly.
	proc mitosis.ProcSpec
	// regionPages sizes that region when proc has no workload.
	regionPages int
	// fragmentation pre-ages the replay machine's memory.
	fragmentation float64
	// churn, when set, makes the round replay a churn fault storm: one
	// process per socket faulting its pages in, exiting and respawning.
	churn *mitosis.Churn
	// cells, when set, are run one by one with an observer, so sweep cells
	// report engine rounds and pooled resets.
	cells []mitosis.Scenario
}

// workload is one benchmark workload: a job the closed loop repeats, the
// same job cut to its set-up, and the replay that times single layers.
type workload struct {
	name string
	job  func(p params) (jobResult, error)
	// setup runs the job with its measured work cut to the minimum.
	setup  func(p params) error
	replay func(p params) replaySpec
}

// workloadTable lists the workloads; BENCHMARK.json and README.md say why
// each exists and which layers it loads.
var workloadTable = []*workload{
	{
		name:   "multisocket",
		job:    multisocketJob,
		setup:  multisocketSetup,
		replay: multisocketReplay,
	},
	{
		name:   "migration",
		job:    migrationJob,
		setup:  migrationSetup,
		replay: migrationReplay,
	},
	{
		name:   "churn",
		job:    churnJob,
		setup:  churnSetup,
		replay: churnReplay,
	},
	{
		name:   "fleet",
		job:    fleetJob,
		setup:  fleetSetup,
		replay: fleetReplay,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloadTable {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runScenario boots a fresh system for sc and runs it, timing the boot and
// (when traced) the run's setup, phases, phase actions and rounds.
func runScenario(p params, sc mitosis.Scenario) (*mitosis.RunResult, *mitosis.System, error) {
	t0 := time.Now()
	sys := mitosis.NewSystem(sc.Machine)
	p.tr.add("mitosis.boot", p.parent, t0, time.Now())
	rr, err := runOn(p, sys, sc)
	return rr, sys, err
}

// runOn runs sc on sys with the job's engine mode and, when traced, an
// observer that turns round ticks into spans.
func runOn(p params, sys *mitosis.System, sc mitosis.Scenario) (*mitosis.RunResult, error) {
	opts := []mitosis.RunOpt{mitosis.WithEngine(p.engine())}
	id := p.tr.open("mitosis.run", p.parent)
	var obs *runObserver
	if p.tr != nil {
		obs = &runObserver{tr: p.tr, parent: id, start: time.Now()}
		opts = append(opts, mitosis.WithObserver(obs))
	}
	rr, err := sys.Run(sc, opts...)
	if obs != nil {
		obs.finish()
	}
	p.tr.close(id)
	return rr, err
}

// runObserver times one Run from outside through its round ticks: the
// setup before the first round, each phase from its first to its last
// tick, the kernel actions between phases, and every round in between.
type runObserver struct {
	tr         *tracer
	parent     int
	start      time.Time
	last       time.Time
	phase      string
	phaseStart time.Time
	ticks      int
}

func (o *runObserver) RoundTick(ev mitosis.TickEvent) {
	now := time.Now()
	switch {
	case o.ticks == 0:
		o.tr.add("mitosis.setup", o.parent, o.start, now)
		o.phase, o.phaseStart = ev.Phase, now
	case ev.Phase != o.phase:
		o.tr.add("workloads.phase", o.parent, o.phaseStart, o.last)
		o.tr.add("kernel.phase_action", o.parent, o.last, now)
		o.phase, o.phaseStart = ev.Phase, now
	default:
		o.tr.event("workloads.round", now.Sub(o.last))
	}
	o.last = now
	o.ticks++
}

func (o *runObserver) finish() {
	if o.ticks > 0 {
		o.tr.add("workloads.phase", o.parent, o.phaseStart, o.last)
	}
}

// scenarioOutputs is the deterministic part of a RunResult.
type scenarioOutputs struct {
	Phases         []mitosis.PhaseResult   `json:"phases"`
	Policies       []mitosis.PolicyOutcome `json:"policies,omitempty"`
	Tiering        []mitosis.TierOutcome   `json:"tiering,omitempty"`
	Faults         *mitosis.FaultOutcome   `json:"faults,omitempty"`
	ReplicaPTPages uint64                  `json:"replica_pt_pages"`
}

func outputsOf(rr *mitosis.RunResult) scenarioOutputs {
	return scenarioOutputs{rr.Phases, rr.Policies, rr.Tiering, rr.Faults, rr.ReplicaPTPages}
}

// opsOf sums the simulated ops of every phase, warmup included: host time
// is measured over the whole job.
func opsOf(rr *mitosis.RunResult) uint64 {
	var n uint64
	for _, ph := range rr.Phases {
		n += ph.Counters.Ops
	}
	return n
}

// tlbMissRate is the TLB miss rate of the process's cores over the last
// phase the system ran (the engine resets the counters per phase).
func tlbMissRate(sys *mitosis.System, process string) float64 {
	var st tlb.Stats
	m := sys.Kernel().Machine()
	for _, c := range sys.Proc(process).Process().Cores() {
		s := m.TLBStats(c)
		st.Lookups += s.Lookups
		st.Misses += s.Misses
	}
	return ratio(float64(st.Misses), float64(st.Lookups))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// walkInfo adds the walk-path counters of one measured phase.
func walkInfo(info map[string]metric, c mitosis.Counters) {
	info["translate.walks_per_kop"] = metric{1000 * ratio(float64(c.Walks), float64(c.Ops)), "count"}
	info["mmucache.walk_llc_hit_rate"] = metric{ratio(float64(c.WalkLLCHits), float64(c.WalkLLCHits+c.WalkMemAccesses)), "ratio"}
	info["hw.walk_cycle_frac"] = metric{c.WalkCycleFraction(), "ratio"}
}

// paperGap is |simulated − paper| / paper in percent.
func paperGap(sim, paper float64) float64 { return math.Abs(sim-paper) / paper * 100 }

// --- multisocket: paper §8.1, Figure 9a ---

// multisocketMachine is the paper's 4-socket, 14-core machine. 2GB per
// node holds XSBench's 1.25GB, which first-touch places on node 0, and
// keeps the host footprint small; the counters match the 4GB default's.
func multisocketMachine(p params) mitosis.SystemConfig {
	if p.quick {
		return mitosis.SystemConfig{MemoryPerNode: 256 << 20}
	}
	return mitosis.SystemConfig{MemoryPerNode: 2 << 30}
}

func multisocketProc(p params, replicated bool, phases ...mitosis.PhaseSpec) mitosis.ProcSpec {
	scale := 1.0
	if p.quick {
		scale = 1.0 / 32
	}
	opts := []mitosis.ProcOpt{mitosis.WithPhases(phases...)}
	if replicated {
		opts = append(opts, mitosis.WithReplication(mitosis.ReplicationSpec{All: true}))
	}
	return mitosis.NewProc("XSBench", mitosis.NamedWorkload("XSBench", mitosis.InSuite("ms"), mitosis.Scaled(scale)), opts...)
}

func multisocketScenario(p params, replicated bool, phases ...mitosis.PhaseSpec) mitosis.Scenario {
	name := "multisocket/F"
	if replicated {
		name = "multisocket/F+M"
	}
	return mitosis.NewScenario(name,
		mitosis.OnMachine(multisocketMachine(p)),
		mitosis.WithSeed(p.seed),
		mitosis.WithProc(multisocketProc(p, replicated, phases...)))
}

func multisocketJob(p params) (jobResult, error) {
	phases := []mitosis.PhaseSpec{
		mitosis.Warmup(p.pick(50_000, 2_000)),
		mitosis.Measure(p.pick(200_000, 32_000)),
	}
	f, fsys, err := runScenario(p, multisocketScenario(p, false, phases...))
	if err != nil {
		return jobResult{}, err
	}
	fm, _, err := runScenario(p, multisocketScenario(p, true, phases...))
	if err != nil {
		return jobResult{}, err
	}
	a, b := f.Measured(""), fm.Measured("")
	speedup := ratio(float64(a.Counters.Cycles), float64(b.Counters.Cycles))
	info := map[string]metric{
		"paper_gap_pct":            {paperGap(speedup, paperMultisocketSpeedup), "%"},
		"core.replication_speedup": {speedup, "x"},
		"core.replica_pt_pages":    {float64(fm.ReplicaPTPages), "count"},
		"numa.remote_walk_frac.F":  {a.Counters.RemoteWalkFraction(), "ratio"},
		"numa.remote_walk_frac.FM": {b.Counters.RemoteWalkFraction(), "ratio"},
		"tlb.miss_rate":            {tlbMissRate(fsys, "XSBench"), "ratio"},
		"sim.cycles_per_op.F":      {ratio(float64(a.Counters.TotalCycles), float64(a.Counters.Ops)), "cycles"},
		"sim.cycles_per_op.FM":     {ratio(float64(b.Counters.TotalCycles), float64(b.Counters.Ops)), "cycles"},
	}
	walkInfo(info, a.Counters)
	r := jobResult{
		simOps:  opsOf(f) + opsOf(fm),
		outputs: []scenarioOutputs{outputsOf(f), outputsOf(fm)},
		info:    info,
	}
	if b.Counters.WalkRemoteAccesses != 0 {
		r.check = fmt.Errorf("multisocket: F+M remote_walk_frac %.6f, want exactly 0", b.Counters.RemoteWalkFraction())
	}
	return r, nil
}

func multisocketSetup(p params) error {
	for _, replicated := range []bool{false, true} {
		if _, _, err := runScenario(p, multisocketScenario(p, replicated, mitosis.Measure(1))); err != nil {
			return err
		}
	}
	return nil
}

func multisocketReplay(p params) replaySpec {
	return replaySpec{
		machines: []mitosis.SystemConfig{multisocketMachine(p)},
		proc:     multisocketProc(p, true),
	}
}

// --- migration: paper §8.2, Figure 10a ---

// migrationMachine is the paper's machine with 1GB per node, which holds
// GUPS's 320MB on either node; the counters match the 4GB default's.
func migrationMachine(p params) mitosis.SystemConfig {
	if p.quick {
		return mitosis.SystemConfig{MemoryPerNode: 256 << 20}
	}
	return mitosis.SystemConfig{MemoryPerNode: 1 << 30}
}

func migrationProc(p params, phases ...mitosis.PhaseSpec) mitosis.ProcSpec {
	scale := 1.0
	if p.quick {
		scale = 1.0 / 16
	}
	return mitosis.NewProc("GUPS", mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(scale)),
		mitosis.OnSockets(0), mitosis.WithPhases(phases...))
}

// migrationScenario runs GUPS on socket 0 with a bandwidth hog on node 0.
// The stranded phase moves the process and its data to socket 1 but
// leaves the page tables on the loaded node 0; the mitosis phase migrates
// them to node 1.
func migrationScenario(p params, phases ...mitosis.PhaseSpec) mitosis.Scenario {
	return mitosis.NewScenario("migration",
		mitosis.OnMachine(migrationMachine(p)),
		mitosis.WithSeed(p.seed),
		mitosis.WithInterference(0),
		mitosis.WithProc(migrationProc(p, phases...)))
}

func migrationJob(p params) (jobResult, error) {
	target := 1
	measure := p.pick(1_000_000, 40_000)
	stranded := mitosis.Measure(measure)
	stranded.Name, stranded.MigrateTo = "stranded", &target
	moved := mitosis.Measure(measure)
	moved.Name, moved.MovePT = "mitosis", &target
	rr, sys, err := runScenario(p, migrationScenario(p, mitosis.Warmup(p.pick(250_000, 10_000)), stranded, moved))
	if err != nil {
		return jobResult{}, err
	}
	phase := func(name string) mitosis.Counters {
		for _, ph := range rr.Phases {
			if ph.Phase == name {
				return ph.Counters
			}
		}
		return mitosis.Counters{}
	}
	a, b := phase("stranded"), phase("mitosis")
	speedup := ratio(float64(a.Cycles), float64(b.Cycles))
	info := map[string]metric{
		"paper_gap_pct":                  {paperGap(speedup, paperMigrationSpeedup), "%"},
		"core.replication_speedup":       {speedup, "x"},
		"core.replica_pt_pages":          {float64(rr.ReplicaPTPages), "count"},
		"numa.remote_walk_frac.stranded": {a.RemoteWalkFraction(), "ratio"},
		"numa.remote_walk_frac.mitosis":  {b.RemoteWalkFraction(), "ratio"},
		"tlb.miss_rate":                  {tlbMissRate(sys, "GUPS"), "ratio"},
		"sim.cycles_per_op.stranded":     {ratio(float64(a.TotalCycles), float64(a.Ops)), "cycles"},
		"sim.cycles_per_op.mitosis":      {ratio(float64(b.TotalCycles), float64(b.Ops)), "cycles"},
	}
	walkInfo(info, a)
	r := jobResult{simOps: opsOf(rr), outputs: outputsOf(rr), info: info}
	if b.Ops == 0 || b.WalkRemoteAccesses != 0 {
		r.check = fmt.Errorf("migration: mitosis-phase remote_walk_frac %.6f over %d ops, want exactly 0", b.RemoteWalkFraction(), b.Ops)
	}
	return r, nil
}

func migrationSetup(p params) error {
	_, _, err := runScenario(p, migrationScenario(p, mitosis.Measure(1)))
	return err
}

func migrationReplay(p params) replaySpec {
	return replaySpec{
		machines: []mitosis.SystemConfig{migrationMachine(p)},
		proc:     migrationProc(p),
	}
}

// --- churn: the write side of page tables ---

func churnSpec(p params) mitosis.Churn {
	return mitosis.Churn{
		Name:          "churn",
		Machine:       mitosis.SystemConfig{Sockets: 4, CoresPerSocket: 2, THP: true, MemoryPerNode: 128 << 20},
		Procs:         p.pick(2048, 64),
		PagesPerProc:  256,
		HugePages:     2048,
		Fragmentation: 0.3,
		Pressure:      0.5,
		Seed:          p.seed,
		Workers:       p.hostWorkers(),
	}
}

// churnOutputs are exactly the fields ChurnResult.DeterministicEquals
// compares, plus the spec without its host worker count.
type churnOutputs struct {
	Churn       mitosis.Churn `json:"churn"`
	Spawned     int           `json:"spawned"`
	Exited      int           `json:"exited"`
	Ops         uint64        `json:"ops"`
	Faults      uint64        `json:"faults"`
	Cycles      uint64        `json:"cycles"`
	FaultCycles uint64        `json:"fault_cycles"`
	FaultHist   []uint64      `json:"fault_hist"`
	P50         uint64        `json:"p50"`
	P95         uint64        `json:"p95"`
	P99         uint64        `json:"p99"`
}

func churnJob(p params) (jobResult, error) {
	c := churnSpec(p)
	id := p.tr.open("mitosis.churn", p.parent)
	res, err := mitosis.RunChurn(c)
	p.tr.close(id)
	if err != nil {
		return jobResult{}, err
	}
	spec := res.Churn
	spec.Workers = 0
	r := jobResult{
		simOps: res.Ops,
		outputs: churnOutputs{spec, res.Spawned, res.Exited, res.Ops, res.Faults, res.Cycles,
			res.FaultCycles, res.FaultHist, res.P50, res.P95, res.P99},
		info: map[string]metric{
			"kernel.faults":           {float64(res.Faults), "count"},
			"kernel.fault_p50_cycles": {float64(res.P50), "cycles"},
			"kernel.fault_p99_cycles": {float64(res.P99), "cycles"},
			"kernel.fault_cycle_frac": {ratio(float64(res.FaultCycles), float64(res.Cycles)), "ratio"},
		},
		churn: res,
	}
	if res.Spawned != c.Procs || res.Exited != c.Procs {
		r.check = fmt.Errorf("churn: spawned %d, exited %d, want %d each", res.Spawned, res.Exited, c.Procs)
	}
	return r, nil
}

func churnSetup(p params) error {
	c := churnSpec(p)
	c.Procs, c.PagesPerProc, c.HugePages = c.Machine.Sockets, 1, 0
	_, err := mitosis.RunChurn(c)
	return err
}

func churnReplay(p params) replaySpec {
	c := churnSpec(p)
	return replaySpec{
		machines:      []mitosis.SystemConfig{c.Machine},
		proc:          mitosis.NewProc("steady", mitosis.WorkloadSpec{}, mitosis.OnSockets(0)),
		regionPages:   c.PagesPerProc + c.HugePages,
		fragmentation: c.Fragmentation,
		churn:         &c,
	}
}

// --- fleet: pooled sweep cells ---

var fleetWorkloads = []string{"GUPS", "Redis", "XSBench", "BTree"}

// fleetMachine is the paper's machine with 512MB per node: cells at 1/64
// scale need a few MB each, and the pooled systems of two workers stay
// small on the host.
var fleetMachine = mitosis.SystemConfig{MemoryPerNode: 512 << 20}

// fleetSweeps are the job's two grids: 192 native cells crossing the four
// workloads with replication policies, a CXL tier and its policy, Victima
// and a page-table poison fault, on two sockets of fragmented memory; and
// 64 virtualized cells crossing the workloads with four policies, spans
// and fragmentation. A job takes 1–2 s, so a 26-second run times 15–20 of
// them.
func fleetSweeps(p params) []mitosis.Sweep {
	base := mitosis.Sweep{
		Machine:    fleetMachine,
		Workloads:  fleetWorkloads,
		BaseSeed:   p.seed,
		Scale:      1.0 / 64,
		WarmupOps:  100,
		MeasureOps: 400,
		StrandPT:   true,
	}
	native := base
	native.Name = "fleet-native"
	native.SocketCounts = []int{2}
	native.Fragmentation = []float64{0.9}
	native.Policies = []string{"none", "ondemand", "costadaptive"}
	native.Tiers = []string{"", "cxl@0"}
	native.TierPolicies = []string{"none", "hotcold-ptpin"}
	native.Hardware = []string{"", "victima"}
	native.Faults = []string{"", "poison-pt:r4:p0:n1"}
	virt := base
	virt.Name = "fleet-virt"
	virt.SocketCounts = []int{1, 2}
	virt.Fragmentation = []float64{0, 0.9}
	virt.Policies = []string{"none", "static", "ondemand", "costadaptive"}
	virt.Virt = []bool{true}
	return []mitosis.Sweep{native, virt}
}

// fleetLimit caps the cells per sweep in the reduced-size mode.
func fleetLimit(p params) int { return p.pick(0, 48) }

func fleetJob(p params) (jobResult, error) {
	var r jobResult
	var outputs []json.RawMessage
	info := map[string]metric{}
	add := func(name string, v float64) {
		m := info[name]
		info[name] = metric{m.Value + v, "count"}
	}
	for _, sw := range fleetSweeps(p) {
		opts := []mitosis.SweepOpt{mitosis.WithSweepWorkers(p.hostWorkers()), mitosis.WithSweepLimit(fleetLimit(p))}
		id := p.tr.open("mitosis.sweep", p.parent)
		if p.tr != nil {
			opts = append(opts, mitosis.WithSweepProgress(func(ev mitosis.SweepEvent) {
				end := time.Now()
				p.tr.add("mitosis.cell", id, end.Add(-time.Duration(ev.Cell.HostNS)), end)
			}))
		}
		res, err := mitosis.RunSweep(sw, opts...)
		p.tr.close(id)
		if err != nil {
			return jobResult{}, err
		}
		out, err := res.OutcomesJSON()
		if err != nil {
			return jobResult{}, err
		}
		outputs = append(outputs, out)
		r.simOps += res.SimOps
		for _, c := range res.Cells {
			r.cellMS = append(r.cellMS, float64(c.HostNS)/1e6)
			add("kernel.policy_actions", float64(c.Outcome.PolicyActions))
			add("tier.actions", float64(c.Outcome.TierActions))
			add("fault.injected", float64(c.Outcome.FaultsInjected))
			add("fault.recoveries", float64(c.Outcome.FaultRecoveries))
			add("core.replica_pt_pages", float64(c.Outcome.ReplicaPTPages))
		}
		if res.Errors != 0 && r.check == nil {
			first := ""
			for _, c := range res.Cells {
				if c.Error != "" {
					first = c.Error
					break
				}
			}
			r.check = fmt.Errorf("fleet: sweep %q had %d error cells, first: %s", sw.Name, res.Errors, first)
		}
	}
	r.outputs, r.info = outputs, info
	return r, nil
}

// fleetShapes are the machine shapes the fleet's cells run on.
func fleetShapes() []mitosis.SystemConfig {
	var shapes []mitosis.SystemConfig
	for _, tiers := range []string{"", "cxl@0"} {
		for _, hw := range []string{"", "victima"} {
			cfg := fleetMachine
			cfg.Tiers, cfg.Hardware = tiers, hw
			shapes = append(shapes, cfg)
		}
	}
	return shapes
}

func fleetSetup(p params) error {
	for _, cfg := range fleetShapes() {
		mitosis.NewSystem(cfg)
	}
	return nil
}

func fleetReplay(p params) replaySpec {
	native := fleetSweeps(p)[0]
	// Every native cell, one by one: enough rounds for a round-latency p99.
	var cells []mitosis.Scenario
	for i := range native.Cells() {
		sc, err := native.Cell(i)
		if err != nil {
			panic(fmt.Sprintf("benchmark: fleet cell %d: %v", i, err))
		}
		cells = append(cells, sc)
	}
	// The steady process runs like a two-socket GUPS cell: the sweep's
	// scale, page tables stranded on the first socket outside the span.
	return replaySpec{
		machines: fleetShapes(),
		proc: mitosis.NewProc("steady", mitosis.GUPS(mitosis.Scaled(1.0/64)),
			mitosis.OnSockets(0, 1), mitosis.WithPTNode(2)),
		cells: cells,
	}
}
