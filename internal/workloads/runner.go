package workloads

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// Result is one run's hardware counters: each core's, their sum, and the
// makespan.
type Result struct {
	// PerCore holds each participating core's counters, in order of first
	// participation.
	PerCore []hw.CoreStats
	// Total is the Merge of PerCore. Total.Cycles sums cycles across cores;
	// the run's length is Makespan.
	Total hw.CoreStats
	// Makespan is the maximum per-core cycle count.
	Makespan numa.Cycles
}

// Mode selects how the execution engine schedules the simulated cores.
type Mode int

const (
	// Auto picks Parallel when the run spans more than one socket and the
	// host has spare CPUs, Sequential otherwise. Safe because the two
	// modes are counter-identical by construction.
	Auto Mode = iota
	// Sequential runs every core on the calling goroutine, in canonical
	// order — the reference engine.
	Sequential
	// Parallel deals the socket groups to at most GOMAXPROCS goroutines,
	// the caller's among them, with round barriers keeping the result
	// identical to Sequential.
	Parallel
)

// DefaultChunk is the engine's round length: ops per core between
// coherence barriers, and so the modeled cross-socket invalidation
// latency. It matches the original per-op engine's round-robin interleave
// granularity, so cross-socket page-table line invalidations land with at
// most one round of latency.
const DefaultChunk = 32

// BarrierHook runs kernel-side work at the engine's round barriers — the
// deterministic quiescent points where no access batch is in flight, so
// replication state, CR3s and the scheduler may be touched freely.
// kernel.PolicyEngine implements it, and so does the scenario facade's
// composite of the fault, policy and tier engines and the observer.
type BarrierHook interface {
	// RunStart is called once after the counter reset, before the first
	// round: snapshots resynchronize here.
	RunStart()
	// Tick is called at every barrier, after round (1-based, counted from
	// the start of the run) has fully completed: batches executed,
	// coherence applied and cleared. A hook that works on a cadence
	// applies it to round itself. An error aborts the run.
	Tick(round int) error
	// RunEnd is called when the run finishes, successfully or not:
	// in-flight background work is cleaned up here.
	RunEnd()
}

// EngineConfig tunes the batched execution engine.
type EngineConfig struct {
	// Mode is the scheduling mode (default Auto).
	Mode Mode
	// Hook, if set, ticks at every round barrier. Ticks run identically
	// in Sequential and Parallel modes, preserving the determinism
	// contract. If a tick migrates the process, the engine rebinds its
	// threads to the new cores for the next round.
	Hook BarrierHook
}

// Rounds is the number of rounds, and so of barriers, a run of
// opsPerThread operations per thread takes. Every round clock built on
// top of the engine advances by it.
func Rounds(opsPerThread int) int {
	if opsPerThread <= 0 {
		return 0
	}
	// ceil(opsPerThread/DefaultChunk), written so an op count near MaxInt
	// cannot overflow.
	return (opsPerThread-1)/DefaultChunk + 1
}

// Run executes opsPerThread operations of w on every core the process is
// scheduled on, interleaving threads deterministically, and returns the
// aggregated counters for just this run (the machine's counters are reset
// first, so Setup/initialization cost is excluded, as in §8.1). It uses
// the engine in Auto mode; use RunWith to pick a mode explicitly.
func Run(env *Env, w Workload, opsPerThread int) (*Result, error) {
	return run(env, w, opsPerThread, true, EngineConfig{})
}

// RunWith is Run under an explicit engine configuration. Sequential and
// Parallel produce bit-identical Results for the same inputs: the engine's
// determinism contract (see DESIGN.md).
func RunWith(env *Env, w Workload, opsPerThread int, cfg EngineConfig) (*Result, error) {
	return run(env, w, opsPerThread, true, cfg)
}

// RunKeepStatsWith is RunWith without the counter reset: the result
// includes all cycles accumulated since the last reset, so initialization
// is measured too (the paper's Table 6 end-to-end configuration).
func RunKeepStatsWith(env *Env, w Workload, opsPerThread int, cfg EngineConfig) (*Result, error) {
	return run(env, w, opsPerThread, false, cfg)
}

// run drives one workload phase through the round loop: a phaseDriver
// generates each thread's ops from its Step closure and, at the barriers,
// counts the phase down, ticks the hook and rebinds the threads when a
// tick migrated the process.
//
// Operation generation stays on the driving goroutine: workload Step
// closures are single-threaded by contract, and generating in canonical
// core order keeps the op streams independent of the mode.
func run(env *Env, w Workload, opsPerThread int, reset bool, cfg EngineConfig) (*Result, error) {
	cores := slices.Clone(env.P.Cores())
	if len(cores) == 0 {
		return nil, fmt.Errorf("workloads: process not scheduled")
	}
	d := &phaseDriver{env: env, w: w, remaining: opsPerThread, hook: cfg.Hook}
	for i := range cores {
		d.steps = append(d.steps, w.NewThread(env, i))
	}
	d.setCores(cores)
	if reset {
		env.K.Machine().ResetStats()
	}
	// No thread issues more than the phase's ops in a round, so a short
	// phase runs the same rounds with shorter buffers.
	d.chunk = min(DefaultChunk, opsPerThread)
	if d.hook != nil {
		d.hook.RunStart()
		defer d.hook.RunEnd()
	}
	if opsPerThread > 0 {
		loop := Loop{Name: w.Name(), Mode: cfg.Mode, Batch: d.chunk}
		if _, err := loop.Run(env.K.Machine(), cores, d); err != nil {
			if d.tickFailed {
				// The partial counters ride along with the error: a fault
				// tick that kills the running process still attributes the
				// work it did before dying.
				return Collect(env, d.participated), err
			}
			return nil, err
		}
	}
	return Collect(env, d.participated), nil
}

// phaseDriver is the round loop's driver for one workload phase.
type phaseDriver struct {
	env       *Env
	w         Workload
	steps     []Step
	cores     []numa.CoreID
	chunk     int
	remaining int
	hook      BarrierHook
	// participated accumulates every core the run executed on, in order of
	// first appearance — policy ticks may migrate the process mid-run, and
	// the result must cover the counters left on the old cores too.
	participated []numa.CoreID
	tickFailed   bool
}

// setCores binds the threads to cores and applies the workload's
// per-core cache and overlap models to them.
func (d *phaseDriver) setCores(cores []numa.CoreID) {
	d.cores = slices.Clone(cores)
	m := d.env.K.Machine()
	for _, c := range d.cores {
		m.SetDataLocality(c, d.w.DataLocality())
		m.SetWalkOverlap(c, d.w.WalkOverlap())
		if !slices.Contains(d.participated, c) {
			d.participated = append(d.participated, c)
		}
	}
}

// Batch generates the thread's next chunk, or what is left of the phase.
func (d *phaseDriver) Batch(ti int, buf []hw.AccessOp) int {
	buf = buf[:min(len(buf), d.remaining)]
	step := d.steps[ti]
	for i := range buf {
		buf[i].VA, buf[i].Write = step()
	}
	return len(buf)
}

// Barrier counts the round off the phase and ticks the hook; if the tick
// moved the process, the threads follow it.
func (d *phaseDriver) Barrier(round int) ([]numa.CoreID, bool, error) {
	d.remaining -= min(d.chunk, d.remaining)
	done := d.remaining == 0
	if d.hook == nil {
		return nil, done, nil
	}
	if err := d.hook.Tick(round); err != nil {
		d.tickFailed = true
		return nil, true, fmt.Errorf("workloads: barrier tick at round %d: %w", round, err)
	}
	cores := d.env.P.Cores()
	if slices.Equal(cores, d.cores) {
		return nil, done, nil
	}
	d.setCores(cores)
	return d.cores, done, nil
}

// Collect gathers the machine counters for the given cores into a Result.
func Collect(env *Env, cores []numa.CoreID) *Result {
	m := env.K.Machine()
	res := &Result{}
	for _, c := range cores {
		s := m.Stats(c)
		res.PerCore = append(res.PerCore, s)
		res.Total.Merge(&s)
		res.Makespan = max(res.Makespan, s.Cycles)
	}
	return res
}

// MultiSocketSuite returns the six workloads of the paper's multi-socket
// scenario (§3.1, §8.1) in Figure 4/9 order.
func MultiSocketSuite() []Workload {
	return []Workload{
		NewCannealMS(),
		NewMemcached(),
		NewXSBenchMS(),
		NewGraph500MS(),
		NewHashJoinMS(),
		NewBTreeMS(),
	}
}

// MigrationSuite returns the eight workloads of the workload-migration
// scenario (§3.2, §8.2) in Figure 6/10 order.
func MigrationSuite() []Workload {
	return []Workload{
		NewGUPS(),
		NewBTree(),
		NewHashJoin(),
		NewRedis(),
		NewXSBench(),
		NewPageRank(),
		NewLibLinear(),
		NewCanneal(),
	}
}

// Scale multiplies w's footprint by f, preserving every other parameter.
// Experiments use it for quick-mode runs; note that scaling changes which
// cache/TLB regime the workload lands in, so shapes are only meaningful at
// the calibrated default footprints.
func Scale(w Workload, f float64) Workload {
	switch v := w.(type) {
	case *GUPS:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *STREAM:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *BTree:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *HashJoin:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *XSBench:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *Canneal:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *PageRank:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *LibLinear:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *Graph500:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *kvStore:
		v.footprintBytes = scaleBytes(v.footprintBytes, f)
	default:
		panic(fmt.Sprintf("workloads: cannot scale %T", w))
	}
	return w
}

// scaleBytes keeps footprints 2MB-aligned and at least 8MB.
func scaleBytes(b uint64, f float64) uint64 {
	s := uint64(float64(b) * f)
	if s < 8<<20 {
		s = 8 << 20
	}
	return s / (2 << 20) * (2 << 20)
}

// Suite returns the workloads a scenario selects: the multi-socket suite
// for "ms", the workload-migration suite for "wm", and both, in that
// order, for anything else.
func Suite(scenario string) []Workload {
	switch scenario {
	case "ms":
		return MultiSocketSuite()
	case "wm":
		return MigrationSuite()
	}
	return append(MultiSocketSuite(), MigrationSuite()...)
}

// ByName resolves a workload by its paper name within a scenario's suite
// (see Suite); nil if unknown.
func ByName(name, scenario string) Workload {
	for _, w := range Suite(scenario) {
		if w.Name() == name {
			return w
		}
	}
	if name == "STREAM" {
		return NewSTREAM()
	}
	return nil
}
