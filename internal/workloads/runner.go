package workloads

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// Result aggregates one run's hardware counters.
type Result struct {
	// Cycles is the makespan: the maximum per-core cycle count.
	Cycles numa.Cycles
	// WalkCycles is the summed page-walk cycles across cores.
	WalkCycles numa.Cycles
	// TotalCycles is the summed cycles across cores.
	TotalCycles numa.Cycles
	// Walks is the total number of page walks.
	Walks uint64
	// Ops is the total operations executed.
	Ops uint64
	// RemoteWalkAccesses / WalkMemAccesses / WalkLLCHits aggregate the
	// walker's memory behaviour.
	RemoteWalkAccesses uint64
	WalkMemAccesses    uint64
	WalkLLCHits        uint64
	// RemoteWalkCycles is the raw DRAM latency of remote page-table reads
	// (pre overlap scaling) — the walk-locality signal policies tick on.
	RemoteWalkCycles numa.Cycles
	// TierWalkAccesses / TierWalkCycles / TierDataAccesses aggregate the
	// accesses served by slow-tier (CXL/NVM) nodes; zero on flat machines.
	TierWalkAccesses uint64
	TierWalkCycles   numa.Cycles
	TierDataAccesses uint64
	// GuestWalkCycles / NestedWalkCycles split two-dimensional walk reads
	// by dimension for virtualized runs (raw, pre overlap scaling); zero
	// for native runs.
	GuestWalkCycles  numa.Cycles
	NestedWalkCycles numa.Cycles
	// PerCore retains the raw counters.
	PerCore []hw.CoreStats
}

// WalkCycleFraction returns aggregate walk cycles over aggregate cycles —
// the hashed fraction of the paper's runtime bars.
func (r *Result) WalkCycleFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.WalkCycles) / float64(r.TotalCycles)
}

// RemoteWalkCycleFraction returns remote page-table DRAM cycles over
// aggregate cycles — the locality metric replication policies optimize.
func (r *Result) RemoteWalkCycleFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.RemoteWalkCycles) / float64(r.TotalCycles)
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

// DefaultChunk is the engine's default round length: ops per core between
// coherence barriers. It matches the original per-op engine's round-robin
// interleave granularity, so cross-socket page-table line invalidations
// land with at most one round of latency.
const DefaultChunk = 32

// RoundTicker runs kernel-side policy work at the engine's round barriers
// — the deterministic quiescent points where no access batch is in flight,
// so replication state, CR3s and the scheduler may be touched freely.
// kernel.PolicyEngine implements it.
//
// A ticker may additionally implement RunStart() (called once after the
// counter reset, before the first round — snapshot resynchronization) and
// RunEnd() (called when the run finishes, successfully or not — cleanup of
// in-flight background work). Both hooks run at quiescent points.
type RoundTicker interface {
	// Tick is called after round (1-based) has fully completed: batches
	// executed, coherence applied and cleared. An error aborts the run.
	Tick(round int) error
}

// runStarter and runEnder are the optional RoundTicker lifecycle hooks.
type runStarter interface{ RunStart() }
type runEnder interface{ RunEnd() }

// EngineConfig tunes the batched execution engine.
type EngineConfig struct {
	// Mode is the scheduling mode (default Auto).
	Mode Mode
	// Chunk is the number of operations each core executes per round
	// (default DefaultChunk). Both modes use the same chunk, and results
	// are only comparable between runs with equal chunks: the chunk is
	// the modeled cross-socket invalidation latency.
	Chunk int
	// Ticker, if set, fires at round barriers (every TickEvery rounds) —
	// the clock of the replication-policy engine. Ticks run identically
	// in Sequential and Parallel modes, preserving the determinism
	// contract. If a tick migrates the process, the engine rebinds its
	// threads to the new cores for the next round.
	Ticker RoundTicker
	// TickEvery is the tick period in rounds (default 1: every barrier).
	TickEvery int
}

// Run executes opsPerThread operations of w on every core the process is
// scheduled on, interleaving threads deterministically, and returns the
// aggregated counters for just this run (the machine's counters are reset
// first, so Setup/initialization cost is excluded, as in §8.1). It uses
// the engine in Auto mode; use RunWith to pick a mode explicitly.
func Run(env *Env, w Workload, opsPerThread int) (*Result, error) {
	return run(env, w, opsPerThread, true, EngineConfig{})
}

// RunKeepStats is Run without the counter reset: the result includes all
// cycles accumulated since the last reset, so initialization is measured
// too (the paper's Table 6 end-to-end configuration).
func RunKeepStats(env *Env, w Workload, opsPerThread int) (*Result, error) {
	return run(env, w, opsPerThread, false, EngineConfig{})
}

// RunWith is Run under an explicit engine configuration. Sequential and
// Parallel produce bit-identical Results for the same inputs: the engine's
// determinism contract (see DESIGN.md).
func RunWith(env *Env, w Workload, opsPerThread int, cfg EngineConfig) (*Result, error) {
	return run(env, w, opsPerThread, true, cfg)
}

// RunKeepStatsWith is RunKeepStats under an explicit engine configuration.
func RunKeepStatsWith(env *Env, w Workload, opsPerThread int, cfg EngineConfig) (*Result, error) {
	return run(env, w, opsPerThread, false, cfg)
}

// run drives the batched execution engine.
//
// Execution proceeds in rounds. Each round, every core executes one chunk
// of operations via Machine.AccessBatch — per-core state (TLB, PSC, RNG,
// counters) is fully sharded. In Parallel mode the socket groups are dealt
// in canonical order to at most GOMAXPROCS goroutines, the coordinator
// being one of them, and each socket's cores run serialized in canonical
// order on the one goroutine that owns the socket, so the shared
// per-socket LLC sees a deterministic access sequence. Store walks buffer
// their cross-socket line invalidations; at the round barrier the
// coordinator alone applies the buffered events to every socket's LLC
// (again in canonical core order), clears them and folds the AutoNUMA
// samples. No state crosses sockets mid-round except the page-table A/D
// bits and AutoNUMA samples, whose update order cannot affect any counter
// — which is why Sequential and Parallel modes are counter-identical.
//
// The coordinator hands each round to its helpers through spin-then-park
// gates, so on a host with a spare CPU the groups' compute overlaps
// instead of taking turns (measured in DESIGN.md, "Why rounds instead of
// free-running cores").
//
// Operation generation stays on the driving goroutine: workload Step
// closures are single-threaded by contract, and generating in canonical
// core order keeps the op streams independent of the mode.
func run(env *Env, w Workload, opsPerThread int, reset bool, cfg EngineConfig) (*Result, error) {
	cores := slices.Clone(env.P.Cores())
	if len(cores) == 0 {
		return nil, fmt.Errorf("workloads: process not scheduled")
	}
	steps := make([]Step, len(cores))
	for i := range cores {
		steps[i] = w.NewThread(env, i)
	}
	m := env.K.Machine()
	for _, c := range cores {
		m.SetDataLocality(c, w.DataLocality())
		m.SetWalkOverlap(c, w.WalkOverlap())
	}
	if reset {
		m.ResetStats()
	}

	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	tickEvery := cfg.TickEvery
	if tickEvery <= 0 {
		tickEvery = 1
	}
	if rs, ok := cfg.Ticker.(runStarter); ok {
		rs.RunStart()
	}
	if re, ok := cfg.Ticker.(runEnder); ok {
		defer re.RunEnd()
	}
	topo := env.K.Topology()
	groups, groupSockets := groupBySocket(topo, cores)
	parallel := false
	switch cfg.Mode {
	case Parallel:
		parallel = true
	case Auto:
		parallel = len(groups) > 1 && runtime.GOMAXPROCS(0) > 1
	}

	bufs := make([][]hw.AccessOp, len(cores))
	for i := range bufs {
		bufs[i] = make([]hw.AccessOp, chunk)
	}
	errs := make([]error, len(cores))

	eng := &engine{
		m: m, cores: cores, groups: groups, sockets: groupSockets,
		allSockets: topo.Sockets(), bufs: bufs, errs: errs,
	}
	eng.rebuildBusy()
	// The engine's round discipline (each socket's cores driven by one
	// goroutine, coherence applied only at barriers) is exactly the
	// machine's single-writer contract, so both modes run the lock-free
	// LLC path for the whole run.
	m.BeginSingleWriter()
	defer m.EndSingleWriter()
	if parallel {
		// Pin the cores for the whole run so the kernel's memory-pressure
		// reclaim treats them as busy even between a worker's batches.
		m.BeginConcurrent(eng.cores)
		eng.startWorkers()
		// eng.cores may be rebound by policy ticks; release whatever set
		// is current at exit.
		defer func() {
			eng.stopWorkers()
			m.EndConcurrent(eng.cores)
		}()
	}

	// participated accumulates every core the run executed on, in order of
	// first appearance — policy ticks may migrate the process mid-run, and
	// the result must cover the counters left on the old cores too.
	participated := slices.Clone(eng.cores)
	remaining := opsPerThread
	round := 0
	for remaining > 0 {
		n := min(chunk, remaining)
		// Generate this round's ops in canonical core order.
		for ti := range eng.cores {
			buf := bufs[ti][:n]
			step := steps[ti]
			for i := range buf {
				buf[i].VA, buf[i].Write = step()
			}
		}
		eng.round(n)
		// Errors surface in canonical order so both modes report the
		// same failure for the same inputs.
		for ti, c := range eng.cores {
			if errs[ti] != nil {
				return nil, fmt.Errorf("workloads: %s op on core %d: %w", w.Name(), c, errs[ti])
			}
		}
		remaining -= n
		round++
		if cfg.Ticker != nil && round%tickEvery == 0 {
			// The barrier has fully closed: no batch in flight anywhere,
			// coherence applied and cleared. Kernel-side policy work is
			// safe here in both modes (helpers wait on their start gates).
			if err := cfg.Ticker.Tick(round); err != nil {
				// The partial counters ride along with the error: a fault
				// tick that kills the running process still attributes the
				// work it did before dying.
				return Collect(env, participated), fmt.Errorf("workloads: policy tick at round %d: %w", round, err)
			}
			if newCores := env.P.Cores(); !slices.Equal(newCores, eng.cores) {
				if err := eng.rebind(env, w, newCores, parallel); err != nil {
					return nil, err
				}
				for _, c := range eng.cores {
					if !slices.Contains(participated, c) {
						participated = append(participated, c)
					}
				}
			}
		}
	}
	return Collect(env, participated), nil
}

// groupBySocket groups core indices by socket, in order of first
// appearance; within a group the cores keep their list order. The nested
// group/core order is the canonical order of the run.
func groupBySocket(topo *numa.Topology, cores []numa.CoreID) ([][]int, []numa.SocketID) {
	var groups [][]int
	var groupSockets []numa.SocketID
	groupOf := make([]int, topo.Sockets())
	for i := range groupOf {
		groupOf[i] = -1
	}
	for i, c := range cores {
		s := topo.SocketOf(c)
		g := groupOf[s]
		if g < 0 {
			g = len(groups)
			groupOf[s] = g
			groups = append(groups, nil)
			groupSockets = append(groupSockets, s)
		}
		groups[g] = append(groups[g], i)
	}
	return groups, groupSockets
}

// engine holds one run's scheduling state.
type engine struct {
	m          *hw.Machine
	cores      []numa.CoreID
	groups     [][]int // core indices per socket group, canonical order
	sockets    []numa.SocketID
	allSockets int
	bufs       [][]hw.AccessOp
	errs       []error

	// busySocket[s] reports whether socket s runs any core of this run —
	// precomputed once per run/rebind so the per-round idle-socket apply
	// does not rescan the group list per socket.
	busySocket []bool

	// Parallel mode: the coordinator computes groups [0, lead) itself and
	// each helper computes its own contiguous run of the rest.
	lead    int
	helpers []helper
	ops     int    // this round's chunk, published by the start gates
	seq     uint64 // rounds handed to the current helpers
	wg      sync.WaitGroup
}

// helper is one compute goroutine's pair of gates: start carries the
// round from the coordinator, done carries it back.
type helper struct{ start, done *gate }

// rebuildBusy recomputes the busy-socket mask from the current groups.
func (e *engine) rebuildBusy() {
	if e.busySocket == nil {
		e.busySocket = make([]bool, e.allSockets)
	}
	for s := range e.busySocket {
		e.busySocket[s] = false
	}
	for _, gs := range e.sockets {
		e.busySocket[gs] = true
	}
}

// computeGroups runs one round's batches for groups [lo, hi).
func (e *engine) computeGroups(lo, hi, n int) {
	for _, group := range e.groups[lo:hi] {
		for _, ti := range group {
			if e.errs[ti] == nil {
				e.errs[ti] = e.m.AccessBatch(e.cores[ti], e.bufs[ti][:n])
			}
		}
	}
}

// applyIdle applies buffered coherence to sockets that run no cores (their
// LLCs may still cache lines of the shared page-table).
func (e *engine) applyIdle() {
	for s := 0; s < e.allSockets; s++ {
		if !e.busySocket[s] {
			e.m.ApplyCoherenceTo(numa.SocketID(s), e.cores)
		}
	}
}

// round executes one chunk on every core plus the coherence barrier. With
// helpers running, the coordinator computes its own groups while they
// compute theirs; the barrier is the coordinator's alone in both modes.
func (e *engine) round(n int) {
	if len(e.helpers) == 0 {
		e.computeGroups(0, len(e.groups), n)
	} else {
		e.ops = n
		e.seq++
		for _, h := range e.helpers {
			h.start.signal(e.seq)
		}
		e.computeGroups(0, e.lead, n)
		for _, h := range e.helpers {
			h.done.wait(e.seq)
		}
	}
	// Every batch of the round has completed and the helpers are waiting
	// on their start gates: apply coherence to every LLC in canonical
	// order, drop the applied events so the next round's batches start
	// from empty buffers, and fold the round's AutoNUMA samples.
	for _, s := range e.sockets {
		e.m.ApplyCoherenceTo(s, e.cores)
	}
	e.applyIdle()
	e.m.ClearCoherence(e.cores)
	e.m.FoldSampling(e.cores)
}

// shardBounds deals n socket groups, in canonical order, to w goroutines
// as contiguous runs, the first n%w of them one group longer. Shard i is
// groups [b[i], b[i+1]).
func shardBounds(n, w int) []int {
	b := make([]int, w+1)
	for i := range w {
		b[i+1] = b[i] + n/w
		if i < n%w {
			b[i+1]++
		}
	}
	return b
}

// startWorkers deals the socket groups to min(groups, GOMAXPROCS)
// goroutines, the coordinator being the first, so each socket's cores and
// LLC still belong to exactly one goroutine during compute.
func (e *engine) startWorkers() {
	b := shardBounds(len(e.groups), min(len(e.groups), runtime.GOMAXPROCS(0)))
	e.lead = b[1]
	e.seq = 0
	e.helpers = make([]helper, len(b)-2)
	for i := range e.helpers {
		h := helper{start: newGate(), done: newGate()}
		e.helpers[i] = h
		lo, hi := b[i+1], b[i+2]
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for r := uint64(1); h.start.wait(r) != gateStop; r++ {
				e.computeGroups(lo, hi, e.ops)
				h.done.signal(r)
			}
		}()
	}
}

// stopWorkers shuts the helper goroutines down and returns once every one
// has exited.
func (e *engine) stopWorkers() {
	for _, h := range e.helpers {
		h.start.signal(gateStop)
	}
	e.wg.Wait()
	e.helpers = nil
}

// rebind re-targets the engine at the process's new core set after a
// policy tick migrated it. Thread identity is positional: thread i moves
// from old core i to new core i, keeping its Step generator. In parallel
// mode the helpers are joined and relaunched for the new socket grouping;
// the parallel/sequential choice itself is fixed for the run (counters
// are mode-independent by the determinism contract, so this only affects
// host-side scheduling).
func (e *engine) rebind(env *Env, w Workload, newCores []numa.CoreID, parallel bool) error {
	if len(newCores) == 0 {
		return fmt.Errorf("workloads: process descheduled mid-run by policy tick")
	}
	if len(newCores) != len(e.cores) {
		return fmt.Errorf("workloads: policy tick changed thread count %d -> %d mid-run",
			len(e.cores), len(newCores))
	}
	if parallel {
		e.stopWorkers()
		e.m.EndConcurrent(e.cores)
	}
	e.cores = slices.Clone(newCores)
	for _, c := range e.cores {
		e.m.SetDataLocality(c, w.DataLocality())
		e.m.SetWalkOverlap(c, w.WalkOverlap())
	}
	e.groups, e.sockets = groupBySocket(env.K.Topology(), e.cores)
	e.rebuildBusy()
	if parallel {
		e.m.BeginConcurrent(e.cores)
		e.startWorkers()
	}
	return nil
}

// Collect gathers the machine counters for the given cores into a Result.
func Collect(env *Env, cores []numa.CoreID) *Result {
	m := env.K.Machine()
	res := &Result{}
	for _, c := range cores {
		s := m.Stats(c)
		res.PerCore = append(res.PerCore, s)
		if s.Cycles > res.Cycles {
			res.Cycles = s.Cycles
		}
		res.TotalCycles += s.Cycles
		res.WalkCycles += s.WalkCycles
		res.Walks += s.Walks
		res.Ops += s.Ops
		res.RemoteWalkAccesses += s.WalkRemoteAccesses
		res.WalkMemAccesses += s.WalkMemAccesses
		res.WalkLLCHits += s.WalkLLCHits
		res.RemoteWalkCycles += s.WalkRemoteCycles
		res.GuestWalkCycles += s.GuestWalkCycles
		res.NestedWalkCycles += s.NestedWalkCycles
		res.TierWalkAccesses += s.WalkTierAccesses
		res.TierWalkCycles += s.WalkTierCycles
		res.TierDataAccesses += s.DataTierAccesses
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

// ByName resolves a workload by its paper name within a scenario suite
// ("ms" or "wm"); nil if unknown.
func ByName(name, scenario string) Workload {
	var suite []Workload
	switch scenario {
	case "ms":
		suite = MultiSocketSuite()
	case "wm":
		suite = MigrationSuite()
	default:
		suite = append(MultiSocketSuite(), MigrationSuite()...)
	}
	for _, w := range suite {
		if w.Name() == name {
			return w
		}
	}
	if name == "STREAM" {
		return NewSTREAM()
	}
	return nil
}
