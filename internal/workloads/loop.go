package workloads

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// Driver feeds one run of the round loop. The loop owns what every run
// shares — socket grouping, the single-writer bracket, the helper
// goroutines, the coherence barrier and error order — and asks its driver
// for the two things that differ: each thread's ops, and what happens once
// a round's barrier has closed. Both methods run on the coordinating
// goroutine, so a driver needs no locks.
type Driver interface {
	// Batch writes thread ti's ops for the coming round into buf and
	// returns how many it wrote, at most len(buf). Zero issues no batch
	// for the thread this round. The loop calls it for every thread, in
	// canonical thread order, before the round's compute starts.
	Batch(ti int, buf []hw.AccessOp) int
	// Barrier runs after round (1-based) once its barrier has closed:
	// every batch executed, coherence applied and cleared, samples
	// folded, helpers waiting on their start gates. Kernel-side work —
	// policy ticks, process spawn and exit — is safe here in both modes.
	// It returns the cores the threads run on from the next round (nil
	// keeps them; thread i moves to cores[i], so the count must not
	// change) and whether the run is over. An error ends the run.
	Barrier(round int) (cores []numa.CoreID, done bool, err error)
}

// Loop configures one run of the round loop.
type Loop struct {
	// Name labels batch errors: "workloads: <Name> op on core N: ...".
	Name string
	// Mode is the scheduling mode.
	Mode Mode
	// Batch is the length of each thread's op buffer: the most ops any
	// thread issues in one round.
	Batch int
}

// Run drives one thread per core (thread i on cores[i]) round by round
// until d's barrier hook ends the run or an error does, and returns how
// many goroutines computed the rounds.
//
// Each round, d generates every thread's batch in canonical thread order;
// the batches execute via Machine.AccessBatch, whose per-core state (TLB,
// PSC, RNG, counters) is fully sharded. In Parallel mode the socket groups
// are dealt in canonical order to at most GOMAXPROCS goroutines, the
// coordinator being one of them, and each socket's cores run serialized in
// canonical order on the one goroutine that owns the socket, so the shared
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
// free-running cores"); when a helper has not started a round by the time
// the coordinator finishes its own groups, the coordinator computes the
// helper's groups itself. Errors surface in canonical thread order, so both
// modes report the same failure for the same inputs, and Run returns only
// once every helper has exited.
func (l Loop) Run(m *hw.Machine, cores []numa.CoreID, d Driver) (int, error) {
	topo := m.Topology()
	eng := &engine{m: m, goroutines: 1}
	eng.bind(topo, cores)
	parallel := false
	switch l.Mode {
	case Parallel:
		parallel = true
	case Auto:
		parallel = len(eng.groups) > 1 && runtime.GOMAXPROCS(0) > 1
	}
	eng.bufs = make([][]hw.AccessOp, len(cores))
	for i := range eng.bufs {
		eng.bufs[i] = make([]hw.AccessOp, l.Batch)
	}
	eng.lens = make([]int, len(cores))
	eng.errs = make([]error, len(cores))

	// The loop's round discipline (each socket's cores driven by one
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
		// eng.cores may be rebound by the barrier hook; release whatever
		// set is current at exit.
		defer func() {
			eng.stopWorkers()
			m.EndConcurrent(eng.cores)
		}()
	}

	for round := 1; ; round++ {
		for ti := range eng.cores {
			eng.lens[ti] = d.Batch(ti, eng.bufs[ti])
		}
		eng.round()
		for ti, c := range eng.cores {
			if eng.errs[ti] != nil {
				return eng.goroutines, fmt.Errorf("workloads: %s op on core %d: %w", l.Name, c, eng.errs[ti])
			}
		}
		newCores, done, err := d.Barrier(round)
		if err != nil {
			return eng.goroutines, err
		}
		if newCores != nil && !slices.Equal(newCores, eng.cores) {
			if err := eng.rebind(topo, newCores, parallel); err != nil {
				return eng.goroutines, err
			}
		}
		if done {
			return eng.goroutines, nil
		}
	}
}

// groupBySocket groups core indices by socket, in order of first
// appearance; within a group the cores keep their list order. The nested
// group/core order is the canonical order of the run.
func groupBySocket(topo *numa.Topology, cores []numa.CoreID) [][]int {
	var groups [][]int
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
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// engine holds one run's scheduling state.
type engine struct {
	m      *hw.Machine
	cores  []numa.CoreID
	groups [][]int // core indices per socket group, canonical order
	bufs   [][]hw.AccessOp
	lens   []int // this round's batch length per thread
	errs   []error

	// Parallel mode: the coordinator computes groups [0, lead) itself and
	// each helper computes its own contiguous run of the rest.
	lead       int
	helpers    []*helper
	goroutines int    // most goroutines any shard of the run used
	seq        uint64 // rounds handed to the current helpers
	wg         sync.WaitGroup
}

// helper is one compute goroutine: its groups [lo, hi) and its pair of
// gates — start carries the round from the coordinator, done carries it
// back. claimed is the last round whose groups someone took: the helper,
// or the coordinator when the helper had not started the round by the
// time the coordinator finished its own groups.
type helper struct {
	start, done *gate
	lo, hi      int
	claimed     atomic.Uint64
}

// claim takes round r's groups of h for the caller, reporting whether no
// one had taken them.
func (h *helper) claim(r uint64) bool {
	old := h.claimed.Load()
	return old < r && h.claimed.CompareAndSwap(old, r)
}

// bind points the engine at a core set, regrouping the cores by socket.
func (e *engine) bind(topo *numa.Topology, cores []numa.CoreID) {
	e.cores = slices.Clone(cores)
	e.groups = groupBySocket(topo, e.cores)
}

// computeGroups runs one round's batches for groups [lo, hi).
func (e *engine) computeGroups(lo, hi int) {
	for _, group := range e.groups[lo:hi] {
		for _, ti := range group {
			if n := e.lens[ti]; n > 0 && e.errs[ti] == nil {
				e.errs[ti] = e.m.AccessBatch(e.cores[ti], e.bufs[ti][:n])
			}
		}
	}
}

// round executes one batch on every thread plus the coherence barrier.
// With helpers running, the coordinator computes its own groups while they
// compute theirs, and then the groups of any helper that has not started
// the round — one still waking, or queued behind the coordinator on its
// CPU — rather than wait for it. Either way each group runs on one
// goroutine; the barrier is the coordinator's alone in both modes.
func (e *engine) round() {
	if len(e.helpers) == 0 {
		e.computeGroups(0, len(e.groups))
	} else {
		e.seq++
		for _, h := range e.helpers {
			h.start.signal(e.seq)
		}
		e.computeGroups(0, e.lead)
		for _, h := range e.helpers {
			if h.claim(e.seq) {
				e.computeGroups(h.lo, h.hi)
			} else {
				h.done.wait(e.seq)
			}
		}
	}
	// Every batch of the round has completed and the helpers are waiting
	// on their start gates: the machine's barrier applies coherence to
	// every LLC in canonical order, drops the applied events so the next
	// round's batches start from empty buffers, and folds the round's
	// AutoNUMA samples.
	e.m.DrainCoherence(e.cores)
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
	e.helpers = make([]*helper, len(b)-2)
	e.goroutines = max(e.goroutines, len(b)-1)
	for i := range e.helpers {
		h := &helper{start: newGate(), done: newGate(), lo: b[i+1], hi: b[i+2]}
		e.helpers[i] = h
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for r := uint64(1); ; r++ {
				// A helper that fell behind takes up the latest round.
				if r = h.start.wait(r); r == gateStop {
					return
				}
				if h.claim(r) {
					e.computeGroups(h.lo, h.hi)
					h.done.signal(r)
				}
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

// rebind re-targets the engine at the core set a barrier hook returned.
// Thread identity is positional: thread i moves from old core i to new
// core i. In parallel mode the helpers are joined and relaunched for the
// new socket grouping; the parallel/sequential choice itself is fixed for
// the run (counters are mode-independent by the determinism contract, so
// this only affects host-side scheduling).
func (e *engine) rebind(topo *numa.Topology, cores []numa.CoreID, parallel bool) error {
	if len(cores) != len(e.cores) {
		return fmt.Errorf("workloads: barrier hook changed thread count %d -> %d mid-run",
			len(e.cores), len(cores))
	}
	if parallel {
		e.stopWorkers()
		e.m.EndConcurrent(e.cores)
	}
	e.bind(topo, cores)
	if parallel {
		e.m.BeginConcurrent(e.cores)
		e.startWorkers()
	}
	return nil
}
