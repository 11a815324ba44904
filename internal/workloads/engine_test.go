package workloads

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// engineRun executes one workload on a fresh kernel under the given engine
// mode and returns the full Result, including the raw per-core counters.
func engineRun(t *testing.T, mk func() Workload, mode Mode, sockets, coresPerSocket, ops int) *Result {
	t.Helper()
	env, w := engineEnv(t, mk, sockets, coresPerSocket)
	res, err := RunWith(env, w, ops, EngineConfig{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// engineEnv sets one workload up on a fresh kernel, scheduled on the first
// coresPerSocket cores of every socket.
func engineEnv(t *testing.T, mk func() Workload, sockets, coresPerSocket int) (*Env, Workload) {
	t.Helper()
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(sockets, coresPerSocket),
		FramesPerNode: 65536,
	})
	w := shrink(mk())
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for s := 0; s < sockets; s++ {
		for i := 0; i < coresPerSocket; i++ {
			cores = append(cores, k.Topology().FirstCoreOf(numa.SocketID(s))+numa.CoreID(i))
		}
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	return env, w
}

// forEachGOMAXPROCS runs f as one subtest per GOMAXPROCS setting in 1..4,
// restoring the setting afterwards. On 4 sockets these give the parallel
// engine shards of {0,1,2,3}, {0,1}{2,3}, the uneven {0,1}{2}{3}, and one
// socket per goroutine.
func forEachGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

func TestShardBounds(t *testing.T) {
	cases := []struct {
		groups, workers int
		want            []int
	}{
		{4, 1, []int{0, 4}},
		{4, 2, []int{0, 2, 4}},
		{4, 3, []int{0, 2, 3, 4}},
		{4, 4, []int{0, 1, 2, 3, 4}},
		{5, 3, []int{0, 2, 4, 5}},
	}
	for _, c := range cases {
		if got := shardBounds(c.groups, c.workers); !slices.Equal(got, c.want) {
			t.Errorf("shardBounds(%d, %d) = %v, want %v", c.groups, c.workers, got, c.want)
		}
	}
}

// TestParallelJoinsHelpers: RunWith returns only after every helper
// goroutine has finished, so none is left spinning once the run is over.
// The runtime drops a goroutine from NumGoroutine a moment after its last
// statement, so a read can catch a joined helper mid-teardown: the count,
// read right after the run returns, must be back at or below the baseline
// after at least one of five runs. Helpers that unwind only after RunWith
// returns fail every run.
func TestParallelJoinsHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env, w := engineEnv(t, func() Workload { return NewGUPS() }, 4, 1)
	baseline := runtime.NumGoroutine()
	var after []int
	for range 5 {
		if _, err := RunWith(env, w, 2000, EngineConfig{Mode: Parallel}); err != nil {
			t.Fatal(err)
		}
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		after = append(after, n)
	}
	t.Errorf("goroutines right after five parallel runs: %v, want %d", after, baseline)
}

// TestParallelMatchesSequential is the engine's determinism contract: the
// parallel engine must produce byte-identical counters to the sequential
// reference engine, across workload families — GUPS (uniform writes), a
// key-value store (zipf reads with hot objects), and a scientific code
// (XSBench's cross-section lookups).
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Workload
	}{
		{"GUPS", func() Workload { return NewGUPS() }},
		{"kv-Memcached", NewMemcached},
		{"scientific-XSBench", func() Workload { return NewXSBenchMS() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq := engineRun(t, c.mk, Sequential, 4, 1, 4000)
			par := engineRun(t, c.mk, Parallel, 4, 1, 4000)
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallel result diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
			if seq.Total.Ops != 4*4000 {
				t.Errorf("Ops = %d, want %d", seq.Total.Ops, 4*4000)
			}
		})
	}
}

// TestParallelMatchesSequentialSharedLLC pins the harder half of the
// contract: multiple cores per socket share an LLC, so the engine must
// serialize same-socket cores in canonical order to stay deterministic,
// however the sockets are dealt to goroutines.
func TestParallelMatchesSequentialSharedLLC(t *testing.T) {
	mk := func() Workload { return NewGUPS() }
	seq := engineRun(t, mk, Sequential, 4, 2, 2000)
	forEachGOMAXPROCS(t, func(t *testing.T) {
		par := engineRun(t, mk, Parallel, 4, 2, 2000)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("parallel result diverged with 2 cores/socket:\nseq: %+v\npar: %+v", seq, par)
		}
	})
}

// TestParallelRepeatable: two parallel runs with identical inputs must be
// identical to each other (no scheduling nondeterminism leaks into
// counters).
func TestParallelRepeatable(t *testing.T) {
	mk := func() Workload { return NewRedis() }
	a := engineRun(t, mk, Parallel, 4, 1, 3000)
	b := engineRun(t, mk, Parallel, 4, 1, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two parallel runs diverged:\na: %+v\nb: %+v", a, b)
	}
}

// countHook counts a run's barrier ticks and checks that every barrier
// ticks it once, in round order, between RunStart and RunEnd.
type countHook struct {
	t              *testing.T
	started, ended bool
	ticks          int
}

func (h *countHook) RunStart() { h.started = true }
func (h *countHook) RunEnd()   { h.ended = true }

func (h *countHook) Tick(round int) error {
	h.ticks++
	if !h.started || h.ended || round != h.ticks {
		h.t.Errorf("tick %d at round %d (started %v, ended %v)", h.ticks, round, h.started, h.ended)
	}
	return nil
}

// TestRoundsCountsBarriers: Rounds is the number of barriers a run ticks
// its hook at, for any op count — the count every round clock above the
// engine advances by.
func TestRoundsCountsBarriers(t *testing.T) {
	env, w := engineEnv(t, func() Workload { return NewGUPS() }, 2, 1)
	for _, ops := range []int{1, 32, 33, 100, 5} {
		h := &countHook{t: t}
		if _, err := RunWith(env, w, ops, EngineConfig{Mode: Sequential, Hook: h}); err != nil {
			t.Fatal(err)
		}
		if want := Rounds(ops); h.ticks != want || !h.ended {
			t.Errorf("ops %d: %d ticks (ended %v), Rounds says %d", ops, h.ticks, h.ended, want)
		}
	}
}

// policyRun executes GUPS on a 4-socket machine with a replication-policy
// engine ticking at the round barriers, under the given engine mode. The
// table skews to socket 0 (InitSingle first-touch), so sockets 1-3 walk
// remote until the policy replicates to them.
func policyRun(t *testing.T, policyName string, mode Mode, ops int) (*Result, []kernel.ActionRecord, []kernel.ReplicaChange) {
	t.Helper()
	k := kernel.New(kernel.Config{
		Topology:        numa.NewTopology(4, 1),
		FramesPerNode:   65536,
		PageCacheTarget: 64,
	})
	w := shrink(func() Workload { return NewGUPS() }())
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for s := 0; s < 4; s++ {
		cores = append(cores, k.Topology().FirstCoreOf(numa.SocketID(s)))
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	pol, err := k.NewPolicy(policyName)
	if err != nil {
		t.Fatal(err)
	}
	eng := k.AttachPolicy(p, pol, kernel.PolicyEngineConfig{StepPages: 8})
	res, err := RunWith(env, w, ops, EngineConfig{Mode: mode, Hook: eng})
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.ActionLog(), eng.ReplicaTimeline()
}

// TestPolicyDeterminismAcrossEngines extends the determinism contract to
// the policy engine: identical counters AND identical policy action logs
// across Sequential, Parallel and Auto, under every GOMAXPROCS in 1..4, on
// a 4-socket GUPS run whose OnDemand policy replicates mid-run.
func TestPolicyDeterminismAcrossEngines(t *testing.T) {
	const ops = 4000
	seqRes, seqLog, seqTL := policyRun(t, "ondemand", Sequential, ops)
	if len(seqLog) == 0 {
		t.Fatal("OnDemand never acted: the determinism check is vacuous")
	}
	forEachGOMAXPROCS(t, func(t *testing.T) {
		parRes, parLog, parTL := policyRun(t, "ondemand", Parallel, ops)
		autoRes, autoLog, autoTL := policyRun(t, "ondemand", Auto, ops)
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Errorf("parallel counters diverged from sequential:\nseq: %+v\npar: %+v", seqRes, parRes)
		}
		if !reflect.DeepEqual(seqRes, autoRes) {
			t.Errorf("auto counters diverged from sequential:\nseq: %+v\nauto: %+v", seqRes, autoRes)
		}
		if !reflect.DeepEqual(seqLog, parLog) || !reflect.DeepEqual(seqLog, autoLog) {
			t.Errorf("action logs diverged:\nseq:  %v\npar:  %v\nauto: %v", seqLog, parLog, autoLog)
		}
		if !reflect.DeepEqual(seqTL, parTL) || !reflect.DeepEqual(seqTL, autoTL) {
			t.Errorf("replica timelines diverged:\nseq:  %v\npar:  %v\nauto: %v", seqTL, parTL, autoTL)
		}
	})
}

// TestStaticPolicyIsCounterTransparent: attaching the Static policy engine
// (the pre-refactor compatibility baseline) must reproduce the counters of
// a run with no policy engine at all, bit for bit, in both modes.
func TestStaticPolicyIsCounterTransparent(t *testing.T) {
	const ops = 4000
	for _, mode := range []Mode{Sequential, Parallel} {
		bare := engineRun(t, func() Workload { return NewGUPS() }, mode, 4, 1, ops)
		withStatic, log, _ := policyRun(t, "static", mode, ops)
		if len(log) != 0 {
			t.Fatalf("static policy acted: %v", log)
		}
		if !reflect.DeepEqual(bare, withStatic) {
			t.Errorf("mode %v: static policy perturbed counters:\nbare:   %+v\nstatic: %+v",
				mode, bare, withStatic)
		}
	}
}

// TestPolicyMigrationRebindsEngine: a CostAdaptive tick that migrates the
// process mid-run must rebind the engine's threads to the new cores, with
// Sequential and Parallel agreeing on every counter.
func TestPolicyMigrationRebindsEngine(t *testing.T) {
	run := func(mode Mode) (*Result, []kernel.ActionRecord, numa.SocketID) {
		k := kernel.New(kernel.Config{
			Topology:        numa.NewTopology(4, 1),
			FramesPerNode:   65536,
			PageCacheTarget: 64,
		})
		w := shrink(func() Workload { return NewGUPS() }())
		// Threads on socket 2; data and table land on node 0 (Bind +
		// PTFixed): the cost model should migrate the threads to socket 0
		// rather than copy the table next to remote data.
		p, err := k.CreateProcess(kernel.ProcessOpts{
			Name: w.Name(), Home: 2,
			DataPolicy: kernel.Bind, BindNode: 0,
			PTPolicy: kernel.PTFixed, PTNode: 0,
			DataLocality: w.DataLocality(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.RunOn(p, []numa.CoreID{k.Topology().FirstCoreOf(2)}); err != nil {
			t.Fatal(err)
		}
		env := NewEnv(k, p, false, 42)
		if err := w.Setup(env); err != nil {
			t.Fatal(err)
		}
		pol, err := k.NewPolicy("costadaptive")
		if err != nil {
			t.Fatal(err)
		}
		eng := k.AttachPolicy(p, pol, kernel.PolicyEngineConfig{})
		res, err := RunWith(env, w, 3000, EngineConfig{Mode: mode, Hook: eng})
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.ActionLog(), k.Topology().SocketOf(p.Cores()[0])
	}
	seqRes, seqLog, seqSock := run(Sequential)
	parRes, parLog, parSock := run(Parallel)
	if seqSock != 0 || parSock != 0 {
		t.Fatalf("process not migrated to socket 0 (seq %d, par %d); log %v", seqSock, parSock, seqLog)
	}
	if len(seqLog) == 0 {
		t.Fatal("cost-adaptive policy never acted")
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Errorf("rebind broke determinism:\nseq: %+v\npar: %+v", seqRes, parRes)
	}
	if !reflect.DeepEqual(seqLog, parLog) {
		t.Errorf("action logs diverged:\nseq: %v\npar: %v", seqLog, parLog)
	}
}

// TestPolicyEngineReuseAcrossRuns: reusing one attached engine for a
// second RunWith must not corrupt the telemetry deltas — ResetStats zeroes
// the machine counters between runs, and the engine's snapshots must
// resynchronize (RunStart) instead of underflowing. Leftover in-flight
// copies must be drained at run end (RunEnd) so the process is not pinned
// against reclaim forever.
func TestPolicyEngineReuseAcrossRuns(t *testing.T) {
	k := kernel.New(kernel.Config{
		Topology:        numa.NewTopology(4, 1),
		FramesPerNode:   65536,
		PageCacheTarget: 64,
	})
	w := shrink(func() Workload { return NewGUPS() }())
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for s := 0; s < 4; s++ {
		cores = append(cores, k.Topology().FirstCoreOf(numa.SocketID(s)))
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	pol, err := k.NewPolicy("ondemand")
	if err != nil {
		t.Fatal(err)
	}
	// StepPages 1 keeps a copy in flight across many ticks, so the first
	// short run ends with unfinished jobs.
	eng := k.AttachPolicy(p, pol, kernel.PolicyEngineConfig{StepPages: 1})
	if _, err := RunWith(env, w, 96, EngineConfig{Mode: Sequential, Hook: eng}); err != nil {
		t.Fatal(err)
	}
	if eng.InFlight() != 0 {
		t.Fatalf("%d replications still in flight after the run ended", eng.InFlight())
	}
	firstActions := len(eng.ActionLog())

	// Second run with the same engine: ResetStats has zeroed the counters
	// the engine snapshotted. Deltas must stay sane — a few replicate
	// actions at most, never a flood from underflowed telemetry.
	if _, err := RunWith(env, w, 96, EngineConfig{Mode: Sequential, Hook: eng}); err != nil {
		t.Fatal(err)
	}
	newActions := len(eng.ActionLog()) - firstActions
	if newActions > 4 {
		t.Errorf("second run applied %d actions — telemetry deltas look corrupted; log %v",
			newActions, eng.ActionLog())
	}
	for _, rec := range eng.ActionLog() {
		if rec.Action.(core.Action).Kind == core.ActionMigrate {
			t.Errorf("spurious migration from a multi-socket process: %v", rec)
		}
	}
}

// TestParallelStress hammers the shared state the parallel engine must
// protect: 4 sockets x 2 cores issue concurrent batches against one
// address space that is NOT pre-populated, so the cores race through the
// demand-paging fault path (allocator, page cache, mapper, meter) while
// walking and mutating one shared page-table. Run under -race this is the
// engine's data-race certification; the counter checks below only assert
// conservation, not determinism (fault-time allocation order is
// scheduling-dependent by design).
func TestParallelStress(t *testing.T) {
	const sockets, perSocket = 4, 2
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(sockets, perSocket),
		FramesPerNode: 65536,
	})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "stress", Home: 0})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for c := numa.CoreID(0); int(c) < sockets*perSocket; c++ {
		cores = append(cores, c)
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	const size = 32 << 20
	base, err := k.Mmap(p, size, kernel.MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}

	m := k.Machine()
	const rounds, chunk = 50, 64
	var wg sync.WaitGroup
	errs := make([]error, len(cores))
	for ci, c := range cores {
		wg.Add(1)
		go func(ci int, c numa.CoreID) {
			defer wg.Done()
			rng := uint64(ci)*0x9E3779B97F4A7C15 + 1
			ops := make([]hw.AccessOp, chunk)
			for r := 0; r < rounds; r++ {
				for i := range ops {
					rng = rng*6364136223846793005 + 1442695040888963407
					ops[i].VA = base + pt.VirtAddr(rng%size)&^4095
					ops[i].Write = rng&1 == 0
				}
				if err := m.AccessBatch(c, ops); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	m.ClearCoherence(cores)
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("core %d: %v", cores[ci], err)
		}
	}
	var totalOps, totalFaults uint64
	for _, c := range cores {
		s := m.Stats(c)
		totalOps += s.Ops
		totalFaults += s.Faults
	}
	if want := uint64(len(cores) * rounds * chunk); totalOps != want {
		t.Errorf("total ops = %d, want %d", totalOps, want)
	}
	if totalFaults == 0 {
		t.Error("stress run took no page faults — fault path not exercised")
	}
}
