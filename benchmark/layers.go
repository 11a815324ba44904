package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/fault"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// Layer replay sizes. Each timed loop is repeated replayTrials times and
// the median trial is reported; rounds and ticks give per-event
// distributions.
const (
	replayTrials = 5
	bootSamples  = 5
	resetSamples = 3
	exitSamples  = 16
	chunk        = workloads.DefaultChunk
)

// backends are the translation backends every workload's walk is timed on.
var backends = []string{translate.BackendX8664, translate.BackendX8664LA57, translate.BackendVictima}

// faultTimer wraps the kernel's fault handler and records the host time
// of every fault it resolves.
type faultTimer struct {
	inner hw.FaultHandler
	mu    sync.Mutex
	us    []float64
}

func (f *faultTimer) HandleFault(core numa.CoreID, va pt.VirtAddr, write bool) (numa.Cycles, error) {
	t0 := time.Now()
	cy, err := f.inner.HandleFault(core, va, write)
	d := time.Since(t0)
	f.mu.Lock()
	f.us = append(f.us, float64(d.Nanoseconds())/1e3)
	f.mu.Unlock()
	return cy, err
}

// rounds drives cores through engine-style rounds without the engine: a
// chunk of ops per core through Machine.AccessBatch, then the coherence
// barrier. Callers hold the machine's single-writer bracket, as the
// engine does.
type rounds struct {
	m     *hw.Machine
	topo  *numa.Topology
	cores []numa.CoreID
	next  []func() (pt.VirtAddr, bool)
	bufs  [][]hw.AccessOp
}

func newRounds(m *hw.Machine, cores []numa.CoreID, next []func() (pt.VirtAddr, bool)) *rounds {
	r := &rounds{m: m, topo: m.Topology(), cores: cores, next: next}
	for range cores {
		r.bufs = append(r.bufs, make([]hw.AccessOp, chunk))
	}
	return r
}

// step runs one round and returns the time spent in AccessBatch and in the
// barrier.
func (r *rounds) step() (access, barrier time.Duration, err error) {
	for i, next := range r.next {
		for j := range r.bufs[i] {
			r.bufs[i][j].VA, r.bufs[i][j].Write = next()
		}
	}
	t0 := time.Now()
	for i, c := range r.cores {
		if err := r.m.AccessBatch(c, r.bufs[i]); err != nil {
			return 0, 0, err
		}
	}
	t1 := time.Now()
	r.barrier()
	return t1.Sub(t0), time.Since(t1), nil
}

// barrier is the engine's round barrier: every socket applies the round's
// buffered coherence events, then they are cleared and the access samples
// folded.
func (r *rounds) barrier() {
	for s := 0; s < r.topo.Sockets(); s++ {
		r.m.ApplyCoherenceTo(numa.SocketID(s), r.cores)
	}
	r.m.ClearCoherence(r.cores)
	r.m.FoldSampling(r.cores)
}

// steady is the replay's long-lived process and its op stream.
type steady struct {
	pr    *mitosis.Proc
	cores []numa.CoreID
	next  []func() (pt.VirtAddr, bool)
}

// newSteady spawns the replay process and sets it up the way a scenario
// run would: the workload's Setup (or a populated region), then the static
// replication.
func newSteady(p params, sys *mitosis.System, rs replaySpec) (*steady, error) {
	pr, err := sys.Spawn(rs.proc)
	if err != nil {
		return nil, err
	}
	k := sys.Kernel()
	kp := pr.Process()
	s := &steady{pr: pr, cores: kp.Cores()}
	if spec := rs.proc.Workload; spec.Name != "" {
		w := workloads.ByName(spec.Name, spec.Suite)
		if w == nil {
			return nil, fmt.Errorf("replay: unknown workload %q", spec.Name)
		}
		if spec.Scale != 0 && spec.Scale != 1 {
			w = workloads.Scale(w, spec.Scale)
		}
		env := workloads.NewEnv(k, kp, k.THP(), p.seed)
		if err := w.Setup(env); err != nil {
			return nil, fmt.Errorf("replay: %s setup: %w", spec.Name, err)
		}
		for i, c := range s.cores {
			k.Machine().SetDataLocality(c, w.DataLocality())
			k.Machine().SetWalkOverlap(c, w.WalkOverlap())
			s.next = append(s.next, w.NewThread(env, i))
		}
	} else {
		size := uint64(rs.regionPages) * 4096
		base, err := pr.Mmap(size, true)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(p.seed))
		for range s.cores {
			s.next = append(s.next, func() (pt.VirtAddr, bool) {
				return pt.VirtAddr(base + uint64(rng.Int63n(int64(size)))&^63), rng.Intn(2) == 0
			})
		}
	}
	switch r := rs.proc.Replication; {
	case r.All:
		err = pr.ReplicatePageTables()
	case len(r.Nodes) > 0:
		err = pr.ReplicateOn(r.Nodes...)
	}
	return s, err
}

// replay times single layers of the program by calling them directly, on a
// machine shaped like the workload's and with the workload's op stream. It
// returns the per-layer metrics it measures itself; boots, resets, exits,
// faults and rounds land in the tracer, which the caller summarizes.
func replay(p params, rs replaySpec) (map[string]float64, error) {
	tr := p.tr
	root := tr.open("replay", 0)
	defer tr.close(root)
	p.parent = root
	out := map[string]float64{}

	var sys *mitosis.System
	for i := 0; i < bootSamples; i++ {
		for j, cfg := range rs.machines {
			t0 := time.Now()
			s := mitosis.NewSystem(cfg)
			tr.add("mitosis.boot", root, t0, time.Now())
			if j == 0 {
				sys = s
			}
		}
	}
	k := sys.Kernel()
	m := k.Machine()
	topo := k.Topology()
	rng := rand.New(rand.NewSource(p.seed))
	if rs.fragmentation > 0 {
		for n := 0; n < topo.Nodes(); n++ {
			k.Mem().Fragment(numa.NodeID(n), rs.fragmentation, rng)
		}
	}
	faults := &faultTimer{inner: k}
	m.SetFaultHandler(faults)
	defer func() { tr.events["kernel.fault"] = faults.us }()

	if rs.churn != nil {
		access, barrier, err := churnRounds(p, k, *rs.churn)
		if err != nil {
			return nil, err
		}
		out["hw.access_ns_per_op"], out["hw.barrier_ns_per_round"] = access, barrier
	}
	if len(rs.cells) > 0 {
		if err := runCells(p, rs.cells); err != nil {
			return nil, err
		}
	}

	id := tr.open("replay.setup", root)
	st, err := newSteady(p, sys, rs)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	rd := newRounds(m, st.cores, st.next)
	m.BeginSingleWriter()
	if rs.churn == nil {
		id := tr.open("replay.rounds", root)
		access, barrier, err := timeRounds(p, rd)
		tr.close(id)
		if err != nil {
			m.EndSingleWriter()
			return nil, err
		}
		out["hw.access_ns_per_op"], out["hw.barrier_ns_per_round"] = access, barrier
	}
	id = tr.open("replay.ticks", root)
	err = timeTicks(p, sys, st, rd, out)
	tr.close(id)
	m.EndSingleWriter()
	if err != nil {
		return nil, err
	}

	id = tr.open("replay.translate", root)
	err = timeTranslation(p, rs.machines[0], out)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	id = tr.open("replay.mem", root)
	err = timeAllocator(p, k, rng, out)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	id = tr.open("replay.populate", root)
	err = timePopulate(p, sys, st, out)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	for i := 0; i < exitSamples; i++ {
		pr, err := sys.Spawn(mitosis.NewProc(fmt.Sprintf("exit%d", i), mitosis.WorkloadSpec{}, mitosis.OnSockets(0)))
		if err != nil {
			return nil, err
		}
		if _, err := pr.Mmap(4<<20, true); err != nil {
			return nil, err
		}
		t0 := time.Now()
		k.DestroyProcess(pr.Process())
		tr.add("kernel.exit", root, t0, time.Now())
	}
	for i := 0; i < resetSamples; i++ {
		if i > 0 {
			if _, err := newSteady(p, sys, rs); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		sys.Reset()
		tr.add("mitosis.reset", root, t0, time.Now())
	}
	return out, nil
}

// timeRounds runs warm-up rounds, then timed rounds of the steady stream,
// and returns AccessBatch ns per op and barrier ns per round.
func timeRounds(p params, rd *rounds) (accessNS, barrierNS float64, err error) {
	warm, n := p.pick(500, 100), p.pick(4000, 400)
	var access, barrier time.Duration
	for i := 0; i < warm+n; i++ {
		a, b, err := rd.step()
		if err != nil {
			return 0, 0, err
		}
		if i >= warm {
			access += a
			barrier += b
		}
	}
	ops := n * chunk * len(rd.cores)
	return float64(access.Nanoseconds()) / float64(ops), float64(barrier.Nanoseconds()) / float64(n), nil
}

// timeTicks times each barrier engine's Tick on the steady process, one
// tick after every round: the replication policy engine, the tiering
// engine, and a fault engine whose only event lies beyond the run. Each
// engine ticks at least minTicks times and for at most tickBudget or
// maxTicks ticks: a tiering tick scans every page of a large process.
func timeTicks(p params, sys *mitosis.System, st *steady, rd *rounds, out map[string]float64) error {
	const minTicks, maxTicks, tickBudget = 20, 400, time.Second
	k := sys.Kernel()
	kp := st.pr.Process()
	tick := func(name string, fn func(round int) error) error {
		var us []float64
		start := time.Now()
		for r := 1; r <= minTicks || r <= p.pick(maxTicks, 100) && time.Since(start) < tickBudget; r++ {
			if _, _, err := rd.step(); err != nil {
				return err
			}
			t0 := time.Now()
			if err := fn(r); err != nil {
				return fmt.Errorf("%s tick: %w", name, err)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		out[name] = median(us)
		return nil
	}
	pol, err := k.NewPolicy("ondemand")
	if err != nil {
		return err
	}
	pe := k.AttachPolicy(kp, pol, kernel.PolicyEngineConfig{})
	pe.RunStart()
	err = tick("kernel.policy_tick_us", pe.Tick)
	pe.RunEnd()
	if err != nil {
		return err
	}
	tp, err := tier.NewPolicy("hotcold-ptpin")
	if err != nil {
		return err
	}
	te := k.AttachTierPolicy(kp, tp, kernel.TierEngineConfig{})
	if err := tick("kernel.tier_tick_us", te.Tick); err != nil {
		return err
	}
	plan, err := fault.ParsePlan(fmt.Sprintf("poison-pt:r%d:p0:n0", 1<<40))
	if err != nil {
		return err
	}
	fe := k.AttachFaultEngine(plan, []*kernel.Process{kp}, []string{kp.Name})
	return tick("kernel.fault_tick_us", func(r int) error { return fe.Tick(uint64(r), kp) })
}

// timeTranslation times one page walk per backend (Core.WalkOnce on a
// fresh core of that backend), and the TLB, PSC, LLC and DRAM cost model
// on the same address stream. Each backend gets a machine of the
// workload's shape with one process and a populated region.
func timeTranslation(p params, machine mitosis.SystemConfig, out map[string]float64) error {
	size := int64(p.pick(16384, 4096)) * 4096
	rng := rand.New(rand.NewSource(p.seed))
	offsets := make([]uint64, p.pick(200_000, 20_000))
	for i := range offsets {
		offsets[i] = uint64(rng.Int63n(size)) &^ 63
	}
	vas := make([]pt.VirtAddr, len(offsets))
	type leaf struct {
		pte  pt.PTE
		size pt.PageSize
	}
	leaves := make([]leaf, len(vas))
	var m *hw.Machine
	for _, b := range backends {
		cfg := machine
		cfg.Hardware = b
		sys := mitosis.NewSystem(cfg)
		pr, err := sys.Spawn(mitosis.NewProc("walk", mitosis.WorkloadSpec{}, mitosis.OnSockets(0)))
		if err != nil {
			return err
		}
		base, err := pr.Mmap(uint64(size), true)
		if err != nil {
			return err
		}
		for i, off := range offsets {
			vas[i] = pt.VirtAddr(base + off)
		}
		m = sys.Kernel().Machine()
		c := pr.Process().Cores()[0]
		be := m.Backend()
		var stats translate.CoreStats
		var pending []mmucache.LineID
		ctx := translate.Ctx{
			Core: c, Socket: 0, Home: m.Topology().NodeOf(0),
			CR3: m.ContextRoot(c), Levels: be.Levels(),
			LLC: mmucache.NewLLC(mmucache.DefaultLLCConfig()), Owned: true,
			Stats: &stats, Pending: &pending,
		}
		core := be.NewCore(int(c))
		var walkErr error
		out["translate.walk_ns."+b] = timed(len(vas), func() {
			for i, va := range vas {
				l, size, _, ok := core.WalkOnce(&ctx, va, false)
				if !ok && walkErr == nil {
					walkErr = fmt.Errorf("replay: %s walk of %#x faulted", b, uint64(va))
				}
				leaves[i] = leaf{l, size}
			}
		})
		if walkErr != nil {
			return walkErr
		}
	}

	// The remaining layers run on the last backend's leaves and machine;
	// only their host cost is measured.
	t := tlb.New(tlb.DefaultConfig())
	out["tlb.lookup_ns"] = timed(len(vas), func() {
		for i, va := range vas {
			if _, hit := t.Lookup(va); hit == tlb.Miss {
				t.Insert(va, leaves[i].pte, leaves[i].size)
			}
		}
	})
	psc := mmucache.NewPSC(mmucache.DefaultPSCConfig())
	out["mmucache.psc_lookup_ns"] = timed(len(vas), func() {
		for _, va := range vas {
			if _, _, ok := psc.Lookup(va, 4); !ok {
				for l := uint8(4); l >= 2; l-- {
					psc.Insert(va, l, mem.FrameID(uint64(va)>>(12+9*(l-1))))
				}
			}
		}
	})
	llc := mmucache.NewLLC(mmucache.DefaultLLCConfig())
	out["mmucache.llc_access_ns"] = timed(len(vas), func() {
		for _, va := range vas {
			llc.AccessOwned(mmucache.LineOf(mem.FrameID(uint64(va)>>21), pt.Index(va, 1)))
		}
	})
	cost := m.Cost()
	pm := m.Mem()
	sockets := m.Topology().Sockets()
	nodes := make([]numa.NodeID, len(vas))
	for i := range vas {
		nodes[i] = pm.NodeOf(leaves[i].pte.Frame())
	}
	var sink numa.Cycles
	out["numa.dram_cost_ns"] = timed(len(vas), func() {
		for i, n := range nodes {
			sink += cost.DRAM(numa.SocketID(i%sockets), n)
		}
	})
	if sink == 0 {
		return fmt.Errorf("replay: DRAM cost model returned no cycles")
	}
	return nil
}

// timed runs fn replayTrials times after one warm-up run and returns the
// median trial's nanoseconds per item.
func timed(items int, fn func()) float64 {
	fn()
	ns := make([]float64, replayTrials)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(items)
	}
	return median(ns)
}

// timeAllocator times single-frame data allocation and free on the replay
// machine's emptiest node, fragmented at 0.3 like the churn machine.
func timeAllocator(p params, k *kernel.Kernel, rng *rand.Rand, out map[string]float64) error {
	pm := k.Mem()
	node := numa.NodeID(0)
	for n := 1; n < k.Topology().DRAMNodes(); n++ {
		if pm.FreeFrames(numa.NodeID(n)) > pm.FreeFrames(node) {
			node = numa.NodeID(n)
		}
	}
	pm.Fragment(node, 0.3, rng)
	frames := make([]mem.FrameID, min(p.pick(16384, 4096), int(pm.FreeFrames(node)/2)))
	var allocNS, freeNS []float64
	for i := 0; i < replayTrials; i++ {
		t0 := time.Now()
		for j := range frames {
			f, err := pm.AllocData(node)
			if err != nil {
				return fmt.Errorf("replay: alloc on node %d: %w", node, err)
			}
			frames[j] = f
		}
		t1 := time.Now()
		for _, f := range frames {
			pm.Free(f)
		}
		t2 := time.Now()
		allocNS = append(allocNS, float64(t1.Sub(t0).Nanoseconds())/float64(len(frames)))
		freeNS = append(freeNS, float64(t2.Sub(t1).Nanoseconds())/float64(len(frames)))
	}
	out["mem.alloc_ns"], out["mem.free_ns"] = median(allocNS), median(freeNS)
	return nil
}

// timePopulate times a populating Mmap plus its Munmap on the steady
// process, per 4KB page of the region.
func timePopulate(p params, sys *mitosis.System, st *steady, out map[string]float64) error {
	size := uint64(p.pick(16<<20, 4<<20))
	var ns []float64
	for i := 0; i < replayTrials; i++ {
		t0 := time.Now()
		base, err := st.pr.Mmap(size, true)
		if err != nil {
			return err
		}
		if err := st.pr.Munmap(base); err != nil {
			return err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(size/4096))
	}
	out["kernel.populate_ns_per_page"] = median(ns)
	return nil
}

// churnSlot is one socket's live process in the churn replay.
type churnSlot struct {
	cores []numa.CoreID
	proc  *kernel.Process
	vas   []pt.VirtAddr // the process's pages in fault order
	next  []int         // per core: index of its next page in vas
}

// churnRounds replays the churn workload's rounds on the replay machine:
// each socket hosts one process that faults its 4KB region and its THP
// region in, a chunk per core per round; a process that has touched every
// page exits at the barrier and the next one spawns. It returns AccessBatch
// ns per op and barrier ns per round; whole rounds and exits go to the
// tracer.
func churnRounds(p params, k *kernel.Kernel, c mitosis.Churn) (accessNS, barrierNS float64, err error) {
	m := k.Machine()
	topo := k.Topology()
	spawned := 0
	spawn := func(sl *churnSlot, socket numa.SocketID) error {
		proc, err := k.CreateProcess(kernel.ProcessOpts{Name: fmt.Sprintf("churn-%d", spawned), Home: socket})
		if err != nil {
			return err
		}
		if err := k.RunOn(proc, sl.cores); err != nil {
			return err
		}
		base, err := k.Mmap(proc, uint64(c.PagesPerProc)*4096, kernel.MmapOpts{Writable: true})
		if err != nil {
			return err
		}
		sl.vas = sl.vas[:0]
		for i := 0; i < c.PagesPerProc; i++ {
			sl.vas = append(sl.vas, base+pt.VirtAddr(i*4096))
		}
		if c.HugePages > 0 {
			huge, err := k.Mmap(proc, uint64(c.HugePages)*4096, kernel.MmapOpts{Writable: true, THP: true})
			if err != nil {
				return err
			}
			for i := 0; i < c.HugePages; i++ {
				sl.vas = append(sl.vas, huge+pt.VirtAddr(i*4096))
			}
		}
		for i := range sl.next {
			sl.next[i] = i
		}
		sl.proc = proc
		spawned++
		return nil
	}
	slots := make([]*churnSlot, topo.Sockets())
	for s := range slots {
		cores := topo.CoresOf(numa.SocketID(s))
		slots[s] = &churnSlot{cores: cores, next: make([]int, len(cores))}
		if err := spawn(slots[s], numa.SocketID(s)); err != nil {
			return 0, 0, err
		}
	}
	var all []numa.CoreID
	for s := 0; s < topo.Sockets(); s++ {
		all = append(all, topo.CoresOf(numa.SocketID(s))...)
	}
	rd := &rounds{m: m, topo: topo, cores: all}
	buf := make([]hw.AccessOp, 0, chunk)
	n := p.pick(1500, 1100)
	var access, barrier time.Duration
	var ops int
	m.BeginSingleWriter()
	defer m.EndSingleWriter()
	for r := 0; r < n; r++ {
		t0 := time.Now()
		var a time.Duration
		for _, sl := range slots {
			for i, core := range sl.cores {
				buf = buf[:0]
				for len(buf) < chunk && sl.next[i] < len(sl.vas) {
					buf = append(buf, hw.AccessOp{VA: sl.vas[sl.next[i]], Write: true})
					sl.next[i] += len(sl.cores)
				}
				if len(buf) == 0 {
					continue
				}
				ta := time.Now()
				if err := m.AccessBatch(core, buf); err != nil {
					return 0, 0, err
				}
				a += time.Since(ta)
				ops += len(buf)
			}
		}
		tb := time.Now()
		rd.barrier()
		barrier += time.Since(tb)
		access += a
		for s, sl := range slots {
			if slices.ContainsFunc(sl.next, func(i int) bool { return i < len(sl.vas) }) {
				continue
			}
			te := time.Now()
			k.DestroyProcess(sl.proc)
			p.tr.add("kernel.exit", p.parent, te, time.Now())
			if err := spawn(sl, numa.SocketID(s)); err != nil {
				return 0, 0, err
			}
		}
		p.tr.event("workloads.round", time.Since(t0))
	}
	for _, sl := range slots {
		k.DestroyProcess(sl.proc)
	}
	return float64(access.Nanoseconds()) / float64(ops), float64(barrier.Nanoseconds()) / float64(n), nil
}

// runCells runs sweep cells one at a time on systems kept per machine
// shape and reset between cells, as the sweep's pooled workers do, with an
// observer timing each round.
func runCells(p params, cells []mitosis.Scenario) error {
	systems := map[mitosis.SystemConfig]*mitosis.System{}
	p.serial = true // sweep cells run on the sequential engine
	for _, sc := range cells {
		sys := systems[sc.Machine]
		if sys == nil {
			t0 := time.Now()
			sys = mitosis.NewSystem(sc.Machine)
			p.tr.add("mitosis.boot", p.parent, t0, time.Now())
			systems[sc.Machine] = sys
		}
		if _, err := runOn(p, sys, sc); err != nil {
			return fmt.Errorf("replay: cell %s: %w", sc.Name, err)
		}
		t0 := time.Now()
		sys.Reset()
		p.tr.add("mitosis.reset", p.parent, t0, time.Now())
	}
	return nil
}
