package experiments

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// RunAblationPropagation compares the two replica-update strategies of
// §5.2: the circular-list design (2N memory references per propagated
// store) against the naive per-replica table walk (4N references). It
// measures a PTE-update-dominated operation — mprotect over a populated
// region — with 4-way replication under each strategy.
func RunAblationPropagation(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Ablation: replica update propagation (paper §5.2)",
		Note:    "mprotect of a populated 64MB region with 4-way replication",
		Columns: []string{"Strategy", "Kernel cycles", "vs ring"},
	}
	measure := func(prop core.Propagation) (numa.Cycles, error) {
		k := cfg.newKernel(64)
		k.Backend().SetPropagation(prop)
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: "prop", Home: 0, DataPolicy: kernel.Interleave})
		if err != nil {
			return 0, err
		}
		if err := k.RunOn(p, []numa.CoreID{k.Topology().FirstCoreOf(0)}); err != nil {
			return 0, err
		}
		if err := p.SetReplicationMask(allNodes(k)); err != nil {
			return 0, err
		}
		base, err := k.Mmap(p, 64<<20, kernel.MmapOpts{Writable: true, Populate: true})
		if err != nil {
			return 0, err
		}
		c := p.Cores()[0]
		before := k.Machine().Stats(c).Cycles
		if err := k.Mprotect(p, base, false); err != nil {
			return 0, err
		}
		return k.Machine().Stats(c).Cycles - before, nil
	}
	ring, err := measure(core.PropagateRing)
	if err != nil {
		return nil, runErr("ring propagation", err)
	}
	walk, err := measure(core.PropagateWalk)
	if err != nil {
		return nil, runErr("walk propagation", err)
	}
	t.AddRow("circular list (2N)", fmt.Sprintf("%d", ring), "1.00x")
	t.AddRow("per-replica walk (4N)", fmt.Sprintf("%d", walk), metrics.X(float64(walk)/float64(ring)))
	return t, nil
}

// fiveLevelHardware is the five-level ablation's pair of machines: 4-level
// x86-64 and 5-level LA57 paging, both with the paging-structure caches
// off so every walk reads every level.
var fiveLevelHardware = [...]translate.Spec{
	{Backend: translate.BackendX8664, PSC: &mmucache.PSCConfig{}},
	{Backend: translate.BackendX8664LA57, PSC: &mmucache.PSCConfig{}},
}

// RunAblationFiveLevel quantifies the walk-cost amplification of Intel
// 5-level paging (§1: the 4-access penalty "will grow to 5") and shows
// that Mitosis recovers proportionally more. MMU paging-structure caches
// are disabled so the full walk depth is exposed (with them, upper levels
// are skipped and 4- and 5-level walks cost the same — itself a useful
// observation).
func RunAblationFiveLevel(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Ablation: 4-level vs 5-level paging (GUPS, RPI-LD, MMU caches off)",
		Note:    "walk cycles per op with page-tables remote+loaded, and with Mitosis migration",
		Columns: []string{"Levels", "RPI-LD walk cyc/op", "+M walk cyc/op", "recovered"},
	}
	for _, spec := range fiveLevelHardware {
		var levels int
		var walkPerOp [2]float64
		for i, migrate := range []bool{false, true} {
			k := kernel.New(kernel.Config{FramesPerNode: cfg.FramesPerNode, Hardware: spec})
			levels = k.HardwareGeometry().Levels
			w := cfg.workload(workloads.NewGUPS())
			nodeB := k.Topology().NodeOf(wmSocketB)
			p, err := k.CreateProcess(kernel.ProcessOpts{
				Name: "gups", Home: wmSocketA,
				DataPolicy: kernel.Bind, BindNode: k.Topology().NodeOf(wmSocketA),
				PTPolicy: kernel.PTFixed, PTNode: nodeB,
				DataLocality: w.DataLocality(),
			})
			if err != nil {
				return nil, err
			}
			if err := k.RunOn(p, []numa.CoreID{k.Topology().FirstCoreOf(wmSocketA)}); err != nil {
				return nil, err
			}
			env := workloads.NewEnv(k, p, false, cfg.Seed)
			if err := w.Setup(env); err != nil {
				return nil, err
			}
			if migrate {
				if err := k.MigratePT(p, k.Topology().NodeOf(wmSocketA), false); err != nil {
					return nil, err
				}
			}
			k.SetInterference(nodeB, true)
			res, err := workloads.Run(env, w, cfg.Ops)
			if err != nil {
				return nil, err
			}
			walkPerOp[i] = float64(res.Total.WalkCycles) / float64(res.Total.Ops)
		}
		t.AddRow(fmt.Sprintf("%d", levels),
			fmt.Sprintf("%.0f", walkPerOp[0]),
			fmt.Sprintf("%.0f", walkPerOp[1]),
			metrics.X(walkPerOp[0]/walkPerOp[1]))
	}
	return t, nil
}

// RunAblationPageCache demonstrates §5.1's reservation pool: replication
// onto a memory-exhausted node fails strictly without the per-socket page
// cache and succeeds with it.
func RunAblationPageCache(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Ablation: per-socket page cache for strict replica allocation (paper §5.1)",
		Columns: []string{"Page cache", "replication on full node"},
	}
	for _, reserve := range []uint64{0, 256} {
		k := cfg.newKernel(reserve)
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: "pc", Home: 0})
		if err != nil {
			return nil, err
		}
		if err := k.RunOnSocket(p, 0); err != nil {
			return nil, err
		}
		if _, err := k.Mmap(p, 16<<20, kernel.MmapOpts{Writable: true, Populate: true}); err != nil {
			return nil, err
		}
		// Exhaust node 3 behind the allocator's back.
		for {
			if _, err := k.Mem().AllocData(3); err != nil {
				break
			}
		}
		err = p.SetReplicationMask(allNodes(k))
		outcome := "ok"
		if err != nil {
			outcome = "failed: " + err.Error()
		}
		label := "off"
		if reserve > 0 {
			label = fmt.Sprintf("%d pages/node", reserve)
		}
		t.AddRow(label, outcome)
	}
	return t, nil
}

// RunAblationAutoPolicy demonstrates the counter-based automatic trigger
// of §6.1 (future work in the paper): a TLB-heavy multi-socket workload
// starts unreplicated; after the policy samples its counters it enables
// replication, and throughput improves.
func RunAblationAutoPolicy(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Ablation: counter-based automatic replication policy (paper §6.1)",
		Columns: []string{"Phase", "cycles/op", "walk%", "replicated"},
	}
	k := cfg.newKernel(64)
	w := cfg.workload(cloneMS("XSBench"))
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "auto", Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		return nil, err
	}
	if err := k.RunOn(p, oneCorePerSocket(k)); err != nil {
		return nil, err
	}
	env := workloads.NewEnv(k, p, false, cfg.Seed)
	if err := w.Setup(env); err != nil {
		return nil, err
	}
	policy := core.DefaultAutoPolicy()

	before, err := workloads.Run(env, w, cfg.Ops)
	if err != nil {
		return nil, err
	}
	recommended := policy.Recommend(&before.Total)
	t.AddRow("before",
		fmt.Sprintf("%.0f", float64(before.Total.Cycles)/float64(before.Total.Ops)),
		metrics.Pct(before.Total.WalkCycleFraction()),
		fmt.Sprintf("%v (policy: %v)", p.Space().Replicated(), recommended))

	if recommended {
		if err := p.SetReplicationMask(allNodes(k)); err != nil {
			return nil, err
		}
	}
	after, err := workloads.Run(env, w, cfg.Ops)
	if err != nil {
		return nil, err
	}
	t.AddRow("after",
		fmt.Sprintf("%.0f", float64(after.Total.Cycles)/float64(after.Total.Ops)),
		metrics.Pct(after.Total.WalkCycleFraction()),
		fmt.Sprintf("%v", p.Space().Replicated()))
	return t, nil
}
