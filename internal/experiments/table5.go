package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// vmaOpCycles measures the kernel cycles of one VMA operation sequence
// (mmap with populate, mprotect, munmap) over a region of the given size,
// with or without 4-way page-table replication.
func vmaOpCycles(cfg Config, regionBytes uint64, replicate bool) (mmapCy, protectCy, unmapCy numa.Cycles, err error) {
	var reserve uint64
	if replicate {
		reserve = 128
	}
	k := cfg.newKernel(reserve)
	// Interleave keeps multi-GB regions within per-node capacity.
	p, err := k.CreateProcess(kernel.ProcessOpts{
		Name:       "vma-bench",
		Home:       0,
		DataPolicy: kernel.Interleave,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// Single core: the paper's microbenchmark runs on an otherwise idle
	// system with a single-threaded process, so no shootdown IPIs occur.
	if err := k.RunOn(p, []numa.CoreID{k.Topology().FirstCoreOf(0)}); err != nil {
		return 0, 0, 0, err
	}
	if replicate {
		if err := p.SetReplicationMask(allNodes(k)); err != nil {
			return 0, 0, 0, err
		}
	}
	core0 := p.Cores()[0]
	m := k.Machine()

	// Warm the page-table path: map and unmap the range once so the
	// interior page-table pages exist, as they would in a steady-state
	// address space (unmap leaves page-table pages in place, like Linux).
	warmBase, err := k.Mmap(p, regionBytes, kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("warm mmap: %w", err)
	}
	if err := k.Munmap(p, warmBase); err != nil {
		return 0, 0, 0, fmt.Errorf("warm munmap: %w", err)
	}

	before := m.Stats(core0).Cycles
	base, err := k.Mmap(p, regionBytes, kernel.MmapOpts{Writable: true, Populate: true, At: warmBase})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("mmap: %w", err)
	}
	mmapCy = m.Stats(core0).Cycles - before

	before = m.Stats(core0).Cycles
	if err := k.Mprotect(p, base, false); err != nil {
		return 0, 0, 0, fmt.Errorf("mprotect: %w", err)
	}
	protectCy = m.Stats(core0).Cycles - before

	before = m.Stats(core0).Cycles
	if err := k.Munmap(p, base); err != nil {
		return 0, 0, 0, fmt.Errorf("munmap: %w", err)
	}
	unmapCy = m.Stats(core0).Cycles - before
	return mmapCy, protectCy, unmapCy, nil
}

// Table5Sizes are the region sizes of the paper's Table 5.
var Table5Sizes = []struct {
	Name  string
	Bytes uint64
}{
	{"4KB region", 4 << 10},
	{"8MB region", 8 << 20},
	{"4GB region", 4 << 30},
}

// RunTable5 regenerates Table 5: the runtime overhead of Mitosis on
// mmap/mprotect/munmap system calls with 4-way replication, as the ratio
// of replicated to native cycles.
func RunTable5(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Table 5: VMA operation overhead with 4-way replication",
		Note:    "ratio of kernel cycles, Mitosis on / off (MAP_POPULATE mmap)",
		Columns: []string{"Operation", "4KB region", "8MB region", "4GB region"},
	}
	var mmapRow, protRow, unmapRow []string
	mmapRow = append(mmapRow, "mmap")
	protRow = append(protRow, "mprotect")
	unmapRow = append(unmapRow, "munmap")
	for _, sz := range Table5Sizes {
		bytes := sz.Bytes
		if cfg.Scale != 1.0 && bytes > 8<<20 {
			bytes = uint64(float64(bytes) * cfg.Scale)
		}
		mOff, pOff, uOff, err := vmaOpCycles(cfg, bytes, false)
		if err != nil {
			return nil, runErr("table5 native "+sz.Name, err)
		}
		mOn, pOn, uOn, err := vmaOpCycles(cfg, bytes, true)
		if err != nil {
			return nil, runErr("table5 mitosis "+sz.Name, err)
		}
		mmapRow = append(mmapRow, metrics.X(float64(mOn)/float64(mOff)))
		protRow = append(protRow, metrics.X(float64(pOn)/float64(pOff)))
		unmapRow = append(unmapRow, metrics.X(float64(uOn)/float64(uOff)))
	}
	t.AddRow(mmapRow...)
	t.AddRow(protRow...)
	t.AddRow(unmapRow...)
	return t, nil
}

// RunTable6 regenerates Table 6: end-to-end runtime of single-threaded
// GUPS and Redis in the LP-LD configuration (everything local, THP off),
// including allocation and initialization, with Mitosis compiled in and
// replication enabled versus disabled. The paper reports < 0.5% overhead.
func RunTable6(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Table 6: end-to-end overhead of Mitosis (LP-LD, incl. initialization)",
		Columns: []string{"Workload", "Mitosis Off (Mcycles)", "Mitosis On (Mcycles)", "Overhead"},
	}
	for _, name := range []string{"GUPS", "Redis"} {
		var cycles [2]float64
		for i, replicate := range []bool{false, true} {
			// End-to-end through the scenario spec: a single IncludeSetup
			// phase measures WITHOUT resetting stats, so allocation and
			// initialization cycles count. Eager replication enables the
			// mask from the start: every PT update during initialization
			// pays the propagation cost.
			endToEnd := mitosis.Measure(cfg.Ops)
			endToEnd.IncludeSetup = true
			opts := []mitosis.ProcOpt{
				mitosis.OnSockets(0),
				mitosis.WithPhases(endToEnd),
			}
			if replicate {
				opts = append(opts, mitosis.WithReplication(mitosis.ReplicationSpec{All: true, Eager: true}))
			}
			sc := mitosis.NewScenario(fmt.Sprintf("table6/%s/mitosis=%v", name, replicate),
				mitosis.OnMachine(cfg.machine(false)),
				mitosis.WithSeed(cfg.Seed),
				mitosis.WithProc(mitosis.NewProc(name,
					mitosis.NamedWorkload(name, mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
					opts...)))
			rr, err := mitosis.Run(sc)
			if err != nil {
				return nil, err
			}
			cycles[i] = float64(rr.Measured(name).Counters.Cycles)
		}
		overhead := cycles[1]/cycles[0] - 1
		t.AddRow(name,
			fmt.Sprintf("%.1f", cycles[0]/1e6),
			fmt.Sprintf("%.1f", cycles[1]/1e6),
			fmt.Sprintf("%.2f%%", overhead*100))
	}
	return t, nil
}
