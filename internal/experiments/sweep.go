package experiments

import (
	"fmt"
	"runtime"
	"strings"

	mitosis "github.com/mitosis-project/mitosis-sim"
)

// CanonicalSweep is the committed fleet-scale grid behind BENCH_sweep.json:
// 4 workloads x 4 policies x 2 socket spans x 4 fragmentation levels x
// native+virt x 4 seed rungs = 1024 cells on a small 2-socket machine.
// Page-tables are stranded so replication policies have remote-walk
// pressure to act on; the scale and op counts are chosen so the whole grid
// runs in seconds while every subsystem (THP, fragmentation fallback,
// nested paging, runtime policies) is exercised.
func CanonicalSweep() mitosis.Sweep {
	return mitosis.Sweep{
		Name:          "canonical",
		Machine:       mitosis.SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20, THP: true},
		Workloads:     []string{"GUPS", "Redis", "XSBench", "BTree"},
		Policies:      []string{"none", "static", "ondemand", "costadaptive"},
		SocketCounts:  []int{1, 2},
		Fragmentation: []float64{0, 0.5, 0.9, 0.95},
		Virt:          []bool{false, true},
		SeedRungs:     4,
		Scale:         1.0 / 64,
		WarmupOps:     100,
		MeasureOps:    400,
		StrandPT:      true,
	}
}

// QuickSweep is the CI smoke subset: the same machine and semantics as
// CanonicalSweep with halved axes and ladder — 2 workloads x 2 policies x
// 2 spans x 2 fragmentation levels x native+virt x 2 rungs = 64 cells.
func QuickSweep() mitosis.Sweep {
	sw := CanonicalSweep()
	sw.Name = "quick"
	sw.Workloads = []string{"GUPS", "Redis"}
	sw.Policies = []string{"none", "ondemand"}
	sw.Fragmentation = []float64{0, 0.95}
	sw.SeedRungs = 2
	return sw
}

// SweepBench is the sweep target's machine-readable payload: the full
// replayable SweepResult plus the pooled runner's host throughput.
type SweepBench struct {
	// HostCPUs is runtime.NumCPU() on the measuring host — the context for
	// judging the throughput.
	HostCPUs int `json:"host_cpus"`
	// Workers is the pool size the run used.
	Workers int `json:"workers"`
	// Cells is the number of cells the run executed.
	Cells int `json:"cells"`
	// PooledOpsPerSec is the worker-pool run's aggregate simulated ops
	// per host second.
	PooledOpsPerSec float64 `json:"pooled_ops_per_sec"`
	// Sweep is the run: normalized spec, per-cell outcomes, host
	// throughput. Every cell replays bit-identically from Sweep.Sweep.
	Sweep *mitosis.SweepResult `json:"sweep"`
}

// SweepOptions tune the sweep target.
type SweepOptions struct {
	// Quick selects the 64-cell QuickSweep instead of CanonicalSweep.
	Quick bool
	// Cells truncates the grid to its first n cells (0 = all).
	Cells int
	// Workers sets the pool size (0 = host CPU count).
	Workers int
}

// RunSweep executes the canonical (or quick) sweep grid on the pooled
// worker-pool runner. A failed cell fails the target.
func RunSweep(opt SweepOptions) (*SweepBench, error) {
	sw := CanonicalSweep()
	if opt.Quick {
		sw = QuickSweep()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	res, err := mitosis.RunSweep(sw, mitosis.WithSweepWorkers(workers), mitosis.WithSweepLimit(opt.Cells))
	if err != nil {
		return nil, err
	}
	if res.Errors > 0 {
		for _, c := range res.Cells {
			if c.Error != "" {
				return nil, fmt.Errorf("sweep cell %d (%s): %s", c.Index, c.Name, c.Error)
			}
		}
	}
	return &SweepBench{
		HostCPUs:        runtime.NumCPU(),
		Workers:         res.Workers,
		Cells:           len(res.Cells),
		PooledOpsPerSec: res.HostOpsPerSec,
		Sweep:           res,
	}, nil
}

func (b *SweepBench) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "Sweep %q: %d cells, %d workers (host CPUs: %d)\n",
		b.Sweep.Sweep.Name, b.Cells, b.Workers, b.HostCPUs)
	fmt.Fprintf(&s, "  pooled worker pool:  %12.0f sim-ops/s  (%.2fs wall, %d sim-ops)\n",
		b.PooledOpsPerSec, b.Sweep.WallSec, b.Sweep.SimOps)
	return s.String()
}
