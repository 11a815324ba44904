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
// replayable SweepResult plus the host-side throughput comparison between
// the pooled worker-pool runner and a serial fresh-build loop over the
// same cells.
type SweepBench struct {
	// HostCPUs is runtime.NumCPU() on the measuring host — the context for
	// judging Speedup (a pool cannot beat the serial loop by more than the
	// host's parallelism plus the pooling savings).
	HostCPUs int `json:"host_cpus"`
	// Workers is the pool size the pooled run used.
	Workers int `json:"workers"`
	// Cells is the number of cells both runners executed.
	Cells int `json:"cells"`
	// PooledOpsPerSec is the pooled worker-pool run's aggregate simulated
	// ops per host second — the figure CI diffs against its baseline.
	PooledOpsPerSec float64 `json:"pooled_ops_per_sec"`
	// SerialFreshOpsPerSec is the same grid run on one worker booting a
	// fresh machine per cell (zero when the comparison loop was skipped).
	SerialFreshOpsPerSec float64 `json:"serial_fresh_ops_per_sec,omitempty"`
	// Speedup is PooledOpsPerSec / SerialFreshOpsPerSec.
	Speedup float64 `json:"speedup,omitempty"`
	// BaselineOpsPerSec is filled by ApplyBaseline from a reference record.
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec,omitempty"`
	// Sweep is the pooled run: normalized spec, per-cell outcomes, host
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
	// Serial additionally runs the serial fresh-build comparison loop to
	// fill SerialFreshOpsPerSec/Speedup (doubles the target's runtime).
	Serial bool
}

// RunSweep executes the canonical (or quick) sweep grid on the pooled
// worker-pool runner and, optionally, the serial fresh-build loop the
// speedup figure compares against.
func RunSweep(opt SweepOptions) (*SweepBench, error) {
	sw := CanonicalSweep()
	if opt.Quick {
		sw = QuickSweep()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	pooled, err := mitosis.RunSweep(sw, mitosis.WithSweepWorkers(workers), mitosis.WithSweepLimit(opt.Cells))
	if err != nil {
		return nil, err
	}
	if pooled.Errors > 0 {
		for _, c := range pooled.Cells {
			if c.Error != "" {
				return nil, fmt.Errorf("sweep cell %d (%s): %s", c.Index, c.Name, c.Error)
			}
		}
	}
	b := &SweepBench{
		HostCPUs:        runtime.NumCPU(),
		Workers:         pooled.Workers,
		Cells:           len(pooled.Cells),
		PooledOpsPerSec: pooled.HostOpsPerSec,
		Sweep:           pooled,
	}
	if opt.Serial {
		serial, err := mitosis.RunSweep(sw,
			mitosis.WithSweepWorkers(1),
			mitosis.WithSweepPooling(false),
			mitosis.WithSweepLimit(opt.Cells))
		if err != nil {
			return nil, err
		}
		b.SerialFreshOpsPerSec = serial.HostOpsPerSec
		if serial.HostOpsPerSec > 0 {
			b.Speedup = pooled.HostOpsPerSec / serial.HostOpsPerSec
		}
	}
	return b, nil
}

// ApplyBaseline fills the baseline column from a reference record.
func (b *SweepBench) ApplyBaseline(ref *SweepBench) {
	b.BaselineOpsPerSec = ref.PooledOpsPerSec
}

// Compare returns an error when the pooled throughput regressed below
// (1-tolerance) x the reference's. Like the perf target's tolerance it is
// deliberately generous: baselines travel between hosts, so only
// structural slowdowns should trip CI.
func (b *SweepBench) Compare(ref *SweepBench, tolerance float64) error {
	if ref.PooledOpsPerSec <= 0 {
		return fmt.Errorf("sweep baseline carries no throughput")
	}
	floor := ref.PooledOpsPerSec * (1 - tolerance)
	if b.PooledOpsPerSec < floor {
		return fmt.Errorf("sweep throughput %.0f ops/s below %.0f (baseline %.0f, tolerance %.0f%%)",
			b.PooledOpsPerSec, floor, ref.PooledOpsPerSec, tolerance*100)
	}
	return nil
}

func (b *SweepBench) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "Sweep %q: %d cells, %d workers (host CPUs: %d)\n",
		b.Sweep.Sweep.Name, b.Cells, b.Workers, b.HostCPUs)
	fmt.Fprintf(&s, "  pooled worker pool:  %12.0f sim-ops/s  (%.2fs wall, %d sim-ops)\n",
		b.PooledOpsPerSec, b.Sweep.WallSec, b.Sweep.SimOps)
	if b.SerialFreshOpsPerSec > 0 {
		fmt.Fprintf(&s, "  serial fresh-build:  %12.0f sim-ops/s\n", b.SerialFreshOpsPerSec)
		fmt.Fprintf(&s, "  speedup: %.2fx\n", b.Speedup)
	}
	if b.BaselineOpsPerSec > 0 {
		fmt.Fprintf(&s, "  baseline: %.0f sim-ops/s (%.2fx)\n",
			b.BaselineOpsPerSec, b.PooledOpsPerSec/b.BaselineOpsPerSec)
	}
	return s.String()
}
