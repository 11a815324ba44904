package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// PerfRow is one hot-path host-throughput measurement: how many simulated
// operations per wall-clock second the simulator sustains on that path.
type PerfRow struct {
	Name    string  `json:"name"`
	SimOps  uint64  `json:"sim_ops"`
	WallSec float64 `json:"wall_sec"`
	// OpsPerSec is simulated operations per host second — the number every
	// future PR is accountable for.
	OpsPerSec float64 `json:"ops_per_sec"`
	// BaselineOpsPerSec is a reference measurement for the same row taken
	// with the same harness (the committed BENCH_perf.json keeps the
	// pre-optimization numbers here). 0 = no reference recorded.
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec,omitempty"`
	// Speedup is OpsPerSec / BaselineOpsPerSec when a reference exists.
	Speedup float64 `json:"speedup_vs_baseline,omitempty"`
}

// PerfBench is the simulator-throughput trajectory record written to
// BENCH_perf.json. Rows measure, in order: the TLB-hit fast path, the
// TLB-miss page-walk path, the fault-storm populate path (allocator +
// demand paging), and the full parallel engine on multi-socket GUPS.
type PerfBench struct {
	HostCPUs int       `json:"host_cpus"`
	Rows     []PerfRow `json:"rows"`
}

// Row returns the named row, or nil.
func (p *PerfBench) Row(name string) *PerfRow {
	for i := range p.Rows {
		if p.Rows[i].Name == name {
			return &p.Rows[i]
		}
	}
	return nil
}

// ApplyBaseline fills each row's BaselineOpsPerSec/Speedup from the
// matching row of ref (typically the committed BENCH_perf.json).
func (p *PerfBench) ApplyBaseline(ref *PerfBench) {
	if ref == nil {
		return
	}
	for i := range p.Rows {
		r := ref.Row(p.Rows[i].Name)
		if r == nil || r.OpsPerSec <= 0 {
			continue
		}
		p.Rows[i].BaselineOpsPerSec = r.OpsPerSec
		p.Rows[i].Speedup = p.Rows[i].OpsPerSec / r.OpsPerSec
	}
}

// Compare checks every row that has a counterpart in ref against that
// reference with the given fractional tolerance: a row fails when its
// throughput drops below (1-tolerance) x the reference. Its error joins
// one error per failing row. The tolerance is deliberately generous — the
// reference may have been recorded on a different host — so only
// structural regressions (a hot path growing a lock, an O(n) scan, an
// allocation) trip it, not host noise.
func (p *PerfBench) Compare(ref *PerfBench, tolerance float64) error {
	if len(ref.Rows) == 0 {
		return fmt.Errorf("perf baseline carries no rows")
	}
	var errs []error
	for i := range p.Rows {
		row := &p.Rows[i]
		r := ref.Row(row.Name)
		if r == nil || r.OpsPerSec <= 0 {
			continue
		}
		floor := r.OpsPerSec * (1 - tolerance)
		if row.OpsPerSec < floor {
			errs = append(errs, fmt.Errorf("perf row %q: %.0f ops/s is below %.0f (baseline %.0f ops/s - %d%% tolerance)",
				row.Name, row.OpsPerSec, floor, r.OpsPerSec, int(tolerance*100)))
		}
	}
	return errors.Join(errs...)
}

// perfBatch is the batch length of the micro rows: long enough to amortize
// the per-batch overhead, matching the engine-bench regime.
const perfBatch = 512

// RunPerfBench measures the simulator's own hot-path host throughput:
//
//   - tlb-hit: one core re-accessing a resident page — every op hits the
//     first-level TLB. This is the per-op floor of the whole simulator.
//   - tlb-miss: one core striding randomly over a 512MB populated region —
//     nearly every op takes a full simulated page walk.
//   - fault-storm: MAP_POPULATE of a 512MB region with 4KB pages — the
//     demand-paging/allocator path that population, fragmentation and
//     incremental-replication (StepPages) phases stress.
//   - gups-parallel: the full round-based engine in Parallel mode running
//     GUPS on every socket (the engine acceptance workload).
//
// Operation counts scale with cfg.Ops so -quick stays a smoke run; the
// committed BENCH_perf.json is generated at the default scale.
//
// Each row is measured perfReps times and the best repetition is kept:
// throughput rows measure the simulator, not the host scheduler, and
// best-of-N is the standard way to strip co-runner noise from a
// wall-clock benchmark.
func RunPerfBench(cfg Config) (*PerfBench, error) {
	cfg = cfg.fill()
	res := &PerfBench{HostCPUs: runtime.GOMAXPROCS(0)}
	for _, measure := range []func(Config) (PerfRow, error){
		perfTLBHit, perfTLBMiss, perfFaultStorm, perfParallelGUPS,
	} {
		var best PerfRow
		for rep := 0; rep < perfReps; rep++ {
			row, err := measure(cfg)
			if err != nil {
				return nil, err
			}
			if row.OpsPerSec > best.OpsPerSec {
				best = row
			}
		}
		res.Rows = append(res.Rows, best)
	}
	return res, nil
}

// perfReps is the number of repetitions per row; the best one is reported.
const perfReps = 5

// perfEngineChunk is the gups-parallel row's round length: long rounds
// amortize the barrier cost, which is what a throughput run wants (the
// figure experiments keep the default short rounds for tighter coherence
// latency).
const perfEngineChunk = 256

// perfProc builds a single-core process with a populated region of the
// given size on node 0.
func perfProc(framesPerNode uint64, size uint64) (*kernel.Kernel, pt.VirtAddr, error) {
	k := kernel.New(kernel.Config{FramesPerNode: framesPerNode})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "perf", Home: 0})
	if err != nil {
		return nil, 0, err
	}
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		return nil, 0, err
	}
	base, err := k.Mmap(p, size, kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		return nil, 0, err
	}
	return k, base, nil
}

func perfTLBHit(cfg Config) (PerfRow, error) {
	total := 25 * cfg.Ops
	k, base, err := perfProc(1<<16, 1<<20)
	if err != nil {
		return PerfRow{}, err
	}
	m := k.Machine()
	ops := make([]hw.AccessOp, perfBatch)
	for i := range ops {
		ops[i] = hw.AccessOp{VA: base}
	}
	cores := []numa.CoreID{0}
	// The micro rows honour the engine's single-writer discipline (one
	// goroutine drives all accesses), so they measure the same LLC path
	// the round-based engine uses.
	m.BeginSingleWriter()
	defer m.EndSingleWriter()
	start := time.Now()
	done := 0
	for ; done < total; done += perfBatch {
		if err := m.AccessBatch(0, ops); err != nil {
			return PerfRow{}, err
		}
	}
	m.DrainCoherence(cores)
	wall := time.Since(start).Seconds()
	return perfRow("tlb-hit", uint64(done), wall), nil
}

func perfTLBMiss(cfg Config) (PerfRow, error) {
	total := 6 * cfg.Ops
	const size = 512 << 20
	k, base, err := perfProc(1<<18, size)
	if err != nil {
		return PerfRow{}, err
	}
	m := k.Machine()
	ops := make([]hw.AccessOp, perfBatch)
	cores := []numa.CoreID{0}
	m.BeginSingleWriter()
	defer m.EndSingleWriter()
	rng := uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 12345
	start := time.Now()
	done := 0
	for ; done < total; done += perfBatch {
		for i := range ops {
			rng = rng*6364136223846793005 + 1442695040888963407
			ops[i] = hw.AccessOp{VA: base + pt.VirtAddr(rng%size)&^63}
		}
		if err := m.AccessBatch(0, ops); err != nil {
			return PerfRow{}, err
		}
	}
	m.DrainCoherence(cores)
	wall := time.Since(start).Seconds()
	return perfRow("tlb-miss", uint64(done), wall), nil
}

func perfFaultStorm(cfg Config) (PerfRow, error) {
	// Populate a large 4KB-page region: every page is one demand-paging
	// fault through the allocator. One "op" = one page populated. Mmap and
	// Munmap alternate so the allocator sees the interleaved alloc/free
	// pattern of fault storms on an aged system.
	pages := uint64(cfg.Ops) * 2
	if maxPages := uint64(1 << 17); pages > maxPages {
		pages = maxPages
	}
	k := kernel.New(kernel.Config{FramesPerNode: 1 << 18})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "storm", Home: 0})
	if err != nil {
		return PerfRow{}, err
	}
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		return PerfRow{}, err
	}
	const rounds = 4
	var populated uint64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		base, err := k.Mmap(p, pages*4096, kernel.MmapOpts{Writable: true, Populate: true})
		if err != nil {
			return PerfRow{}, err
		}
		populated += pages
		if err := k.Munmap(p, base); err != nil {
			return PerfRow{}, err
		}
	}
	wall := time.Since(start).Seconds()
	return perfRow("fault-storm", populated, wall), nil
}

func perfParallelGUPS(cfg Config) (PerfRow, error) {
	k := cfg.newKernel(false)
	w := cfg.workload(workloads.NewGUPS())
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		return PerfRow{}, err
	}
	if err := k.RunOn(p, oneCorePerSocket(k)); err != nil {
		return PerfRow{}, err
	}
	env := workloads.NewEnv(k, p, false, cfg.Seed)
	if err := w.Setup(env); err != nil {
		return PerfRow{}, err
	}
	start := time.Now()
	res, err := workloads.RunWith(env, w, cfg.Ops,
		workloads.EngineConfig{Mode: workloads.Parallel, Chunk: perfEngineChunk})
	if err != nil {
		return PerfRow{}, err
	}
	wall := time.Since(start).Seconds()
	return perfRow("gups-parallel", res.Ops, wall), nil
}

func perfRow(name string, ops uint64, wall float64) PerfRow {
	r := PerfRow{Name: name, SimOps: ops, WallSec: wall}
	if wall > 0 {
		r.OpsPerSec = float64(ops) / wall
	}
	return r
}

func (p *PerfBench) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator hot-path throughput (%d host CPUs)\n", p.HostCPUs)
	fmt.Fprintf(&b, "  %-14s %12s %9s %14s %10s\n", "path", "sim-ops", "wall", "ops/sec", "vs base")
	for _, r := range p.Rows {
		base := "-"
		if r.BaselineOpsPerSec > 0 {
			base = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(&b, "  %-14s %12d %8.3fs %14.0f %10s\n",
			r.Name, r.SimOps, r.WallSec, r.OpsPerSec, base)
	}
	return b.String()
}
