package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// EngineBenchResult measures the simulator's own execution engine: the
// wall-clock throughput of the sequential reference engine versus the
// parallel batched engine on the same multi-socket run, plus the
// determinism check that their simulated counters agree exactly.
type EngineBenchResult struct {
	Workload     string  `json:"workload"`
	Sockets      int     `json:"sockets"`
	HostCPUs     int     `json:"host_cpus"`
	OpsPerThread int     `json:"ops_per_thread"`
	TotalOps     uint64  `json:"total_ops"`
	SeqWallSec   float64 `json:"seq_wall_sec"`
	ParWallSec   float64 `json:"par_wall_sec"`
	SeqOpsPerSec float64 `json:"seq_ops_per_sec"`
	ParOpsPerSec float64 `json:"par_ops_per_sec"`
	// Speedup is the sequential engine's wall clock over the parallel
	// engine's, one run each. The parallel engine deals the sockets to
	// min(Sockets, HostCPUs) goroutines, so with one host CPU both sides
	// run the same single-goroutine loop.
	Speedup float64 `json:"speedup"`
	// CountersMatch reports whether the two engine modes produced
	// bit-identical workloads.Result counters — the determinism contract.
	CountersMatch bool `json:"counters_match"`
	// SimCycles is the simulated makespan of the measured run.
	SimCycles uint64 `json:"sim_cycles"`
	// SimWalkCycleFraction is the simulated page-walk share of runtime.
	SimWalkCycleFraction float64 `json:"sim_walk_cycle_fraction"`
}

// engineBenchChunk is the round length used for the engine benchmark: long
// rounds amortize the barrier cost, which is what a throughput run wants
// (the figure experiments keep the default short rounds for tighter
// coherence latency).
const engineBenchChunk = 256

// RunEngineBench runs the paper's GUPS workload across every socket under
// the sequential and the parallel engine and reports the simulator's own
// (host) throughput for each. GUPS is the natural engine stressor: nearly
// every op misses the TLB, so the run is dominated by simulated page walks
// rather than op generation.
func RunEngineBench(cfg Config) (*EngineBenchResult, error) {
	cfg = cfg.fill()

	setup := func() (*workloads.Env, workloads.Workload, error) {
		k := cfg.newKernel(false)
		w := cfg.workload(workloads.NewGUPS())
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
		if err != nil {
			return nil, nil, runErr("create process", err)
		}
		if err := k.RunOn(p, oneCorePerSocket(k)); err != nil {
			return nil, nil, runErr("schedule", err)
		}
		env := workloads.NewEnv(k, p, false, cfg.Seed)
		if err := w.Setup(env); err != nil {
			return nil, nil, runErr("setup", err)
		}
		return env, w, nil
	}

	measure := func(mode workloads.Mode) (*workloads.Result, float64, error) {
		env, w, err := setup()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		res, err := workloads.RunWith(env, w, cfg.Ops,
			workloads.EngineConfig{Mode: mode, Chunk: engineBenchChunk})
		if err != nil {
			return nil, 0, runErr("measure", err)
		}
		return res, time.Since(start).Seconds(), nil
	}

	seqRes, seqSec, err := measure(workloads.Sequential)
	if err != nil {
		return nil, err
	}
	parRes, parSec, err := measure(workloads.Parallel)
	if err != nil {
		return nil, err
	}

	r := &EngineBenchResult{
		Workload: "GUPS",
		// One worker per socket, so the per-core counter count is the
		// socket count of the run.
		Sockets:              len(parRes.PerCore),
		HostCPUs:             runtime.GOMAXPROCS(0),
		OpsPerThread:         cfg.Ops,
		TotalOps:             parRes.Ops,
		SeqWallSec:           seqSec,
		ParWallSec:           parSec,
		CountersMatch:        reflect.DeepEqual(seqRes, parRes),
		SimCycles:            uint64(parRes.Cycles),
		SimWalkCycleFraction: parRes.WalkCycleFraction(),
	}
	if seqSec > 0 {
		r.SeqOpsPerSec = float64(seqRes.Ops) / seqSec
	}
	if parSec > 0 {
		r.ParOpsPerSec = float64(parRes.Ops) / parSec
		r.Speedup = seqSec / parSec
	}
	return r, nil
}

func (r *EngineBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Engine benchmark: %s, %d sockets, %d ops/thread (%d total), %d host CPUs\n",
		r.Workload, r.Sockets, r.OpsPerThread, r.TotalOps, r.HostCPUs)
	fmt.Fprintf(&b, "  sequential: %9.0f ops/s  (%.3fs)\n", r.SeqOpsPerSec, r.SeqWallSec)
	fmt.Fprintf(&b, "  parallel:   %9.0f ops/s  (%.3fs, %d sockets on %d goroutines)\n",
		r.ParOpsPerSec, r.ParWallSec, r.Sockets, min(r.Sockets, r.HostCPUs))
	fmt.Fprintf(&b, "  parallel vs sequential: %.2fx   counters match: %v\n", r.Speedup, r.CountersMatch)
	fmt.Fprintf(&b, "  simulated: %d cycles, %.1f%% in page walks\n",
		r.SimCycles, 100*r.SimWalkCycleFraction)
	return b.String()
}
