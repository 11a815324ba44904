package workloads

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// raggedDriver issues uneven batches, some of them empty, from each
// thread's Step generator, and ends the run from its barrier hook after
// rounds rounds — or fails there, when failAt is reached first.
type raggedDriver struct {
	steps  []Step
	rounds int
	failAt int
	round  int
}

var errHook = errors.New("hook failed")

func (d *raggedDriver) Batch(ti int, buf []hw.AccessOp) int {
	n := (ti*5 + d.round*3) % (len(buf) + 1)
	for i := range buf[:n] {
		buf[i].VA, buf[i].Write = d.steps[ti]()
	}
	return n
}

func (d *raggedDriver) Barrier(round int) ([]numa.CoreID, bool, error) {
	d.round = round
	if round == d.failAt {
		return nil, true, errHook
	}
	return nil, round == d.rounds, nil
}

// raggedRun drives a 4-socket, 2-cores-per-socket GUPS process through the
// round loop with a raggedDriver and returns the run's per-core counters.
func raggedRun(t *testing.T, mode Mode, failAt int) ([]hw.CoreStats, error) {
	t.Helper()
	env, w := engineEnv(t, func() Workload { return NewGUPS() }, 4, 2)
	cores := env.P.Cores()
	d := &raggedDriver{rounds: 60, failAt: failAt}
	for i := range cores {
		d.steps = append(d.steps, w.NewThread(env, i))
	}
	env.K.Machine().ResetStats()
	_, err := Loop{Name: "ragged", Mode: mode, Batch: 16}.Run(env.K.Machine(), cores, d)
	return Collect(env, cores).PerCore, err
}

// TestLoopRaggedBatchesDeterministic: a driver whose threads issue uneven
// and empty batches, and which ends the run from its barrier hook, gets
// bit-identical per-core counters from the Sequential and Parallel loops
// under every shard GOMAXPROCS 1..4 deals.
func TestLoopRaggedBatchesDeterministic(t *testing.T) {
	seq, err := raggedRun(t, Sequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ops uint64
	for _, s := range seq {
		ops += s.Ops
	}
	if ops == 0 {
		t.Fatal("ragged run issued no ops")
	}
	forEachGOMAXPROCS(t, func(t *testing.T) {
		par, err := raggedRun(t, Parallel, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("parallel per-core counters diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
		}
	})
}

// TestLoopJoinsHelpersOnHookError: like TestParallelJoinsHelpers, but for
// runs that end from the barrier hook — normally and with an error. The
// loop must return only after every helper goroutine has exited, and must
// pass the hook's error through.
func TestLoopJoinsHelpersOnHookError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, failAt := range []int{0, 3} {
		baseline := runtime.NumGoroutine()
		var after []int
		for range 5 {
			_, err := raggedRun(t, Parallel, failAt)
			if failAt == 0 && err != nil {
				t.Fatal(err)
			}
			if failAt != 0 && !errors.Is(err, errHook) {
				t.Fatalf("run failing at round %d returned %v, want the hook's error", failAt, err)
			}
			n := runtime.NumGoroutine()
			if n <= baseline {
				break
			}
			after = append(after, n)
		}
		if len(after) == 5 {
			t.Errorf("failAt=%d: goroutines right after five runs: %v, want %d", failAt, after, baseline)
		}
	}
}
