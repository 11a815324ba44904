package workloads

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// refTouchRange is the reference first-touch loop set-up ran before it
// moved onto the round loop: batches of touchBatch writes issued straight
// through Machine.AccessBatch outside the single-writer bracket (the
// locked LLC path), each followed by DrainCoherence.
func refTouchRange(e *Env, core numa.CoreID, base pt.VirtAddr, size uint64) error {
	m := e.K.Machine()
	ops := make([]hw.AccessOp, 0, touchBatch)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		err := m.AccessBatch(core, ops)
		m.DrainCoherence([]numa.CoreID{core})
		if err != nil {
			return fmt.Errorf("workloads: init touch on core %d: %w", core, err)
		}
		ops = ops[:0]
		return nil
	}
	for off := uint64(0); off < size; off += initStep {
		ops = append(ops, hw.AccessOp{VA: base + pt.VirtAddr(off), Write: true})
		if len(ops) == touchBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// refInitRegion is InitRegion over refTouchRange.
func refInitRegion(e *Env, name string, style InitStyle) error {
	return e.initRegion(e.Region(name), style, func(core numa.CoreID, base pt.VirtAddr, size uint64) error {
		return refTouchRange(e, core, base, size)
	})
}

// setupState is everything first-touch set-up leaves in the machine that
// a later run can observe.
type setupState struct {
	Cores []hw.CoreStats
	TLBs  []tlb.Stats
	LLCs  []int // lines each socket's LLC holds
	Meta  []mem.FrameMeta
}

func captureSetup(k *kernel.Kernel) setupState {
	m := k.Machine()
	topo := k.Topology()
	var st setupState
	for c := 0; c < topo.Cores(); c++ {
		st.Cores = append(st.Cores, m.Stats(numa.CoreID(c)))
		st.TLBs = append(st.TLBs, m.TLBStats(numa.CoreID(c)))
	}
	for s := 0; s < topo.Sockets(); s++ {
		st.LLCs = append(st.LLCs, m.LLCResident(numa.SocketID(s)))
	}
	pm := k.Mem()
	for f := uint64(0); f < pm.TotalFrames(); f++ {
		st.Meta = append(st.Meta, *pm.Meta(mem.FrameID(f)))
	}
	return st
}

// TestSetupMatchesBatchAndDrain runs the round-loop InitRegion and the
// reference batch-and-drain set-up on twin fresh two-socket machines, for
// both init styles, with a native and a virtualized process. Set-up must
// leave equal per-core counters (their WalkLLCHits and WalkMemAccesses are
// the walks' LLC hits and misses), TLB statistics, per-socket LLC
// residency and frame metadata, and a following 2,000-op run must
// produce equal results. MITOSIS_TEST_BACKEND selects the translation
// backend (virtualized processes fall back to 4-level paging under la57,
// whose guests are unsupported).
func TestSetupMatchesBatchAndDrain(t *testing.T) {
	for _, style := range []struct {
		name string
		s    InitStyle
	}{{"single", InitSingle}, {"partitioned", InitPartitioned}} {
		for _, virtualized := range []bool{false, true} {
			name := style.name + "/native"
			if virtualized {
				name = style.name + "/vm"
			}
			t.Run(name, func(t *testing.T) {
				type twin struct {
					k   *kernel.Kernel
					env *Env
					w   *GUPS
				}
				boot := func() twin {
					var hardware translate.Spec
					if b := os.Getenv("MITOSIS_TEST_BACKEND"); !(virtualized && b == translate.BackendX8664LA57) {
						hardware.Backend = b
					}
					k := kernel.New(kernel.Config{Topology: numa.NewTopology(2, 2), FramesPerNode: 1 << 15, Hardware: hardware})
					opts := kernel.ProcessOpts{Name: "equiv", Home: 0}
					if virtualized {
						vm, err := k.CreateVM(0)
						if err != nil {
							t.Fatal(err)
						}
						opts.VM = vm
					}
					p, err := k.CreateProcess(opts)
					if err != nil {
						t.Fatal(err)
					}
					topo := k.Topology()
					if err := k.RunOn(p, []numa.CoreID{topo.FirstCoreOf(0), topo.FirstCoreOf(1)}); err != nil {
						t.Fatal(err)
					}
					env := NewEnv(k, p, false, 11)
					// 1,532 pages: the partitioned split at page 766 falls
					// inside a page-table line, so the second socket's store
					// walks invalidate a line the first socket's LLC holds.
					w := &GUPS{FootprintBytes: 1532 << pt.PageShift4K, Init: style.s, Overlap: 1}
					if _, err := env.MapRegion("table", w.FootprintBytes); err != nil {
						t.Fatal(err)
					}
					return twin{k, env, w}
				}
				ref, got := boot(), boot()
				if err := refInitRegion(ref.env, "table", style.s); err != nil {
					t.Fatal(err)
				}
				if err := got.env.InitRegion("table", style.s); err != nil {
					t.Fatal(err)
				}
				want, have := captureSetup(ref.k), captureSetup(got.k)
				if have.Cores[0].Faults == 0 {
					t.Fatal("set-up took no faults")
				}
				if !reflect.DeepEqual(have.Cores, want.Cores) {
					t.Errorf("per-core counters differ:\n got %+v\nwant %+v", have.Cores, want.Cores)
				}
				if !reflect.DeepEqual(have.TLBs, want.TLBs) {
					t.Errorf("TLB stats differ:\n got %+v\nwant %+v", have.TLBs, want.TLBs)
				}
				if !reflect.DeepEqual(have.LLCs, want.LLCs) {
					t.Errorf("LLC stats differ:\n got %+v\nwant %+v", have.LLCs, want.LLCs)
				}
				for f := range want.Meta {
					if have.Meta[f] != want.Meta[f] {
						t.Fatalf("frame %d metadata differs:\n got %+v\nwant %+v", f, have.Meta[f], want.Meta[f])
					}
				}
				cfg := EngineConfig{Mode: Sequential}
				wantRes, err := RunWith(ref.env, ref.w, 2000, cfg)
				if err != nil {
					t.Fatal(err)
				}
				haveRes, err := RunWith(got.env, got.w, 2000, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(haveRes, wantRes) {
					t.Errorf("following run differs:\n got %+v\nwant %+v", haveRes, wantRes)
				}
			})
		}
	}
}
