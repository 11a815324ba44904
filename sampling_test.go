package mitosis

import (
	"reflect"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// samplingMachine is the machine of the sampling tests: two sockets with a
// CXL expander, small enough to read every frame's metadata.
var samplingMachine = SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20, Tiers: "cxl@0"}

// samplingProc is a small GUPS on socket 0 with its data interleaved over
// both sockets, so half its accesses are remote and an AutoNUMA scan has
// pages to move; opts add a tier policy or phases.
func samplingProc(name string, opts ...ProcOpt) ProcSpec {
	opts = append([]ProcOpt{OnSockets(0), WithDataPolicy("interleave")}, opts...)
	return NewProc(name, GUPS(InSuite("wm"), Scaled(1.0/256)), opts...)
}

// samplingScenarios are scenarios whose outcome depends on the samples
// their runs take, and one that reads none.
func samplingScenarios() []struct {
	name  string
	reads bool
	sc    Scenario
} {
	tiering := WithTiering(TieringSpec{Policy: "hotcold-ptpin", TickEvery: 2})
	balance := WithPhases(Measure(3000), PhaseSpec{Name: "balanced", AutoNUMA: true, Ops: 3000})
	plain := WithPhases(Measure(3000))
	scenario := func(name string, procs ...ProcSpec) Scenario {
		opts := []ScenarioOpt{OnMachine(samplingMachine), WithSeed(11)}
		for _, p := range procs {
			opts = append(opts, WithProc(p))
		}
		return NewScenario("test/sampling/"+name, opts...)
	}
	return []struct {
		name  string
		reads bool
		sc    Scenario
	}{
		{"autonuma", true, scenario("autonuma", samplingProc("a", balance))},
		{"tier", true, scenario("tier", samplingProc("a", tiering, plain))},
		{"both", true, scenario("both", samplingProc("a", tiering, balance))},
		{"second-reads", true, scenario("second-reads", samplingProc("a", plain), samplingProc("b", WithPTNode(2), tiering, plain))},
		{"readerless", false, scenario("readerless", samplingProc("a", plain), samplingProc("b", plain))},
	}
}

// TestSamplingOnlyWhereRead checks that a run which reads no sample
// returns what it returns with every sample taken: each scenario runs
// with sampling forced on and as the run decides, and the results must
// be equal. The tier, AutoNUMA and two-process scenarios read samples,
// so a run that wrongly stopped taking them would return other actions
// and counters.
func TestSamplingOnlyWhereRead(t *testing.T) {
	defer func() { alwaysSample = false }()
	for _, c := range samplingScenarios() {
		t.Run(c.name, func(t *testing.T) {
			if got := c.sc.readsSamples(); got != c.reads {
				t.Fatalf("readsSamples() = %v, want %v", got, c.reads)
			}
			alwaysSample = true
			want, err := Run(c.sc)
			if err != nil {
				t.Fatal(err)
			}
			alwaysSample = false
			got, err := Run(c.sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result with samples only where read differs from the one with every sample:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestReaderlessRunTakesNoSample checks what a run that reads no sample
// leaves behind: no sample in any frame's metadata, and sampling on for
// whoever drives the machine next. A system that ran such a run and is
// reset, as the system pool resets it, then runs a scenario that reads
// samples exactly as a freshly booted one does, twice.
func TestReaderlessRunTakesNoSample(t *testing.T) {
	scs := samplingScenarios()
	readerless, reader := scs[len(scs)-1].sc, scs[len(scs)-2].sc
	sys := NewSystem(samplingMachine)
	if _, err := sys.Run(readerless); err != nil {
		t.Fatal(err)
	}
	pm := sys.Kernel().Mem()
	frames := mem.FrameID(sys.Kernel().Topology().Nodes()) * mem.FrameID(samplingMachine.MemoryPerNode>>12)
	for f := range frames {
		if meta := pm.Meta(f); meta.LocalAccesses|meta.RemoteAccesses != 0 || meta.AccessSocket != 0 {
			t.Fatalf("frame %d holds samples after a run that reads none: %+v", f, *meta)
		}
	}
	// Sampling is on again: an access from the process's core samples.
	p := sys.Proc("a").Process()
	var va pt.VirtAddr
	var frame mem.FrameID
	p.ForEachMappedPage(func(v pt.VirtAddr, f mem.FrameID, _ pt.PageSize) {
		if frame == 0 {
			va, frame = v, f
		}
	})
	if err := hwtest.Access(sys.Kernel().Machine(), p.Cores()[0], va, false); err != nil {
		t.Fatal(err)
	}
	if meta := pm.Meta(frame); meta.LocalAccesses+meta.RemoteAccesses != 1 {
		t.Errorf("an access after the run left %+v in its frame, want one sample", *meta)
	}

	want, err := Run(reader)
	if err != nil {
		t.Fatal(err)
	}
	// The second reader run reuses the first one's tier tracker.
	for i := range 2 {
		sys.Reset()
		got, err := sys.Run(reader)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reader run %d on the reset system returns\n %+v\nfresh system returns\n %+v", i+1, got, want)
		}
	}
}
