package mitosis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// hardwareRoundTripSpecs are the specs TestHardwareSpecStringRoundTrip
// pins and FuzzParseHardware seeds from.
var hardwareRoundTripSpecs = []HardwareSpec{
	{},
	{Backend: HardwareX8664},
	{Backend: HardwareX8664LA57},
	{Backend: HardwareVictima},
	{Backend: HardwareX8664, NoPSC: true},
	{Backend: HardwareX8664LA57, L1TLB4K: 32, L1TLB4KWays: 8},
	{Backend: HardwareX8664, L2TLB: 128, L2TLBWays: 8, PSCL2: 4, PSCL3: 2, PSCL4: 1},
	{Backend: HardwareVictima, L1TLB4K: 8, L1TLB4KWays: 2, L1TLB2M: 4, L1TLB2MWays: 2},
}

// TestHardwareSpecStringRoundTrip pins the canonical string form: every
// spec survives String -> ParseHardware unchanged, and the string is the
// normalized SystemConfig.Hardware value the sweep pool keys on.
func TestHardwareSpecStringRoundTrip(t *testing.T) {
	for _, spec := range hardwareRoundTripSpecs {
		s := spec.String()
		back, err := ParseHardware(s)
		if err != nil {
			t.Errorf("ParseHardware(%q): %v", s, err)
			continue
		}
		if back != spec {
			t.Errorf("round trip of %q: %+v != %+v", s, back, spec)
		}
		if again := back.String(); again != s {
			t.Errorf("re-render of %q produced %q", s, again)
		}
	}
	if (HardwareSpec{}).String() != "" {
		t.Error("zero spec must render as the empty string")
	}

	bad := []string{
		":", "x8664:", "x8664:psc", "x8664:psc=1/2", "x8664:l2=a/b",
		"x8664:nope=1", "x8664:l14k=1/2/3",
	}
	for _, s := range bad {
		if _, err := ParseHardware(s); err == nil {
			t.Errorf("ParseHardware(%q) accepted a malformed spec", s)
		}
	}
}

// FuzzParseHardware: ParseHardware never panics, and every string it
// accepts renders through String to a canonical form that parses back to
// a spec rendering the same string, with the same validation verdict.
func FuzzParseHardware(f *testing.F) {
	for _, spec := range hardwareRoundTripSpecs {
		f.Add(spec.String())
	}
	f.Add("x8664:l2=512/512")
	f.Add("x8664:psc=300/16/8/4")
	f.Add("victima:l14k=8/2, psc=0/0/0/0")
	verdict := func(h HardwareSpec) bool {
		return h == (HardwareSpec{}) || h.translateSpec().Validate() == nil
	}
	f.Fuzz(func(t *testing.T, s string) {
		h, err := ParseHardware(s)
		if err != nil {
			return
		}
		canon := h.String()
		back, err := ParseHardware(canon)
		if err != nil {
			t.Fatalf("ParseHardware(%q) accepted, but its rendering %q fails: %v", s, canon, err)
		}
		if again := back.String(); again != canon {
			t.Fatalf("%q renders %q, which re-renders as %q", s, canon, again)
		}
		if verdict(h) != verdict(back) {
			t.Fatalf("%q and its rendering %q get different validation verdicts", s, canon)
		}
	})
}

// TestHardwareValidation drives the spec-level invariants through
// Scenario.Validate, where geometry errors must surface.
func TestHardwareValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"unknown backend", func(s *Scenario) { s.Machine.Hardware = "pdp11" }, "unknown"},
		{"victima with L2", func(s *Scenario) { s.Machine.Hardware = "victima:l2=64/8" }, "l2"},
		{"la57 bad L2 geometry", func(s *Scenario) { s.Machine.Hardware = "x8664la57:l2=60/8" }, "multiple of ways"},
		{"malformed spec", func(s *Scenario) { s.Machine.Hardware = "x8664:l2=?" }, "/-separated"},
		// Recency is a uint8 permutation: a 512-way set or a 300-entry PSC
		// row would silently keep only 256 entries.
		{"512-way L2", func(s *Scenario) { s.Machine.Hardware = "x8664:l2=512/512" }, "above 256"},
		{"300-entry PDE row", func(s *Scenario) { s.Machine.Hardware = "x8664:psc=300/16/8/4" }, "above 256"},
		{"512-way victima L1", func(s *Scenario) { s.Machine.Hardware = "victima:l14k=512/512" }, "above 256"},
	}
	for _, c := range cases {
		sc := testScenario()
		c.mut(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}

	for _, hw := range []string{"x8664:l2=256/256", "x8664la57:psc=256/1/1/1"} {
		sc := testScenario()
		sc.Machine.Hardware = hw
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want the 256-wide geometry accepted", hw, err)
		}
	}

	// LA57 guests are unsupported: a virtualized scenario must reject the
	// 5-level backend but accept victima (a 4-level design).
	vm := testVirtScenario()
	vm.Machine.Hardware = HardwareX8664LA57
	if err := vm.Validate(); err == nil || !strings.Contains(err.Error(), "4-level") {
		t.Errorf("la57 + vm accepted: %v", err)
	}
	vm.Machine.Hardware = HardwareVictima
	if err := vm.Validate(); err != nil {
		t.Errorf("victima + vm rejected: %v", err)
	}
}

// TestHardwareEcho: every run's result carries the booted backend's
// geometry, and the echo survives a JSON round trip.
func TestHardwareEcho(t *testing.T) {
	sc := testScenario()
	sc.Machine.Hardware = HardwareVictima
	sc.Processes[0].Phases = []PhaseSpec{Measure(500)}
	sc.Processes = sc.Processes[:1]
	rr, err := Run(sc, WithEngine(SequentialEngine))
	if err != nil {
		t.Fatal(err)
	}
	g := rr.Hardware
	if g.Backend != HardwareVictima || g.Levels != 4 || g.VABits != 48 {
		t.Errorf("victima echo = %+v", g)
	}
	if g.L2TLB != 0 {
		t.Errorf("victima echo claims an L2 TLB: %+v", g)
	}
	data, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	var back RunResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Hardware, g) {
		t.Errorf("echo lost in JSON: %+v != %+v", back.Hardware, g)
	}
}

// TestRunDeterminismAcrossModesPerBackend extends the cross-engine
// determinism contract to every translation backend: for each backend the
// Sequential, Parallel and Auto engines must produce bit-identical phase
// counters and policy telemetry.
func TestRunDeterminismAcrossModesPerBackend(t *testing.T) {
	for _, backend := range HardwareBackends() {
		t.Run(backend, func(t *testing.T) {
			sc := testScenario()
			sc.Machine.Hardware = backend
			var ref *RunResult
			for _, mode := range []EngineMode{SequentialEngine, ParallelEngine, AutoEngine} {
				rr, err := Run(sc, WithEngine(mode))
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if rr.Hardware.Backend != backend {
					t.Fatalf("%v: booted %q, want %q", mode, rr.Hardware.Backend, backend)
				}
				if ref == nil {
					ref = rr
					continue
				}
				if !reflect.DeepEqual(ref.Phases, rr.Phases) {
					t.Errorf("%v diverged:\nseq: %+v\ngot: %+v", mode, ref.Phases, rr.Phases)
				}
				if !reflect.DeepEqual(ref.Policies, rr.Policies) {
					t.Errorf("%v: policy telemetry diverged", mode)
				}
				if ref.ReplicaPTPages != rr.ReplicaPTPages {
					t.Errorf("%v: replica PT pages %d, want %d", mode, rr.ReplicaPTPages, ref.ReplicaPTPages)
				}
			}
		})
	}
}

// TestBackendsMateriallyDiffer guards against the backends silently
// collapsing into one implementation: with the paging-structure caches
// off, the 5-level walk must cost more cycles than the 4-level one, and
// victima must report no L2 TLB while still translating.
func TestBackendsMateriallyDiffer(t *testing.T) {
	run := func(hw string) *RunResult {
		sc := testScenario()
		sc.Processes = sc.Processes[:1]
		sc.Machine.Hardware = hw
		rr, err := Run(sc, WithEngine(SequentialEngine))
		if err != nil {
			t.Fatalf("%s: %v", hw, err)
		}
		return rr
	}
	w4 := run("x8664:psc=0/0/0/0").Measured("gups").Counters
	w5 := run("x8664la57:psc=0/0/0/0").Measured("gups").Counters
	if w5.WalkCycles <= w4.WalkCycles {
		t.Errorf("5-level walk cycles %d not above 4-level %d with PSC off", w5.WalkCycles, w4.WalkCycles)
	}
	vic := run(HardwareVictima).Measured("gups").Counters
	if vic.Ops == 0 || vic.Walks == 0 {
		t.Errorf("victima did not translate: %+v", vic)
	}
}
