package mitosis

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// testBackend is the translation backend the suite runs under:
// MITOSIS_TEST_BACKEND, set by CI's backend matrix ("" = the default
// x8664). Tests that pin a specific backend override it explicitly.
func testBackend() string { return os.Getenv("MITOSIS_TEST_BACKEND") }

// testVirtBackend is testBackend for virtualized scenarios: LA57 guests
// are unsupported (guest tables are 4-level), so that rung of the matrix
// falls back to the default backend.
func testVirtBackend() string {
	if b := testBackend(); b != HardwareX8664LA57 {
		return b
	}
	return ""
}

// testScenario is a small two-process scenario exercising the spec
// surface: a stranded-table GUPS under the ondemand policy, then a
// replicated PageRank across all sockets.
func testScenario() Scenario {
	return NewScenario("test/two-proc",
		OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20, Hardware: testBackend()}),
		WithSeed(7),
		WithProc(NewProc("gups",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(0),
			WithDataBind(0),
			WithPTNode(1),
			UnderPolicy("ondemand"),
			WithPhases(Warmup(500), Measure(2000)),
		)),
		WithProc(NewProc("pagerank",
			Analytics("PageRank", InSuite("wm"), Scaled(1.0/32)),
			WithReplication(ReplicationSpec{All: true}),
			WithPhases(Measure(2000)),
		)),
	)
}

// FuzzScenarioJSON: decoding a Scenario never panics, and every document
// the decoder accepts re-marshals to bytes that decode and re-marshal
// identically.
func FuzzScenarioJSON(f *testing.F) {
	for _, sc := range []Scenario{
		testScenario(),
		testTierScenario(),
		testVirtScenario(),
		faultScenario("fuzz/faults", "poison-pt:r8:p0:n1;offline:r20:n2", true),
	} {
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		if json.Unmarshal(data, &sc) != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted document fails to re-marshal: %v\n%s", err, data)
		}
		var back Scenario
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-marshaled document fails to decode: %v\n%s", err, out)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("decoded re-marshal fails to marshal: %v", err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("re-marshal not byte-identical:\n%s\n%s", out, again)
		}
	})
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := testScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version":1`) {
		t.Errorf("marshaled scenario missing version stamp: %s", data)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip diverged:\nin:  %+v\nout: %+v", sc, back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("re-marshal not byte-identical:\n%s\n%s", data, again)
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	base := func() Scenario { return testScenario() }
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no processes", func(s *Scenario) { s.Processes = nil }, "has no processes"},
		{"empty proc name", func(s *Scenario) { s.Processes[0].Name = "" }, "has no name"},
		{"duplicate name", func(s *Scenario) { s.Processes[1].Name = "gups" }, "duplicate process name"},
		{"no workload", func(s *Scenario) { s.Processes[0].Workload = WorkloadSpec{} }, "workload has no name"},
		{"unknown workload", func(s *Scenario) { s.Processes[0].Workload.Name = "GUSP" }, `unknown workload "GUSP"`},
		{"family mismatch", func(s *Scenario) { s.Processes[0].Workload = KeyValue("GUPS") }, `belongs to family "gups"`},
		{"bad suite", func(s *Scenario) { s.Processes[0].Workload.Suite = "xx" }, "suite"},
		{"missing suite variant", func(s *Scenario) { s.Processes[0].Workload = NamedWorkload("Memcached", InSuite("wm")) }, "no \"wm\"-suite variant"},
		{"stream suite", func(s *Scenario) { s.Processes[0].Workload = Stream(InSuite("ms")) }, "no calibrated suite variants"},
		{"socket range", func(s *Scenario) { s.Processes[0].Placement.Sockets = []int{9} }, "socket 9 out of range"},
		{"socket dup", func(s *Scenario) { s.Processes[0].Placement.Sockets = []int{1, 1} }, "listed twice"},
		{"cores range", func(s *Scenario) { s.Processes[0].Placement.CoresPerSocket = 5 }, "cores_per_socket"},
		{"bad data policy", func(s *Scenario) { s.Processes[0].Placement.Data = "spread" }, `data policy "spread" invalid`},
		{"data node without bind", func(s *Scenario) {
			s.Processes[0].Placement.Data = ""
			s.Processes[0].Placement.DataNode = 2
		}, "data_node 2 set but"},
		{"bad pt policy", func(s *Scenario) { s.Processes[0].Placement.PageTables = "anywhere" }, "page_tables policy"},
		{"replication both", func(s *Scenario) {
			s.Processes[1].Replication = ReplicationSpec{All: true, Nodes: []int{1}}
		}, "both all and an explicit node list"},
		{"replication node range", func(s *Scenario) {
			s.Processes[1].Replication = ReplicationSpec{Nodes: []int{-1}}
		}, "replication node -1"},
		{"eager without target", func(s *Scenario) {
			s.Processes[1].Replication = ReplicationSpec{Eager: true}
		}, "eager set without any target"},
		{"unknown policy", func(s *Scenario) { s.Processes[0].Policy.Name = "magic" }, `unknown policy "magic"`},
		{"no phases", func(s *Scenario) { s.Processes[0].Phases = nil }, "no phases"},
		{"useless phase", func(s *Scenario) { s.Processes[0].Phases = []PhaseSpec{{Name: "idle"}} }, "does nothing"},
		{"migrate pt alone", func(s *Scenario) {
			s.Processes[0].Phases = []PhaseSpec{{Ops: 10, MigratePT: true}}
		}, "migrate_pt set without migrate_to"},
		{"migrate range", func(s *Scenario) {
			to := 7
			s.Processes[0].Phases = []PhaseSpec{{Ops: 10, MigrateTo: &to}}
		}, "migrate_to socket 7"},
		{"tiny memory", func(s *Scenario) { s.Machine.MemoryPerNode = 1 << 20 }, "below one 2MB block"},
		{"fragmentation", func(s *Scenario) { s.Fragmentation = 1.5 }, "fragmentation"},
		{"interference range", func(s *Scenario) { s.Interference = []int{8} }, "interference node 8"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validated without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// Marshaling an invalid scenario must fail the same way.
		if _, merr := json.Marshal(sc); merr == nil {
			t.Errorf("%s: marshaled an invalid scenario", tc.name)
		}
	}
}

func TestScenarioUnmarshalStrict(t *testing.T) {
	sc := testScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}

	var back Scenario
	// Unknown fields are rejected.
	bad := strings.Replace(string(data), `"name":"test/two-proc"`, `"name":"test/two-proc","typo_field":1`, 1)
	if err := json.Unmarshal([]byte(bad), &back); err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Errorf("unknown field accepted or unhelpful error: %v", err)
	}
	// Version mismatches are rejected.
	bad = strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	if err := json.Unmarshal([]byte(bad), &back); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("version mismatch accepted or unhelpful error: %v", err)
	}
	// Invalid specs are rejected on decode.
	bad = strings.Replace(string(data), `"GUPS"`, `"GUSP"`, 1)
	if err := json.Unmarshal([]byte(bad), &back); err == nil || !strings.Contains(err.Error(), "GUSP") {
		t.Errorf("invalid decoded spec accepted or unhelpful error: %v", err)
	}
}

// TestRunDeterminismAcrossModes: the acceptance bar of the scenario API —
// a two-process scenario with an attached ondemand policy produces
// bit-identical RunResult counters in Sequential, Parallel and Auto
// engine modes, and replaying the scenario from its serialized JSON
// reproduces them again.
func TestRunDeterminismAcrossModes(t *testing.T) {
	sc := testScenario()
	var ref *RunResult
	for _, mode := range []EngineMode{SequentialEngine, ParallelEngine, AutoEngine} {
		rr, err := Run(sc, WithEngine(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(rr.Policies) == 0 || len(rr.Policies[0].Actions) == 0 {
			t.Fatalf("%v: ondemand policy never acted (actions %v)", mode, rr.Policies)
		}
		if ref == nil {
			ref = rr
			continue
		}
		if !reflect.DeepEqual(ref.Phases, rr.Phases) {
			t.Errorf("%v: phase counters diverged from sequential:\nseq: %+v\ngot: %+v", mode, ref.Phases, rr.Phases)
		}
		if !reflect.DeepEqual(ref.Policies, rr.Policies) {
			t.Errorf("%v: policy telemetry diverged:\nseq: %+v\ngot: %+v", mode, ref.Policies, rr.Policies)
		}
		if ref.ReplicaPTPages != rr.ReplicaPTPages {
			t.Errorf("%v: replica PT pages %d, want %d", mode, rr.ReplicaPTPages, ref.ReplicaPTPages)
		}
	}

	// JSON replay: serialize the spec the run recorded, decode, re-run.
	data, err := json.Marshal(ref.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	var replayed Scenario
	if err := json.Unmarshal(data, &replayed); err != nil {
		t.Fatal(err)
	}
	rr, err := Run(replayed, WithEngine(SequentialEngine))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Phases, rr.Phases) {
		t.Error("JSON replay diverged from the original run")
	}

	// Measured picks the non-warmup phase.
	m := ref.Measured("gups")
	if m == nil || m.Phase != "measure" || m.Warmup {
		t.Fatalf("Measured(gups) = %+v", m)
	}
	if m.Counters.Ops == 0 || m.Counters.Cycles == 0 {
		t.Errorf("measured counters empty: %+v", m.Counters)
	}
	if len(m.PerSocket) != 4 {
		t.Errorf("per-socket breakdown has %d sockets, want 4", len(m.PerSocket))
	}
}

// TestCountersMatchPerSocket: a phase's Counters (its process's cores)
// and PerSocket (every socket's cores) are two projections of one counter
// record, so with one process on the machine the sockets sum to the
// process on every field both carry. The scenarios cover a policy's
// background copies, 2D walks, a slow tier and fault recovery.
func TestCountersMatchPerSocket(t *testing.T) {
	virt := testVirtScenario()
	virt.Processes[0].VM.Replication = VMReplicationBoth
	tiered := testTierScenario()
	tiered.Processes = tiered.Processes[:1]
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"native", NewScenario("test/counters-native",
			OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20, Hardware: testBackend()}),
			WithSeed(7),
			WithProc(NewProc("gups", GUPS(InSuite("wm"), Scaled(1.0/32)),
				OnSockets(0, 1), WithPTNode(2), UnderPolicy("ondemand"),
				WithPhases(Warmup(500), Measure(2000)))))},
		{"virt", virt},
		{"tiered", tiered},
		{"faults", faultScenario("test/counters-faults", faultModesPlan, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr, err := Run(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, ph := range rr.Phases {
				var sum Counters
				for _, s := range ph.PerSocket {
					sum.Ops += s.Ops
					sum.Walks += s.Walks
					sum.TotalCycles += s.Cycles
					sum.WalkCycles += s.WalkCycles
					sum.RemoteWalkCycles += s.RemoteWalkCycles
					sum.GuestWalkCycles += s.GuestWalkCycles
					sum.NestedWalkCycles += s.NestedWalkCycles
					sum.WalkMemAccesses += s.WalkMemAccesses
					sum.WalkRemoteAccesses += s.WalkRemoteAccesses
					sum.TierWalkAccesses += s.WalkTierAccesses
					sum.TierDataAccesses += s.DataTierAccesses
				}
				c := ph.Counters
				shared := Counters{
					Ops: c.Ops, Walks: c.Walks, TotalCycles: c.TotalCycles, WalkCycles: c.WalkCycles,
					RemoteWalkCycles: c.RemoteWalkCycles, GuestWalkCycles: c.GuestWalkCycles,
					NestedWalkCycles: c.NestedWalkCycles, WalkMemAccesses: c.WalkMemAccesses,
					WalkRemoteAccesses: c.WalkRemoteAccesses, TierWalkAccesses: c.TierWalkAccesses,
					TierDataAccesses: c.TierDataAccesses,
				}
				if shared != sum {
					t.Errorf("%s/%s: Counters %+v, PerSocket sums to %+v", ph.Process, ph.Phase, shared, sum)
				}
				if c.Ops == 0 {
					t.Errorf("%s/%s: no ops", ph.Process, ph.Phase)
				}
			}
		})
	}
}

// gupsEvery8 is testScenario's gups process alone, its policy ticking
// every 8 rounds, under the given fault plan.
func gupsEvery8(faults string) Scenario {
	sc := testScenario()
	sc.Processes = sc.Processes[:1]
	sc.Processes[0].Policy.TickEvery = 8
	sc.Faults = faults
	return sc
}

// TestRunObserver: the observer sees every round barrier with consistent
// deltas, whatever else is attached, and observing does not change the
// counters.
func TestRunObserver(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"two processes", testScenario()},
		{"policy every 8 rounds", gupsEvery8("")},
		// The fault plan's only event never fires; it must not change
		// what the observer sees.
		{"policy every 8 rounds, idle fault plan", gupsEvery8("poison-data:r100000:p0:g5")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ticks int
			var opsSeen uint64
			obs := ObserverFunc(func(ev TickEvent) {
				ticks++
				for _, st := range ev.Sockets {
					opsSeen += st.Ops
				}
			})
			withObs, err := Run(tc.sc, WithEngine(SequentialEngine), WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			var rounds int
			for _, p := range tc.sc.Processes {
				for _, ph := range p.Phases {
					rounds += workloads.Rounds(ph.Ops)
				}
			}
			if ticks != rounds {
				t.Errorf("observer ticked %d times, the phases ran %d rounds", ticks, rounds)
			}
			var totalOps uint64
			for _, ph := range withObs.Phases {
				totalOps += ph.Counters.Ops
			}
			if opsSeen != totalOps {
				t.Errorf("observer saw %d ops, results carry %d", opsSeen, totalOps)
			}
			plain, err := Run(tc.sc, WithEngine(SequentialEngine))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Phases, withObs.Phases) {
				t.Error("observing changed the counters")
			}
		})
	}
}

// TestReplicaTimelineRounds: the replica timeline is stamped with the
// rounds the policy ticked on, the same clock as its action log, and an
// idle fault plan changes neither.
func TestReplicaTimelineRounds(t *testing.T) {
	rr, err := Run(gupsEvery8(""), WithEngine(SequentialEngine))
	if err != nil {
		t.Fatal(err)
	}
	po := rr.Policies[0]
	if len(po.Actions) == 0 || !strings.HasPrefix(po.Actions[0], "r8:replicate->") {
		t.Fatalf("actions %v: want a replicate at the first tick, round 8", po.Actions)
	}
	want := []ReplicaTick{{Round: 8, Replicas: 1}, {Round: 16, Replicas: 2}}
	if !reflect.DeepEqual(po.ReplicaTimeline, want) {
		t.Errorf("replica timeline %v, want %v", po.ReplicaTimeline, want)
	}
	faulted, err := Run(gupsEvery8("poison-data:r100000:p0:g5"), WithEngine(SequentialEngine))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(faulted.Policies, rr.Policies) || !reflect.DeepEqual(faulted.Phases, rr.Phases) {
		t.Errorf("an idle fault plan changed the run:\nwithout: %+v\nwith:    %+v", rr.Policies, faulted.Policies)
	}
}

// TestSpawnExplicitSockets: the ProcSpec placement names sockets
// explicitly — []int{0} is socket 0, and other sockets work too — and
// registers each spawned process by name.
func TestSpawnExplicitSockets(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 128 << 20})
	p0, err := sys.Spawn(ProcSpec{Name: "on-zero", Placement: PlacementSpec{Sockets: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if cores := p0.Process().Cores(); len(cores) != 1 || sys.Kernel().Topology().SocketOf(cores[0]) != 0 {
		t.Errorf("explicit socket 0 landed on cores %v", cores)
	}
	if sys.Proc("on-zero") != p0 {
		t.Error("Spawn did not register the process by name")
	}
	p2, err := sys.Spawn(ProcSpec{Name: "on-two", Placement: PlacementSpec{Sockets: []int{2}, CoresPerSocket: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if cores := p2.Process().Cores(); len(cores) != 2 || sys.Kernel().Topology().SocketOf(cores[0]) != 2 {
		t.Errorf("socket 2 x2 cores landed on %v", cores)
	}
	if _, err := sys.Spawn(ProcSpec{Name: "bad", Placement: PlacementSpec{Sockets: []int{11}}}); err == nil {
		t.Error("out-of-range socket accepted")
	}
}

// TestOversizedChunk: a churn round length beyond what any core can issue
// in one round runs the same rounds as the largest useful one — a churn
// process's pages per core — without sizing buffers by it or overflowing
// the round clock.
func TestOversizedChunk(t *testing.T) {
	c := testChurn()
	c.Chunk = (c.PagesPerProc + c.HugePages + c.Machine.CoresPerSocket - 1) / c.Machine.CoresPerSocket
	want, err := RunChurn(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Chunk = 1 << 40
	got, err := RunChurn(c)
	if err != nil {
		t.Fatal(err)
	}
	if !got.DeterministicEquals(want) {
		t.Errorf("churn chunk 1<<40 diverged from one process's pages per core:\ngot:  ops=%d faults=%d cycles=%d\nwant: ops=%d faults=%d cycles=%d",
			got.Ops, got.Faults, got.Cycles, want.Ops, want.Faults, want.Cycles)
	}
}

// TestConfigNormalizeIdempotent: the machine config a system reports is
// already normalized (the machine-mismatch gate and replay records rely
// on normalize being a fixed point).
func TestConfigNormalizeIdempotent(t *testing.T) {
	for _, cfg := range []SystemConfig{
		{},
		{Sockets: 2},
		{MemoryPerNode: 1 << 20}, // sub-2MB clamps to the minimum block
		{Sockets: 8, CoresPerSocket: 4, MemoryPerNode: 3<<20 + 12345, THP: true},
	} {
		got := NewSystem(cfg).Config()
		if got != got.normalize() {
			t.Errorf("Config(%+v) = %+v not normalize-idempotent", cfg, got)
		}
	}
}

// TestSystemRunMachineMismatch: running a scenario on a system with a
// different machine is refused (it would not be reproducible).
func TestSystemRunMachineMismatch(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 2, CoresPerSocket: 1, MemoryPerNode: 128 << 20})
	sc := testScenario() // wants a 4-socket machine
	if _, err := sys.Run(sc); err == nil || !strings.Contains(err.Error(), "machine") {
		t.Errorf("mismatched machine accepted: %v", err)
	}
	// A zero Machine inherits the system's.
	sc.Machine = SystemConfig{}
	sc.Processes = sc.Processes[:1]
	sc.Processes[0].Placement.PTNode = 1
	rr, err := sys.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Scenario.Machine; got != sys.Config() {
		t.Errorf("inherited machine = %+v, want %+v", got, sys.Config())
	}
}

// TestAccessBatchDrainsOnReturn: Proc.AccessBatch ends with a barrier on
// its worker's core, so the page-table lines its store walks took
// exclusively have left the other sockets' LLCs by the time the call
// returns, while the worker's own socket keeps its copies.
func TestAccessBatchDrainsOnReturn(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 4, CoresPerSocket: 1, MemoryPerNode: 128 << 20})
	p, err := sys.Spawn(ProcSpec{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Mmap(8<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Kernel().Machine()
	reads := make([]AccessOp, 64)
	writes := make([]AccessOp, len(reads))
	for i := range reads {
		reads[i] = AccessOp{VA: base + uint64(i)*4096}
		writes[i] = AccessOp{VA: reads[i].VA, Write: true}
	}
	// Workers 1-3 read-walk the pages, caching their leaf lines on
	// sockets 1-3.
	for w := 1; w < 4; w++ {
		if err := p.AccessBatch(w, reads); err != nil {
			t.Fatal(err)
		}
	}
	// Worker 0's store walks take the same lines exclusively.
	if err := p.AccessBatch(0, writes); err != nil {
		t.Fatal(err)
	}
	// Each worker re-walks the pages after a shootdown of them on its core:
	// a socket whose copies were invalidated reads page-table lines from
	// DRAM again, and socket 0, which kept its copies, reads none.
	vas := make([]pt.VirtAddr, len(reads))
	for i, op := range reads {
		vas[i] = pt.VirtAddr(op.VA)
	}
	for w, core := range p.p.Cores() {
		m.ShootdownRange(core, vas, nil)
		before := m.Stats(core).WalkMemAccesses
		if err := p.AccessBatch(w, reads); err != nil {
			t.Fatal(err)
		}
		dram := m.Stats(core).WalkMemAccesses - before
		switch {
		case w == 0 && dram != 0:
			t.Errorf("socket 0 lost its own lines: its walks read %d page-table lines from DRAM", dram)
		case w > 0 && dram == 0:
			t.Errorf("socket %d: no invalidations had landed when AccessBatch returned", w)
		}
	}
	if err := p.ReplicatePageTables(); err != nil {
		t.Fatal(err)
	}
	if !p.Stats().Replicated {
		t.Error("not replicated")
	}
}

// testVirtScenario is the virtualized counterpart of testScenario: a
// guest GUPS whose VM (nested table, guest table, data) was initialized
// on node 2 while its vCPUs run on sockets 0 and 1, driven by the
// ondemand policy replicating gPT and ePT at round barriers.
func testVirtScenario() Scenario {
	return NewScenario("test/virt",
		OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20, Hardware: testVirtBackend()}),
		WithSeed(7),
		WithProc(NewProc("gups-vm",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(0, 1),
			WithDataBind(2),
			WithVM(VMSpec{HomeNode: 2, PolicyLayers: VMReplicationBoth}),
			UnderPolicy("ondemand"),
			WithPhases(Warmup(500), Measure(2000)),
		)),
	)
}

func TestVirtScenarioJSONRoundTrip(t *testing.T) {
	sc := testVirtScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"vm":{"home_node":2`) {
		t.Errorf("marshaled scenario missing vm section: %s", data)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip diverged:\nin:  %+v\nout: %+v", sc, back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("re-marshal not byte-identical:\n%s\n%s", data, again)
	}
}

func TestVirtScenarioValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"vm home range", func(s *Scenario) { s.Processes[0].VM.HomeNode = 9 }, "vm home_node 9"},
		{"vm bad replication", func(s *Scenario) { s.Processes[0].VM.Replication = "all" }, `vm replication "all"`},
		{"vm bad layers", func(s *Scenario) { s.Processes[0].VM.PolicyLayers = "none" }, `vm policy_layers "none"`},
		{"vm host replication", func(s *Scenario) {
			s.Processes[0].Replication = ReplicationSpec{All: true}
		}, "host replication spec set on a virtualized process"},
		{"vm move pt", func(s *Scenario) {
			node := 0
			s.Processes[0].Phases = []PhaseSpec{{Ops: 10, MovePT: &node}}
		}, "virtualized process recovers locality"},
		{"vm five level", func(s *Scenario) { s.Machine.Hardware = HardwareX8664LA57 }, "vm requires 4-level paging"},
	}
	for _, tc := range cases {
		sc := testVirtScenario()
		tc.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validated without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestVirtRunDeterminismAcrossModes: the acceptance bar of the
// virtualized scenario path — a multi-socket guest process under the
// ondemand policy produces bit-identical counters in Sequential, Parallel
// and Auto engine modes, and replaying the serialized spec reproduces
// them again.
func TestVirtRunDeterminismAcrossModes(t *testing.T) {
	sc := testVirtScenario()
	var ref *RunResult
	for _, mode := range []EngineMode{SequentialEngine, ParallelEngine, AutoEngine} {
		rr, err := Run(sc, WithEngine(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(rr.Policies) == 0 || len(rr.Policies[0].Actions) == 0 {
			t.Fatalf("%v: ondemand policy never acted on the VM (policies %v)", mode, rr.Policies)
		}
		if ref == nil {
			ref = rr
			continue
		}
		if !reflect.DeepEqual(ref.Phases, rr.Phases) {
			t.Errorf("%v: phase counters diverged:\nseq: %+v\ngot: %+v", mode, ref.Phases, rr.Phases)
		}
		if !reflect.DeepEqual(ref.Policies, rr.Policies) {
			t.Errorf("%v: policy telemetry diverged:\nseq: %+v\ngot: %+v", mode, ref.Policies, rr.Policies)
		}
	}

	m := ref.Measured("gups-vm")
	if m == nil {
		t.Fatal("no measured phase")
	}
	if m.Counters.GuestWalkCycles == 0 || m.Counters.NestedWalkCycles == 0 {
		t.Errorf("guest/nested walk split missing from counters: %+v", m.Counters)
	}
	if len(m.ReplicaNodes) < 2 {
		t.Errorf("replica nodes after policy run = %v, want vCPU nodes added", m.ReplicaNodes)
	}

	// JSON replay reproduces the run bit-for-bit.
	data, err := json.Marshal(ref.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	var replayed Scenario
	if err := json.Unmarshal(data, &replayed); err != nil {
		t.Fatal(err)
	}
	rr, err := Run(replayed, WithEngine(SequentialEngine))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Phases, rr.Phases) {
		t.Error("JSON replay of the virtualized scenario diverged")
	}
}

// TestVirtStaticReplicationRecovery: statically replicating both
// dimensions recovers over half of the worst case's remote-walk cycles —
// the §7.4 acceptance shape.
func TestVirtStaticReplicationRecovery(t *testing.T) {
	run := func(mode string) Counters {
		sc := NewScenario("test/virt-static/"+mode,
			OnMachine(SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 256 << 20}),
			WithSeed(7),
			WithProc(NewProc("gups-vm",
				GUPS(InSuite("wm"), Scaled(1.0/32)),
				OnSockets(0),
				WithDataBind(1),
				WithVM(VMSpec{HomeNode: 1, Replication: mode}),
				WithPhases(Warmup(500), Measure(2000)),
			)),
		)
		rr, err := Run(sc, WithEngine(SequentialEngine))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return rr.Measured("gups-vm").Counters
	}
	worst := run(VMReplicationNone)
	both := run(VMReplicationBoth)
	if worst.RemoteWalkCycles == 0 {
		t.Fatal("worst-case virtualized run had no remote walk cycles")
	}
	if both.RemoteWalkCycles*2 >= worst.RemoteWalkCycles {
		t.Errorf("gPT+ePT replication recovered under half the remote-walk cycles: worst %d, both %d",
			worst.RemoteWalkCycles, both.RemoteWalkCycles)
	}
}

// stressScenario combines every dimension the host-speed fast paths touch
// into one declarative spec: a virtualized guest process (2D walks, vTLB
// composition) and a native THP process side by side, over pre-fragmented
// physical memory (allocator fallback churn), both under policies that act
// at round barriers.
func stressScenario() Scenario {
	return NewScenario("test/stress-equivalence",
		// THP stays off: at the test's scaled footprints 2MB coverage would
		// erase TLB pressure and the policies would never need to act. The
		// 0.95 fragmentation still drives the allocator's fragmented-group
		// preference paths on every 4KB allocation.
		OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20}),
		WithSeed(11),
		WithFragmentation(0.95),
		WithProc(NewProc("gups-vm",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(0, 1),
			WithDataBind(2),
			WithVM(VMSpec{HomeNode: 2, PolicyLayers: VMReplicationBoth}),
			UnderPolicy("ondemand"),
			WithPhases(Warmup(500), Measure(2500)),
		)),
		WithProc(NewProc("hashjoin",
			NamedWorkload("HashJoin", InSuite("wm"), Scaled(1.0/32)),
			OnSockets(2, 3),
			WithDataBind(0),
			WithPTNode(0),
			UnderPolicy("ondemand"),
			WithPhases(Measure(2500)),
		)),
	)
}

// TestStressEquivalenceAcrossModes is the cross-mode equivalence stress
// bar guarding the host-speed overhaul (lock-free single-writer LLC, TLB
// probe short-circuit, O(1) frame allocator, barrier-folded AutoNUMA
// sampling, cached TLB nodes): the full stress scenario — virtualized
// process, fragmentation, THP fallback, two policies acting at barriers —
// must produce bit-identical RunResult counters AND action logs in
// Sequential, Parallel and Auto modes. CI runs it under -race, which
// additionally proves the lock-free paths respect the barrier discipline.
// The 1GB-mapping dimension (no public construction path) is covered by
// the kernel-level TestEngineEquivalence1GFragmented.
func TestStressEquivalenceAcrossModes(t *testing.T) {
	sc := stressScenario()
	var ref *RunResult
	for _, mode := range []EngineMode{SequentialEngine, ParallelEngine, AutoEngine} {
		rr, err := Run(sc, WithEngine(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		acted := 0
		for _, po := range rr.Policies {
			acted += len(po.Actions)
		}
		if acted == 0 {
			t.Fatalf("%v: no policy actions — the stress scenario must drive barrier-time kernel work", mode)
		}
		if ref == nil {
			ref = rr
			continue
		}
		if !reflect.DeepEqual(ref.Phases, rr.Phases) {
			t.Errorf("%v: phase counters diverged:\nref: %+v\ngot: %+v", mode, ref.Phases, rr.Phases)
		}
		if !reflect.DeepEqual(ref.Policies, rr.Policies) {
			t.Errorf("%v: policy action logs diverged:\nref: %+v\ngot: %+v", mode, ref.Policies, rr.Policies)
		}
		if ref.ReplicaPTPages != rr.ReplicaPTPages {
			t.Errorf("%v: replica PT pages %d, want %d", mode, rr.ReplicaPTPages, ref.ReplicaPTPages)
		}
	}
	// The guest dimension must really have run as a guest.
	if m := ref.Measured("gups-vm"); m == nil || m.Counters.NestedWalkCycles == 0 {
		t.Error("stress scenario did not exercise the 2D-walk path")
	}
}
