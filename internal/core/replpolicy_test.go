package core

import (
	"reflect"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// tele builds a 4-socket telemetry skeleton: primary on node 0, socket 0
// running cores with a local table.
func tele() *Telemetry {
	t := &Telemetry{
		PrimaryNode:   0,
		PrimarySocket: 0,
		Sockets:       make([]SocketSample, 4),
	}
	for i := range t.Sockets {
		t.Sockets[i].Node = numa.NodeID(i)
	}
	t.Sockets[0].RunsCores = true
	t.Sockets[0].HasReplica = true
	return t
}

// hot marks socket s as running with heavy remote walks.
func hot(t *Telemetry, s int) {
	t.Sockets[s].RunsCores = true
	t.Sockets[s].Cycles = 100_000
	t.Sockets[s].Walks = 100
	t.Sockets[s].WalkMemAccesses = 100
	t.Sockets[s].WalkRemoteAccesses = 100
	t.Sockets[s].WalkRemoteCycles = 58_000
	t.Sockets[s].DataMemAccesses = 100
}

func TestStaticNeverActs(t *testing.T) {
	p := NewStatic()
	tl := tele()
	hot(tl, 1)
	hot(tl, 2)
	if acts := p.Decide(tl); acts != nil {
		t.Errorf("static policy acted: %v", acts)
	}
}

func TestOnDemandReplicatesHotSocket(t *testing.T) {
	p := NewOnDemand(DefaultOnDemandConfig())
	tl := tele()
	hot(tl, 2)
	acts := p.Decide(tl)
	want := []Action{{Kind: ActionReplicate, Node: 2}}
	if !reflect.DeepEqual(acts, want) {
		t.Errorf("Decide = %v, want %v", acts, want)
	}
	// Below the walk floor: no action however high the fraction.
	tl2 := tele()
	hot(tl2, 2)
	tl2.Sockets[2].Walks = 1
	if acts := p.Decide(tl2); len(acts) != 0 {
		t.Errorf("acted on idle socket: %v", acts)
	}
	// Already replicated or in flight: no duplicate request.
	tl3 := tele()
	hot(tl3, 2)
	tl3.Sockets[2].HasReplica = true
	if acts := p.Decide(tl3); len(acts) != 0 {
		t.Errorf("re-replicated a replicated socket: %v", acts)
	}
	tl4 := tele()
	hot(tl4, 2)
	tl4.InFlight = []numa.NodeID{2}
	if acts := p.Decide(tl4); len(acts) != 0 {
		t.Errorf("double-started an in-flight replica: %v", acts)
	}
}

func TestOnDemandDropsColdReplica(t *testing.T) {
	cfg := DefaultOnDemandConfig()
	cfg.ColdTicks = 3
	p := NewOnDemand(cfg)
	mk := func(walks uint64) *Telemetry {
		tl := tele()
		tl.Mask = []numa.NodeID{2}
		tl.Sockets[2].HasReplica = true
		tl.Sockets[2].Walks = walks
		tl.Sockets[2].Cycles = 100_000
		return tl
	}
	for i := 0; i < 2; i++ {
		if acts := p.Decide(mk(0)); len(acts) != 0 {
			t.Fatalf("tick %d: dropped too early: %v", i, acts)
		}
	}
	// Activity resets the cold clock.
	if acts := p.Decide(mk(100)); len(acts) != 0 {
		t.Fatalf("dropped an active replica: %v", acts)
	}
	for i := 0; i < 2; i++ {
		if acts := p.Decide(mk(0)); len(acts) != 0 {
			t.Fatalf("tick %d after reset: dropped too early: %v", i, acts)
		}
	}
	want := []Action{{Kind: ActionDrop, Node: 2}}
	if acts := p.Decide(mk(0)); !reflect.DeepEqual(acts, want) {
		t.Errorf("third cold tick: Decide = %v, want %v", acts, want)
	}
}

func TestOnDemandReclaimVictims(t *testing.T) {
	p := NewOnDemand(DefaultOnDemandConfig())
	// Node 2 cold for one tick, node 3 hot.
	tl := tele()
	tl.Mask = []numa.NodeID{2, 3}
	tl.Sockets[2].HasReplica = true
	tl.Sockets[3].HasReplica = true
	tl.Sockets[3].Walks = 100
	p.Decide(tl)
	got := p.ReclaimVictims(tl.Mask)
	if !reflect.DeepEqual(got, []numa.NodeID{2}) {
		t.Errorf("ReclaimVictims = %v, want [2]", got)
	}
}

func TestCostAdaptiveMultiSocketReplicates(t *testing.T) {
	cost := numa.NewCostModel(numa.FourSocketXeon(), numa.DefaultCostParams())
	p := NewCostAdaptive(DefaultCostAdaptiveConfig(), cost)
	tl := tele()
	hot(tl, 1)
	hot(tl, 3)
	acts := p.Decide(tl)
	want := []Action{
		{Kind: ActionReplicate, Node: 1},
		{Kind: ActionReplicate, Node: 3},
	}
	if !reflect.DeepEqual(acts, want) {
		t.Errorf("Decide = %v, want %v", acts, want)
	}
}

func TestCostAdaptiveSingleSocketChoosesLever(t *testing.T) {
	cost := numa.NewCostModel(numa.FourSocketXeon(), numa.DefaultCostParams())
	p := NewCostAdaptive(DefaultCostAdaptiveConfig(), cost)

	// Data local, table remote (the stranded-table scenario §3.2):
	// replication wins — migrating would turn all the local data remote.
	tl := tele()
	tl.Sockets[0].RunsCores = false
	tl.Sockets[0].HasReplica = false
	tl.PrimaryNode, tl.PrimarySocket = 0, 0
	hot(tl, 2)
	tl.Sockets[2].DataRemoteAccesses = 0 // all data local
	tl.PTPages = 10
	acts := p.Decide(tl)
	want := []Action{{Kind: ActionReplicate, Node: 2}}
	if !reflect.DeepEqual(acts, want) {
		t.Errorf("local data: Decide = %v, want %v", acts, want)
	}

	// Data remote too (process ran away from both): migrating the threads
	// back is strictly better than copying the table.
	tl2 := tele()
	tl2.Sockets[0].RunsCores = false
	tl2.Sockets[0].HasReplica = false
	hot(tl2, 2)
	tl2.Sockets[2].DataRemoteAccesses = 100 // all data remote
	tl2.PTPages = 10
	acts2 := p.Decide(tl2)
	want2 := []Action{{Kind: ActionMigrate, Socket: 0}}
	if !reflect.DeepEqual(acts2, want2) {
		t.Errorf("remote data: Decide = %v, want %v", acts2, want2)
	}

	// A gigantic table with a short horizon isn't worth copying.
	cfg := DefaultCostAdaptiveConfig()
	cfg.HorizonTicks = 2
	p2 := NewCostAdaptive(cfg, cost)
	tl3 := tele()
	tl3.Sockets[0].RunsCores = false
	tl3.Sockets[0].HasReplica = false
	hot(tl3, 2)
	tl3.Sockets[2].DataRemoteAccesses = 0
	tl3.PTPages = 100_000
	if acts := p2.Decide(tl3); len(acts) != 0 {
		t.Errorf("replicated an unamortizable table: %v", acts)
	}
}
