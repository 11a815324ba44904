package numa

import "testing"

// tieredTopo returns a 2-socket machine with one CXL node behind socket 0
// and one NVM node behind socket 1 (nodes 2 and 3).
func tieredTopo() *Topology {
	return NewTieredTopology(2, 4, []TierNode{
		{Kind: TierCXL, Home: 0},
		{Kind: TierNVM, Home: 1},
	})
}

func TestTieredTopologyShape(t *testing.T) {
	topo := tieredTopo()
	if got := topo.Nodes(); got != 4 {
		t.Fatalf("Nodes() = %d, want 4", got)
	}
	if got := topo.DRAMNodes(); got != 2 {
		t.Fatalf("DRAMNodes() = %d, want 2", got)
	}
	if !topo.Tiered() {
		t.Fatal("Tiered() = false on a tiered topology")
	}
	if NewTopology(2, 4).Tiered() {
		t.Fatal("Tiered() = true on a flat topology")
	}
	wantTiers := []MemTier{TierDRAM, TierDRAM, TierCXL, TierNVM}
	for n, want := range wantTiers {
		if got := topo.TierOf(NodeID(n)); got != want {
			t.Errorf("TierOf(%d) = %v, want %v", n, got, want)
		}
	}
	wantHome := []SocketID{0, 1, 0, 1}
	for n, want := range wantHome {
		if got := topo.SocketOfNode(NodeID(n)); got != want {
			t.Errorf("SocketOfNode(%d) = %v, want %v", n, got, want)
		}
	}
	// Tier nodes are never local, even from their home socket.
	for s := SocketID(0); int(s) < topo.Sockets(); s++ {
		for n := NodeID(2); int(n) < topo.Nodes(); n++ {
			if topo.IsLocal(s, n) {
				t.Errorf("IsLocal(%d, %d) = true for tier node", s, n)
			}
		}
	}
}

func TestNewTieredTopologyValidation(t *testing.T) {
	mustPanic(t, "dram tier entry", func() {
		NewTieredTopology(2, 4, []TierNode{{Kind: TierDRAM, Home: 0}})
	})
	mustPanic(t, "bad home socket", func() {
		NewTieredTopology(2, 4, []TierNode{{Kind: TierCXL, Home: 2}})
	})
	mustPanic(t, "unknown kind", func() {
		NewTieredTopology(2, 4, []TierNode{{Kind: MemTier(7), Home: 0}})
	})
}

// The tier extension must not perturb flat topologies: every DRAM() value
// of a flat model must equal the hand-computed pre-tier table, across
// interference states.
func TestFlatTableUnchangedByTierExtension(t *testing.T) {
	topo := FourSocketXeon()
	p := DefaultCostParams()
	m := NewCostModel(topo, p)
	check := func(stage string) {
		t.Helper()
		for s := SocketID(0); int(s) < topo.Sockets(); s++ {
			for n := NodeID(0); int(n) < topo.Nodes(); n++ {
				want := p.RemoteDRAM
				if s == SocketID(n) {
					want = p.LocalDRAM
				}
				if m.loaded[n] {
					want = Cycles(float64(want) * p.InterferenceFactor)
				}
				if got := m.DRAM(s, n); got != want {
					t.Errorf("%s: DRAM(%d,%d) = %d, want %d", stage, s, n, got, want)
				}
			}
		}
	}
	check("fresh")
	m.SetLoaded(2, true)
	check("loaded node 2")
	m.SetLoaded(0, true)
	check("loaded nodes 0,2")
	m.ClearLoads()
	for n := NodeID(0); int(n) < topo.Nodes(); n++ {
		if m.loaded[n] {
			t.Errorf("ClearLoads left node %d loaded", n)
		}
	}
	check("cleared")
}

// Tier-distance table: home-socket access pays the raw tier latency,
// cross-socket adds the interconnect hop, interference multiplies.
func TestTierDistanceTable(t *testing.T) {
	topo := tieredTopo()
	p := DefaultCostParams()
	m := NewCostModel(topo, p)
	hop := p.RemoteDRAM - p.LocalDRAM

	cases := []struct {
		s    SocketID
		n    NodeID
		want Cycles
	}{
		{0, 0, p.LocalDRAM},
		{0, 1, p.RemoteDRAM},
		{0, 2, p.CXL},       // CXL from home socket
		{1, 2, p.CXL + hop}, // CXL across the interconnect
		{1, 3, p.NVM},       // NVM from home socket
		{0, 3, p.NVM + hop}, // NVM across the interconnect
	}
	for _, c := range cases {
		if got := m.DRAM(c.s, c.n); got != c.want {
			t.Errorf("DRAM(%d,%d) = %d, want %d", c.s, c.n, got, c.want)
		}
	}

	// SetLoaded on a tier node recomputes just like on a DRAM node.
	m.SetLoaded(2, true)
	want := Cycles(float64(p.CXL+hop) * p.InterferenceFactor)
	if got := m.DRAM(1, 2); got != want {
		t.Errorf("loaded DRAM(1,2) = %d, want %d", got, want)
	}
	if got := m.DRAM(1, 3); got != p.NVM {
		t.Errorf("DRAM(1,3) perturbed by unrelated load: %d, want %d", got, p.NVM)
	}
	m.ClearLoads()
	if got := m.DRAM(1, 2); got != p.CXL+hop {
		t.Errorf("cleared DRAM(1,2) = %d, want %d", got, p.CXL+hop)
	}
}

func TestTieredCostModelValidation(t *testing.T) {
	p := DefaultCostParams()
	p.CXL = 0
	mustPanic(t, "tiered model without CXL latency", func() {
		NewCostModel(tieredTopo(), p)
	})
}

func TestMemTierString(t *testing.T) {
	for tier, want := range map[MemTier]string{TierDRAM: "dram", TierCXL: "cxl", TierNVM: "nvm"} {
		if got := tier.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", tier, got, want)
		}
	}
}
