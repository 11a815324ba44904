package numa

import (
	"testing"
	"testing/quick"
)

func TestTopologyShape(t *testing.T) {
	topo := NewTopology(4, 14)
	if got := topo.Sockets(); got != 4 {
		t.Errorf("Sockets() = %d, want 4", got)
	}
	if got := topo.Nodes(); got != 4 {
		t.Errorf("Nodes() = %d, want 4", got)
	}
	if got := topo.Cores(); got != 56 {
		t.Errorf("Cores() = %d, want 56", got)
	}
	if got := topo.CoresPerSocket(); got != 14 {
		t.Errorf("CoresPerSocket() = %d, want 14", got)
	}
}

func TestSocketOfCore(t *testing.T) {
	topo := NewTopology(4, 14)
	cases := []struct {
		core CoreID
		want SocketID
	}{
		{0, 0}, {13, 0}, {14, 1}, {27, 1}, {28, 2}, {55, 3},
	}
	for _, c := range cases {
		if got := topo.SocketOf(c.core); got != c.want {
			t.Errorf("SocketOf(%d) = %d, want %d", c.core, got, c.want)
		}
	}
}

func TestNodeSocketRoundTrip(t *testing.T) {
	topo := NewTopology(8, 4)
	for s := SocketID(0); int(s) < topo.Sockets(); s++ {
		n := topo.NodeOf(s)
		if got := topo.SocketOfNode(n); got != s {
			t.Errorf("SocketOfNode(NodeOf(%d)) = %d, want %d", s, got, s)
		}
		if !topo.IsLocal(s, n) {
			t.Errorf("IsLocal(%d, %d) = false, want true", s, n)
		}
	}
}

func TestCoresOf(t *testing.T) {
	topo := NewTopology(3, 2)
	got := topo.CoresOf(1)
	want := []CoreID{2, 3}
	if len(got) != len(want) {
		t.Fatalf("CoresOf(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CoresOf(1)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if fc := topo.FirstCoreOf(2); fc != 4 {
		t.Errorf("FirstCoreOf(2) = %d, want 4", fc)
	}
}

func TestTopologyPanics(t *testing.T) {
	mustPanic(t, "zero sockets", func() { NewTopology(0, 1) })
	mustPanic(t, "zero cores", func() { NewTopology(1, 0) })
	topo := NewTopology(2, 2)
	mustPanic(t, "core out of range", func() { topo.SocketOf(4) })
	mustPanic(t, "negative core", func() { topo.SocketOf(-1) })
	mustPanic(t, "node out of range", func() { topo.NodeOf(2) })
	mustPanic(t, "socket out of range", func() { topo.CoresOf(5) })
}

func TestCostModelLocalRemote(t *testing.T) {
	topo := FourSocketXeon()
	m := NewCostModel(topo, DefaultCostParams())
	if got := m.DRAM(0, 0); got != 280 {
		t.Errorf("local DRAM = %d, want 280", got)
	}
	if got := m.DRAM(0, 1); got != 580 {
		t.Errorf("remote DRAM = %d, want 580", got)
	}
	if got := m.DRAM(3, 3); got != 280 {
		t.Errorf("local DRAM (socket 3) = %d, want 280", got)
	}
}

func TestCostModelInterference(t *testing.T) {
	topo := NewTopology(2, 14)
	p := DefaultCostParams()
	p.InterferenceFactor = 2.0
	m := NewCostModel(topo, p)

	m.SetLoaded(1, true)
	if !m.loaded[1] {
		t.Fatal("node 1 should be loaded")
	}
	if m.loaded[0] {
		t.Fatal("node 0 should not be loaded")
	}
	if got := m.DRAM(0, 1); got != 1160 {
		t.Errorf("loaded remote DRAM = %d, want 1160", got)
	}
	if got := m.DRAM(1, 1); got != 560 {
		t.Errorf("loaded local DRAM = %d, want 560", got)
	}
	if got := m.DRAM(0, 0); got != 280 {
		t.Errorf("unloaded local DRAM = %d, want 280", got)
	}

	m.ClearLoads()
	if m.loaded[1] {
		t.Fatal("ClearLoads should clear node 1")
	}
	if got := m.DRAM(0, 1); got != 580 {
		t.Errorf("DRAM after ClearLoads = %d, want 580", got)
	}
}

func TestCostModelValidation(t *testing.T) {
	topo := NewTopology(2, 14)
	mustPanic(t, "zero latencies", func() { NewCostModel(topo, CostParams{}) })
	mustPanic(t, "remote below local", func() {
		NewCostModel(topo, CostParams{LocalDRAM: 500, RemoteDRAM: 100, InterferenceFactor: 1})
	})
	mustPanic(t, "interference below one", func() {
		NewCostModel(topo, CostParams{LocalDRAM: 100, RemoteDRAM: 200, InterferenceFactor: 0.5})
	})
}

// Property: remote access never costs less than local access, with or
// without interference, over arbitrary topology sizes.
func TestRemoteNeverCheaperThanLocal(t *testing.T) {
	f := func(socketsRaw, coresRaw uint8, loadNodeRaw uint8) bool {
		sockets := int(socketsRaw%15) + 2
		cores := int(coresRaw%8) + 1
		topo := NewTopology(sockets, cores)
		m := NewCostModel(topo, DefaultCostParams())
		loadNode := NodeID(int(loadNodeRaw) % sockets)
		m.SetLoaded(loadNode, true)
		for s := SocketID(0); int(s) < sockets; s++ {
			local := m.DRAM(s, topo.NodeOf(s))
			for n := NodeID(0); int(n) < sockets; n++ {
				if topo.IsLocal(s, n) {
					continue
				}
				// Compare like with like: only when both targets have the
				// same load state must remote be at least as expensive.
				if m.loaded[n] == m.loaded[topo.NodeOf(s)] && m.DRAM(s, n) < local {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SocketOf is consistent with CoresOf for all sockets.
func TestSocketCoreConsistency(t *testing.T) {
	f := func(socketsRaw, coresRaw uint8) bool {
		sockets := int(socketsRaw%16) + 1
		cores := int(coresRaw%16) + 1
		topo := NewTopology(sockets, cores)
		for s := SocketID(0); int(s) < sockets; s++ {
			for _, c := range topo.CoresOf(s) {
				if topo.SocketOf(c) != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	f()
}
