package hw

import (
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Access executes one memory operation on core at va: a batch of one op
// followed by a barrier on core (DrainCoherence), so cross-socket
// coherence (store walks invalidating page-table lines cached by other
// sockets) and the op's AutoNUMA sample take effect before it returns.
// A sequence of Access calls therefore behaves exactly like the original
// per-op engine. Call it only where DrainCoherence may run: from the one
// goroutine driving the machine, with no batch in flight on any core.
func (m *Machine) Access(core numa.CoreID, va pt.VirtAddr, write bool) error {
	op := [1]AccessOp{{VA: va, Write: write}}
	err := m.AccessBatch(core, op[:])
	m.DrainCoherence([]numa.CoreID{core})
	return err
}

// FlushAll flushes core's translation caches (global shootdown on that
// core).
func (m *Machine) FlushAll(core numa.CoreID) {
	c := m.core(core)
	c.xc.FlushContext(&c.tctx)
}
