// Package hwtest holds test support for package hw. Only tests import it.
package hwtest

import (
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Access executes one memory operation on core at va: a batch of one op
// followed by a barrier on core (DrainCoherence), so cross-socket
// coherence and the op's AutoNUMA sample take effect before it returns. A
// sequence of Access calls therefore behaves like the original per-op
// engine. Call it only where DrainCoherence may run: from the one
// goroutine driving the machine, with no batch in flight on any core.
func Access(m *hw.Machine, core numa.CoreID, va pt.VirtAddr, write bool) error {
	op := [1]hw.AccessOp{{VA: va, Write: write}}
	err := m.AccessBatch(core, op[:])
	m.DrainCoherence([]numa.CoreID{core})
	return err
}
