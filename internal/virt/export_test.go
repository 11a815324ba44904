package virt

import (
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Map is MapAt from a descent of gva made now.
func (gs *GuestSpace) Map(gva pt.VirtAddr, gframe GuestFrame, size pt.PageSize, flags pt.PTE, ptNode numa.NodeID) error {
	return gs.MapAt(gs.Descend(gva), gva, gframe, size, flags, ptNode)
}
