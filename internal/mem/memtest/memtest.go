// Package memtest holds test support for package mem. Only tests import it.
package memtest

import (
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// AllocatedPT returns the number of page-table frames on node n, those
// parked in a page cache included.
func AllocatedPT(pm *mem.PhysMem, n numa.NodeID) uint64 {
	return count(pm, n, mem.KindPageTable)
}

// AllocatedData returns the number of data frames on node n.
func AllocatedData(pm *mem.PhysMem, n numa.NodeID) uint64 {
	return count(pm, n, mem.KindData)
}

// count returns the number of node n's frames that hold kind.
func count(pm *mem.PhysMem, n numa.NodeID, kind mem.Kind) uint64 {
	per := pm.TotalFrames() / uint64(pm.Topology().Nodes())
	var c uint64
	for f := mem.FrameID(uint64(n) * per); f < mem.FrameID(uint64(n+1)*per); f++ {
		if pm.Meta(f).Kind == kind {
			c++
		}
	}
	return c
}
