package mem

import "github.com/mitosis-project/mitosis-sim/internal/numa"

// ScanWords returns the cumulative number of allocator mask/bitmap words
// examined across all nodes — the op-count hook regression tests use to
// assert allocation stays O(1) under churn.
func (pm *PhysMem) ScanWords() uint64 {
	var total uint64
	for i := range pm.nodes {
		ns := &pm.nodes[i]
		ns.mu.Lock()
		total += ns.scanWords
		ns.mu.Unlock()
	}
	return total
}

func maskTest(m []uint64, g int) bool { return m[g>>6]&(1<<(uint(g)&63)) != 0 }

// AllocatedPT returns the number of page-table frames on node n, those
// parked in a page cache included.
func (pm *PhysMem) AllocatedPT(n numa.NodeID) uint64 { return pm.allocated(n, KindPageTable) }

// AllocatedData returns the number of data frames on node n.
func (pm *PhysMem) AllocatedData(n numa.NodeID) uint64 { return pm.allocated(n, KindData) }

// allocated returns the number of node n's frames that hold kind, reading
// only the groups that ever had a frame allocated.
func (pm *PhysMem) allocated(n numa.NodeID, kind Kind) uint64 {
	ns := pm.node(n)
	var c uint64
	for f := ns.base; f < ns.base+FrameID(ns.frames); f += HugeFrames {
		if ch := pm.chunk(f); ch != nil {
			for i := range ch.meta {
				if ch.meta[i].Kind == kind {
					c++
				}
			}
		}
	}
	return c
}
