package mem

import (
	"fmt"
	"sync"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// PageCache reserves frames per NUMA node for page-table allocation.
//
// Mitosis requires *strict* allocation: a replica page-table page must live
// on a specific socket's memory, and the allocation may fail if that node is
// full. The paper sidesteps this by reserving pages per socket through a
// sysctl-controlled page cache (§5.1). PageCache is that reservation pool,
// sized once when it is built: page-table allocations first try the pool
// and fall back to the general allocator, and freed page-table frames
// refill the pool up to its target size. The pool reserves frames, not
// tables: a parked frame is a page-table frame at level 0 without a
// payload, AllocPT attaches a zeroed payload when it hands the frame out,
// and FreePT detaches it when it parks the frame again.
//
// The pools are locked per node, mirroring the frame allocator: the fault
// path is sharded per process, so page-table pages of different processes
// may be allocated and freed concurrently. The per-node pools are LIFO
// stacks, and processes faulting on different sockets touch different
// pools (first-touch page-table placement), so the locks cost nothing on
// the common path and the pop/push order per node stays deterministic.
type PageCache struct {
	pm     *PhysMem
	target uint64 // per-node target size in frames
	pools  [][]FrameID
	mus    []sync.Mutex // one per node, guarding pools[n]
}

// NewPageCache creates a page cache over pm with the given per-node target
// size (in frames). The pools start empty; call Refill to reserve frames.
func NewPageCache(pm *PhysMem, targetPerNode uint64) *PageCache {
	pc := &PageCache{
		pm:     pm,
		target: targetPerNode,
		pools:  make([][]FrameID, pm.Topology().Nodes()),
		mus:    make([]sync.Mutex, pm.Topology().Nodes()),
	}
	return pc
}

// Cached returns the number of frames currently reserved for node n.
func (pc *PageCache) Cached(n numa.NodeID) int {
	pc.checkNode(n)
	pc.mus[n].Lock()
	defer pc.mus[n].Unlock()
	return len(pc.pools[n])
}

// Refill tops every node's pool up to the target size, stopping early on a
// node if its memory is exhausted. It returns the total number of frames
// reserved by this call.
func (pc *PageCache) Refill() int {
	total := 0
	for n := range pc.pools {
		node := numa.NodeID(n)
		pc.mus[n].Lock()
		for uint64(len(pc.pools[n])) < pc.target {
			f, err := pc.pm.reserveTableFrame(node)
			if err != nil {
				break
			}
			pc.pools[n] = append(pc.pools[n], f)
			total++
		}
		pc.mus[n].Unlock()
	}
	return total
}

// AllocPT returns a page-table frame on node n of the given level, taking
// from the reserved pool first and falling back to the general allocator.
func (pc *PageCache) AllocPT(n numa.NodeID, level uint8) (FrameID, error) {
	pc.checkNode(n)
	pc.mus[n].Lock()
	if len(pc.pools[n]) > 0 {
		f := pc.pools[n][len(pc.pools[n])-1]
		pc.pools[n] = pc.pools[n][:len(pc.pools[n])-1]
		pc.mus[n].Unlock()
		pc.pm.attach(f, level)
		return f, nil
	}
	pc.mus[n].Unlock()
	return pc.pm.AllocPageTable(n, level)
}

// FreePT returns a page-table frame to the pool if the pool is below target,
// otherwise releases it to the allocator. The frame's replica linkage must
// already be dissolved by the caller.
func (pc *PageCache) FreePT(f FrameID) {
	meta := pc.pm.Meta(f)
	if meta.Kind != KindPageTable {
		panic(fmt.Sprintf("mem: FreePT on frame %d of kind %v", f, meta.Kind))
	}
	if pc.pm.ReplicaNext(f) != NilFrame {
		panic(fmt.Sprintf("mem: FreePT on frame %d still linked in a replica ring", f))
	}
	if meta.PTLevel == 0 {
		panic(fmt.Sprintf("mem: double FreePT of frame %d (already parked)", f))
	}
	n := pc.pm.NodeOf(f)
	pc.mus[n].Lock()
	// park refuses a poisoned frame, which must retire (pm.Free handles
	// that), and a frame on an offlined node: parking either would hand a
	// bad frame back out through AllocPT.
	if uint64(len(pc.pools[n])) < pc.target && pc.pm.park(f) {
		pc.pools[n] = append(pc.pools[n], f)
		pc.mus[n].Unlock()
		return
	}
	pc.mus[n].Unlock()
	pc.pm.Free(f)
}

// Reset forgets all reserved frames without freeing them; the target
// stays. It is the companion of PhysMem.Reset, which reclaims every frame
// wholesale: call pc.Reset first (so the pool holds no stale frame IDs),
// then pm.Reset, then Refill — first-fit allocation over empty memory
// reproduces the fresh-boot pool exactly.
func (pc *PageCache) Reset() {
	for n := range pc.pools {
		pc.pools[n] = pc.pools[n][:0]
	}
}

// Drain releases all reserved frames back to the allocator.
// Drain may race with concurrent per-process fault paths allocating from
// other nodes' pools (memory-pressure reclaim calls it), so it takes each
// node's lock like the hot-path entry points.
func (pc *PageCache) Drain() {
	for n := range pc.pools {
		pc.mus[n].Lock()
		for _, f := range pc.pools[n] {
			pc.pm.Free(f)
		}
		pc.pools[n] = nil
		pc.mus[n].Unlock()
	}
}

func (pc *PageCache) checkNode(n numa.NodeID) {
	if n < 0 || int(n) >= len(pc.pools) {
		panic(fmt.Sprintf("mem: node %d out of range [0,%d)", n, len(pc.pools)))
	}
}
