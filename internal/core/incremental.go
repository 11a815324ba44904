package core

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// IncrementalReplication creates a page-table replica in bounded batches,
// implementing §6.1's sketch: "By using additional threads or even DMA
// engines ... the creation of a replica can happen in the background and
// the application regains full performance when the replica or migration
// has completed."
//
// While the copy is in flight, the replica tree is always *correct* but
// possibly *remote*: copied interior pages may still point at the
// primary's lower-level pages until those are copied and the parent
// pointers are fixed up. Updates racing with the copy propagate through
// the replica rings as usual, because each page joins its source's ring
// the moment it is copied. Only after Finish does the node join the
// process's replication mask (so new page-table pages replicate there
// too), and only then should the socket's CR3 switch to the new root.
type IncrementalReplication struct {
	space   *Space
	node    numa.NodeID
	queue   []incWork
	done    bool
	aborted bool
}

// incWork is one pending copy: source page and, if the source was reached
// through an already-copied parent, the parent-copy entry to fix up.
type incWork struct {
	src    mem.FrameID
	level  uint8
	parent pt.EntryRef // in the replica tree; Frame == NilFrame for the root
}

// StartIncrementalReplication begins a background replica build on node.
// It returns a finished job immediately if a replica already exists there.
func (s *Space) StartIncrementalReplication(ctx *pvops.OpCtx, node numa.NodeID) (*IncrementalReplication, error) {
	if err := s.canonicalize(ctx); err != nil {
		return nil, err
	}
	ir := &IncrementalReplication{space: s, node: node}
	if _, ok := ringMemberOn(s.pm, s.mapper.Root(), node); ok {
		ir.done = true
		return ir, nil
	}
	ir.queue = append(ir.queue, incWork{
		src:    s.mapper.Root(),
		level:  s.mapper.Levels(),
		parent: pt.EntryRef{Frame: mem.NilFrame},
	})
	return ir, nil
}

// Done reports whether the replica is complete.
func (ir *IncrementalReplication) Done() bool { return ir.done }

// Node returns the target node of the replication.
func (ir *IncrementalReplication) Node() numa.NodeID { return ir.node }

// Abort abandons an unfinished replication: the partially built replica
// tree is torn down (every already-copied page unlinked from its ring and
// freed) so no interior pointer dangles. A no-op once the copy is done or
// already aborted. The job cannot be resumed.
func (ir *IncrementalReplication) Abort(ctx *pvops.OpCtx) {
	if ir.done || ir.aborted {
		return
	}
	ir.space.teardownNode(ctx, ir.node)
	ir.queue = nil
	ir.aborted = true
}

// Step copies up to maxPages page-table pages. It returns true when the
// replica is complete. The cycle cost lands on ctx — pass a context billed
// to a background thread (or DMA engine) to keep it off the application's
// critical path.
func (ir *IncrementalReplication) Step(ctx *pvops.OpCtx, maxPages int) (bool, error) {
	if ir.aborted {
		return false, fmt.Errorf("core: Step on aborted replication to node %d", ir.node)
	}
	if ir.done {
		return true, nil
	}
	if maxPages <= 0 {
		panic(fmt.Sprintf("core: Step batch %d must be positive", maxPages))
	}
	s := ir.space
	p := s.backend.cost.Params()
	for copied := 0; copied < maxPages && len(ir.queue) > 0; copied++ {
		work := ir.queue[0]
		ir.queue = ir.queue[1:]

		// The page may have gained a replica since it was enqueued
		// (another job, or a mask change); just fix the parent up.
		if member, ok := ringMemberOn(s.pm, work.src, ir.node); ok {
			ir.fixParent(ctx, work, member)
			continue
		}
		copyFrame, err := s.backend.cache.AllocPT(ir.node, work.level)
		if err != nil {
			return false, fmt.Errorf("core: incremental replica on node %d: %w", ir.node, err)
		}
		s.backend.Stats.ReplicaPTPages++
		charge(ctx, p.PTAllocInit+p.PageZero)

		src := s.pm.Table(work.src)
		dst := s.pm.Table(copyFrame)
		for i := 0; i < mem.PTEntries; i++ {
			e := pt.PTE(src[i])
			if !e.Present() {
				continue
			}
			charge(ctx, p.PTELoad+p.PTEStore)
			if work.level > 1 && !e.Huge() && s.pm.Meta(e.Frame()).Kind == mem.KindPageTable {
				if member, ok := ringMemberOn(s.pm, e.Frame(), ir.node); ok {
					dst[i] = uint64(pt.NewPTE(member, e.Flags()))
					continue
				}
				// Point at the primary child for now — correct but
				// remote — and queue the child with a fix-up reference.
				dst[i] = uint64(e)
				ir.queue = append(ir.queue, incWork{
					src:    e.Frame(),
					level:  work.level - 1,
					parent: pt.EntryRef{Frame: copyFrame, Index: i},
				})
				continue
			}
			dst[i] = uint64(e)
		}
		ringInsert(s.pm, work.src, copyFrame)
		ir.fixParent(ctx, work, copyFrame)
	}
	if len(ir.queue) > 0 {
		return false, nil
	}
	// Sweep: mappings installed while we copied may have hung new
	// primary-side tables under already-copied parents (the node was not
	// yet in the mask). Re-scan the replica tree for remote interior
	// pointers and queue them; done only when a sweep finds nothing.
	ir.sweep()
	if len(ir.queue) > 0 {
		return false, nil
	}
	ir.done = true
	return true, nil
}

// fixParent redirects the already-copied parent entry at the new child.
func (ir *IncrementalReplication) fixParent(ctx *pvops.OpCtx, work incWork, child mem.FrameID) {
	if work.parent.Frame == mem.NilFrame {
		return
	}
	s := ir.space
	e := pt.ReadEntry(s.pm, work.parent)
	pt.WriteEntryRaw(s.pm, work.parent, pt.NewPTE(child, e.Flags()))
	charge(ctx, s.backend.cost.Params().PTELoad+s.backend.cost.Params().PTEStore)
}

// sweep queues any interior pointer of the node's replica tree that still
// targets a page without a node-local copy.
func (ir *IncrementalReplication) sweep() {
	s := ir.space
	root, ok := ringMemberOn(s.pm, s.mapper.Root(), ir.node)
	if !ok {
		return
	}
	t := pt.NewTable(s.pm, root, s.mapper.Levels())
	t.VisitInterior(func(level uint8, ref pt.EntryRef, e pt.PTE) bool {
		if s.pm.Meta(e.Frame()).Kind != mem.KindPageTable {
			return true
		}
		// Interior pointers within the replica tree resolve to local
		// pages; a remote target means the child was never copied.
		if s.pm.NodeOf(ref.Frame) == ir.node && s.pm.NodeOf(e.Frame()) != ir.node {
			if _, hasLocal := ringMemberOn(s.pm, e.Frame(), ir.node); !hasLocal {
				ir.queue = append(ir.queue, incWork{src: e.Frame(), level: level, parent: ref})
			}
		}
		return true
	})
}

// Finish publishes the completed replica: the node joins the replication
// mask so future page-table allocations replicate there and RootFor hands
// the socket its local root. It panics if the copy is not done.
func (ir *IncrementalReplication) Finish() {
	if !ir.done {
		panic("core: Finish before incremental replication completed")
	}
	s := ir.space
	if ir.node == s.PrimaryNode() {
		return
	}
	for _, n := range s.mask {
		if n == ir.node {
			return
		}
	}
	s.mask = append(s.mask, ir.node)
	// Keep the mask sorted for deterministic behaviour.
	for i := len(s.mask) - 1; i > 0 && s.mask[i] < s.mask[i-1]; i-- {
		s.mask[i], s.mask[i-1] = s.mask[i-1], s.mask[i]
	}
}
