package core

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// Space manages one process's replicated address-space state: which nodes
// hold page-table replicas, which root each socket should load into CR3 on
// a context switch (§5.3), replica creation for an already-populated table
// (§6.2: "whenever a new mask is set, Mitosis will walk the existing
// page-table and create replicas"), and migration-by-replication (§5.5).
type Space struct {
	pm      *mem.PhysMem
	backend *Backend
	mapper  *pvops.Mapper
	// mask lists the nodes that must hold replicas, in addition to the
	// primary table's node. Sorted, no duplicates.
	mask []numa.NodeID
}

// NewSpace wraps a mapper (whose backend must be the Mitosis backend) with
// replication management. The initial mask is empty: native behaviour.
func NewSpace(pm *mem.PhysMem, backend *Backend, mapper *pvops.Mapper) *Space {
	if mapper.Backend() != pvops.Backend(backend) {
		panic("core: mapper must use the Mitosis backend")
	}
	return &Space{pm: pm, backend: backend, mapper: mapper}
}

// PrimaryNode returns the node holding the primary (master) table.
func (s *Space) PrimaryNode() numa.NodeID { return s.pm.NodeOf(s.mapper.Root()) }

// Mask returns the current replication mask (nodes holding replicas beyond
// the primary). The returned slice must not be modified.
func (s *Space) Mask() []numa.NodeID { return s.mask }

// Replicated reports whether any replicas exist.
func (s *Space) Replicated() bool { return len(s.mask) > 0 }

// RootFor returns the page-table root that socket should load on a context
// switch: the socket-local replica if one exists, otherwise the primary
// root. This is the per-process root-pointer array of §5.3.
func (s *Space) RootFor(socket numa.SocketID) mem.FrameID {
	root := s.mapper.Root()
	node := s.pm.Topology().NodeOf(socket)
	if local, ok := ringMemberOn(s.pm, root, node); ok {
		return local
	}
	return root
}

// ReplicaNodes returns the set of nodes holding a copy of the root table,
// including the primary's node, in ascending order.
func (s *Space) ReplicaNodes() []numa.NodeID { return s.AppendReplicaNodes(nil) }

// AppendReplicaNodes appends ReplicaNodes to buf and returns it, sorting
// only the appended part; with room in buf it allocates nothing.
func (s *Space) AppendReplicaNodes(buf []numa.NodeID) []numa.NodeID {
	n, root := len(buf), s.mapper.Root()
	buf = append(buf, s.pm.NodeOf(root))
	for f := s.pm.ReplicaNext(root); f != mem.NilFrame && f != root; f = s.pm.ReplicaNext(f) {
		buf = append(buf, s.pm.NodeOf(f))
	}
	slices.Sort(buf[n:])
	return buf
}

// SetMask installs a new replication mask: replicas are created on nodes
// newly in the mask and torn down on nodes removed from it. An empty mask
// restores native single-table behaviour. This is the mechanism behind
// numa_set_pgtable_replication_mask (Listing 2).
//
// If the existing table's pages are spread across nodes (the first-touch
// skew of §3.1), the primary is first rebuilt fully local to its node:
// replication promises every socket in the mask a socket-local tree, and a
// spread master would leave the primary's own socket walking remote pages.
func (s *Space) SetMask(ctx *pvops.OpCtx, nodes []numa.NodeID) error {
	want := normalizeMask(nodes, s.PrimaryNode())
	if len(want) > 0 {
		if err := s.canonicalize(ctx); err != nil {
			return err
		}
		s.debugValidate("canonicalize")
	}
	// Create replicas missing from the current state.
	for _, n := range want {
		if !slices.Contains(s.mask, n) {
			if err := s.replicateTo(ctx, n); err != nil {
				return err
			}
			s.debugValidate(fmt.Sprintf("replicateTo(%d)", n))
		}
	}
	// Tear down replicas no longer wanted.
	for _, n := range s.mask {
		if !slices.Contains(want, n) {
			s.teardownNode(ctx, n)
			s.debugValidate(fmt.Sprintf("teardown(%d)", n))
		}
	}
	s.mask = want
	return nil
}

// forEachTreePage calls fn with each page-table frame of the primary tree:
// the root, then the tables below it in depth-first order. It reads no
// leaf table.
func (s *Space) forEachTreePage(fn func(mem.FrameID)) {
	t := s.mapper.Table()
	fn(t.Root())
	t.VisitInterior(func(_ uint8, _ pt.EntryRef, e pt.PTE) bool {
		if s.pm.Meta(e.Frame()).Kind == mem.KindPageTable {
			fn(e.Frame())
		}
		return true
	})
}

// treePages collects the primary tree's page-table frames (root first).
func (s *Space) treePages() []mem.FrameID {
	var pages []mem.FrameID
	s.forEachTreePage(func(f mem.FrameID) { pages = append(pages, f) })
	return pages
}

// PTPageCount returns the number of pages in the primary table tree — the
// size of the copy a replication commits to (policy cost input). It costs
// the table pages above the leaves, not the mapped pages, and allocates
// nothing.
func (s *Space) PTPageCount() int {
	n := 0
	s.forEachTreePage(func(mem.FrameID) { n++ })
	return n
}

// pureOn reports whether every page of the primary tree lives on node.
func (s *Space) pureOn(node numa.NodeID) bool {
	for _, pg := range s.treePages() {
		if s.pm.NodeOf(pg) != node {
			return false
		}
	}
	return true
}

// canonicalize rebuilds a spread, unreplicated primary table fully local to
// its root's node, freeing the old pages. A no-op for pure or already
// replicated tables.
func (s *Space) canonicalize(ctx *pvops.OpCtx) error {
	root := s.mapper.Root()
	node := s.pm.NodeOf(root)
	if ringSize(s.pm, root) > 1 || s.pureOn(node) {
		return nil
	}
	oldPages := s.treePages()
	// The rebuilt tree is standalone (reuse=false skips ring joining): the
	// old pages and *every* member of their rings — including members
	// orphaned by earlier migrations — are freed wholesale below.
	newRoot, err := s.copyTree(ctx, root, s.mapper.Levels(), node, false)
	if err != nil {
		return err
	}
	s.mapper.SetRoot(newRoot)
	p := s.backend.cost.Params()
	freed := map[mem.FrameID]bool{}
	for _, pg := range oldPages {
		for _, m := range ringMembers(s.pm, pg) {
			if freed[m] {
				continue
			}
			freed[m] = true
			ringUnlink(s.pm, m)
			s.backend.cache.FreePT(m)
			charge(ctx, p.PTAllocInit)
		}
	}
	return nil
}

// Collapse tears down every replica, leaving only the primary table.
func (s *Space) Collapse(ctx *pvops.OpCtx) {
	if err := s.SetMask(ctx, nil); err != nil {
		// SetMask with an empty mask only tears down; it cannot fail.
		panic(fmt.Sprintf("core: Collapse: %v", err))
	}
}

// Migrate moves the page-table to target using the replication machinery
// (§5.5): replicate onto the target socket's node, switch the primary to
// the new copy, and either eagerly free the origin copy (keepOrigin=false)
// or keep it up to date in case the process migrates back.
func (s *Space) Migrate(ctx *pvops.OpCtx, target numa.NodeID, keepOrigin bool) error {
	// A spread table is first rebuilt local to its root's node so that the
	// per-node replica/teardown bookkeeping below covers every page.
	if err := s.canonicalize(ctx); err != nil {
		return err
	}
	origin := s.PrimaryNode()
	if origin == target {
		return nil
	}
	if _, ok := ringMemberOn(s.pm, s.mapper.Root(), target); !ok {
		if err := s.replicateTo(ctx, target); err != nil {
			return err
		}
	}
	newRoot, ok := ringMemberOn(s.pm, s.mapper.Root(), target)
	if !ok {
		panic("core: replica vanished during migration")
	}
	s.mapper.SetRoot(newRoot)
	s.debugValidate("migrate-setroot")
	// The target node is now the primary; drop it from the mask if present.
	s.mask = slices.DeleteFunc(slices.Clone(s.mask), func(n numa.NodeID) bool { return n == target })
	if keepOrigin {
		if !slices.Contains(s.mask, origin) {
			s.mask = append(s.mask, origin)
			slices.Sort(s.mask)
		}
		return nil
	}
	if !slices.Contains(s.mask, origin) {
		s.teardownNode(ctx, origin)
	}
	return nil
}

// replicateTo deep-copies the whole page-table onto node. The copy is
// *semantic*: upper-level entries of the new replica point to the new
// replica's own lower-level pages, while leaf entries (data frames, huge
// leaves) are copied verbatim (§2.3).
func (s *Space) replicateTo(ctx *pvops.OpCtx, node numa.NodeID) error {
	root := s.mapper.Root()
	if _, ok := ringMemberOn(s.pm, root, node); ok {
		return nil // already replicated there
	}
	if _, err := s.copySubtree(ctx, root, s.mapper.Levels(), node); err != nil {
		// Strict allocation failed mid-copy: remove the partial replica
		// so the rings stay consistent.
		s.teardownNode(ctx, node)
		return err
	}
	return nil
}

// copySubtree clones the table page f (level given) and all interior
// children onto node, linking every clone into its source's replica ring.
// Pages that already have a member on node are reused, not duplicated —
// after migrations, parts of a tree may already be replicated there.
// Returns the clone (or existing member) of f.
func (s *Space) copySubtree(ctx *pvops.OpCtx, f mem.FrameID, level uint8, node numa.NodeID) (mem.FrameID, error) {
	return s.copyTree(ctx, f, level, node, true)
}

// copyTree implements copySubtree. With reuse off, every page is cloned
// fresh even if a member already sits on node — canonicalize needs this,
// because it frees the entire source tree afterwards and a reused page
// would dangle.
func (s *Space) copyTree(ctx *pvops.OpCtx, f mem.FrameID, level uint8, node numa.NodeID, reuse bool) (mem.FrameID, error) {
	if reuse {
		if member, ok := ringMemberOn(s.pm, f, node); ok {
			return member, nil
		}
	}
	p := s.backend.cost.Params()
	copyFrame, err := s.backend.cache.AllocPT(node, level)
	if err != nil {
		return mem.NilFrame, fmt.Errorf("core: replicating level-%d table on node %d: %w", level, node, err)
	}
	s.backend.Stats.ReplicaPTPages++
	charge(ctx, p.PTAllocInit+p.PageZero)

	src := s.pm.Table(f)
	dst := s.pm.Table(copyFrame)
	for i := 0; i < mem.PTEntries; i++ {
		e := pt.PTE(src[i])
		if !e.Present() {
			continue
		}
		charge(ctx, p.PTELoad+p.PTEStore)
		if level > 1 && !e.Huge() && s.pm.Meta(e.Frame()).Kind == mem.KindPageTable {
			childCopy, err := s.copyTree(ctx, e.Frame(), level-1, node, reuse)
			if err != nil {
				return mem.NilFrame, err
			}
			dst[i] = uint64(pt.NewPTE(childCopy, e.Flags()))
			continue
		}
		dst[i] = uint64(e)
	}
	if reuse {
		// Replication: the copy joins its source's replica ring so future
		// stores propagate to it.
		ringInsert(s.pm, f, copyFrame)
	}
	return copyFrame, nil
}

// teardownNode removes the replica tree on node. The primary's node cannot
// be torn down.
//
// A subtlety: after migrations, a surviving replica's interior entry may
// point *verbatim* at a page on the torn-down node (the fallback used when
// the writer's ring had no member on the reader's node). Freeing that page
// would leave a dangling pointer, so before freeing, every surviving ring
// member's entries are redirected away from the doomed pages.
func (s *Space) teardownNode(ctx *pvops.OpCtx, node numa.NodeID) {
	if node == s.PrimaryNode() {
		panic("core: cannot tear down the primary table's node")
	}
	p := s.backend.cost.Params()
	// Collect the primary tree's pages first; freeing while visiting
	// would invalidate the traversal.
	pages := s.treePages()
	// doomed maps each to-be-freed frame to the canonical (primary-chain)
	// page it replicates. doomedOrder keeps the frames in traversal order:
	// the free order below feeds the page-cache pool, so it must be
	// deterministic for run-to-run counter identity.
	doomed := make(map[mem.FrameID]mem.FrameID)
	doomedOrder := make([]mem.FrameID, 0, len(pages))
	for _, pg := range pages {
		if member, ok := ringMemberOn(s.pm, pg, node); ok && member != pg {
			doomed[member] = pg
			doomedOrder = append(doomedOrder, member)
		}
	}
	if len(doomed) == 0 {
		return
	}
	// Redirect surviving members' entries that point at doomed pages: each
	// reader gets its node-local copy of the child where one exists, else
	// the canonical page.
	for _, pg := range pages {
		for _, m := range ringMembers(s.pm, pg) {
			if _, dying := doomed[m]; dying {
				continue
			}
			mNode := s.pm.NodeOf(m)
			tbl := s.pm.Table(m)
			for i := 0; i < mem.PTEntries; i++ {
				e := pt.PTE(tbl[i])
				if !e.Present() || e.Huge() {
					continue
				}
				canonical, dying := doomed[e.Frame()]
				if !dying {
					continue
				}
				target := canonical
				if local, ok := ringMemberOn(s.pm, canonical, mNode); ok && local != e.Frame() {
					target = local
				}
				tbl[i] = uint64(pt.NewPTE(target, e.Flags()))
				charge(ctx, p.PTEStore)
			}
		}
	}
	for _, member := range doomedOrder {
		ringUnlink(s.pm, member)
		s.backend.cache.FreePT(member)
		charge(ctx, p.PTAllocInit)
	}
}

// Debug enables internal consistency validation after every structural
// replication phase. Tests use it to localize corruption to a phase.
var Debug = false

// Validate checks the structural invariants of every replica tree: interior
// entries must point at live page-table pages of the next-lower level, and
// every ring must close and hold at most one member per node. It returns
// the first violation found.
func (s *Space) Validate() error {
	for _, root := range ringMembers(s.pm, s.mapper.Root()) {
		t := pt.NewTable(s.pm, root, s.mapper.Levels())
		var fail error
		t.VisitInterior(func(level uint8, ref pt.EntryRef, e pt.PTE) bool {
			meta := s.pm.Meta(e.Frame())
			if meta.Kind != mem.KindPageTable || meta.PTLevel != level-1 {
				fail = fmt.Errorf("core: root %d: L%d entry (frame %d idx %d) -> frame %d kind=%v level=%d",
					root, level, ref.Frame, ref.Index, e.Frame(), meta.Kind, meta.PTLevel)
				return false
			}
			seen := map[numa.NodeID]bool{}
			for _, m := range ringMembers(s.pm, e.Frame()) {
				n := s.pm.NodeOf(m)
				if seen[n] {
					fail = fmt.Errorf("core: ring of frame %d has two members on node %d", e.Frame(), n)
					return false
				}
				seen[n] = true
			}
			return true
		})
		if fail != nil {
			return fail
		}
	}
	return nil
}

// debugValidate panics on invariant violations when Debug is set.
func (s *Space) debugValidate(phase string) {
	if !Debug {
		return
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("core: after %s: %v", phase, err))
	}
}

// normalizeMask sorts, dedups and removes the primary node from the mask
// (the primary table is always present; listing its node is a no-op).
func normalizeMask(nodes []numa.NodeID, primary numa.NodeID) []numa.NodeID {
	out := make([]numa.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if n == primary || slices.Contains(out, n) {
			continue
		}
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
