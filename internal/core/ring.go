// Package core implements Mitosis, the paper's primary contribution:
// transparent replication and migration of page-tables across NUMA sockets.
//
// The implementation follows §5 and §6 of the paper:
//
//   - A circular linked list of replica page-table pages is threaded through
//     per-frame state, so a store to any replica can reach all others in 2N
//     memory references instead of the 4N a per-replica table walk would
//     need (Figure 8). The paper keeps the pointer in struct page; here it
//     lives in mem's page-table block (mem.PhysMem.ReplicaNext), the role
//     Linux's struct ptdesc plays next to struct page, so data frames do
//     not pay for it.
//   - All page-table mutations are intercepted at the PV-Ops layer: Backend
//     is a drop-in replacement for the native pvops backend that eagerly
//     propagates every PTE store to all replicas, translating upper-level
//     entries so each replica's interior pointers stay socket-local.
//   - Space manages a process's replication state: the per-socket root
//     array consulted on context switch (§5.3), replica creation for an
//     existing table, mask changes, and migration-by-replication (§5.5).
//   - Policy (the counter-based automatic trigger sketched in §6.1) lives
//     in policy.go; the pluggable runtime policies in replpolicy.go.
package core

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// ringMembers returns all frames in f's replica ring, starting with f
// itself. A frame with no replicas yields a single-element slice.
func ringMembers(pm *mem.PhysMem, f mem.FrameID) []mem.FrameID {
	members := []mem.FrameID{f}
	for cur := pm.ReplicaNext(f); cur != mem.NilFrame && cur != f; cur = pm.ReplicaNext(cur) {
		members = append(members, cur)
		if len(members) > 64 {
			panic(fmt.Sprintf("core: replica ring of frame %d does not close", f))
		}
	}
	return members
}

// ringMemberOn returns the member of f's ring on the given node, or
// (NilFrame, false) if the ring has no member there.
func ringMemberOn(pm *mem.PhysMem, f mem.FrameID, node numa.NodeID) (mem.FrameID, bool) {
	if pm.NodeOf(f) == node {
		return f, true
	}
	for cur := pm.ReplicaNext(f); cur != mem.NilFrame && cur != f; cur = pm.ReplicaNext(cur) {
		if pm.NodeOf(cur) == node {
			return cur, true
		}
	}
	return mem.NilFrame, false
}

// ringInsert links newFrame into f's ring immediately after f. If f has no
// ring yet, a two-element ring is formed.
func ringInsert(pm *mem.PhysMem, f, newFrame mem.FrameID) {
	if pm.ReplicaNext(newFrame) != mem.NilFrame {
		panic(fmt.Sprintf("core: frame %d is already in a ring", newFrame))
	}
	next := pm.ReplicaNext(f)
	if next == mem.NilFrame {
		next = f
	}
	pm.SetReplicaNext(newFrame, next)
	pm.SetReplicaNext(f, newFrame)
}

// ringUnlink removes f from its ring. If the ring collapses to a single
// member, that member's link becomes NilFrame again.
func ringUnlink(pm *mem.PhysMem, f mem.FrameID) {
	next := pm.ReplicaNext(f)
	if next == mem.NilFrame {
		return // not in a ring
	}
	// Find predecessor.
	pred := f
	for pm.ReplicaNext(pred) != f {
		pred = pm.ReplicaNext(pred)
		if pred == mem.NilFrame {
			panic(fmt.Sprintf("core: frame %d ring is corrupt", f))
		}
	}
	if pred == next {
		// Two-member ring collapses.
		next = mem.NilFrame
	}
	pm.SetReplicaNext(pred, next)
	pm.SetReplicaNext(f, mem.NilFrame)
}

// ringSize returns the number of members in f's ring (1 if unreplicated).
func ringSize(pm *mem.PhysMem, f mem.FrameID) int {
	n := 1
	for cur := pm.ReplicaNext(f); cur != mem.NilFrame && cur != f; cur = pm.ReplicaNext(cur) {
		n++
	}
	return n
}
