// Package pvops defines the paravirtualized page-table operation interface
// through which ALL page-table mutations in the simulator flow.
//
// The Mitosis paper implements its mechanism as a new backend for Linux's
// PV-Ops indirection layer (§5.2, Listing 1) rather than rewriting the
// memory subsystem: every page-table page allocation/release, every PTE
// store, and — added by Mitosis — every PTE read of hardware-set bits is
// routed through a backend. This package reproduces that structure:
//
//   - Backend is the interface (alloc/release page-table pages, set/read
//     PTEs, clear hardware bits).
//   - The Mitosis backend lives in internal/core and propagates every store
//     to all replicas via the circular replica list. It is the one backend
//     the simulator runs; with replication off it behaves as an unmodified
//     kernel would.
//   - The pass-through backend of an unmodified kernel, Native, lives in
//     the test-support package pvopstest: tests hold the Mitosis backend
//     to it.
//
// Backends charge simulated cycle costs through the OpCtx passed to every
// operation, so microbenchmarks (paper Table 5) can measure the overhead of
// replication on mmap/mprotect/munmap system calls.
package pvops

import (
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Meter accumulates the cost of page-table operations performed under one
// OpCtx. The kernel reads and resets a meter's cycles to bill them to the
// core that did the work.
type Meter struct {
	// Cycles is the total simulated cycle cost charged.
	Cycles numa.Cycles
}

// OpCtx carries the execution context of a page-table operation: where to
// accumulate its cost.
type OpCtx struct {
	// Meter receives the operation's cost; may be nil to discard.
	Meter *Meter
}

// AllocSpec tells a backend where a new page-table page must live. The
// replication node set comes from the owning process's Mitosis policy; it
// is empty (or contains only Primary) when replication is off.
type AllocSpec struct {
	// Level is the page-table level of the new page (1 = leaf table).
	Level uint8
	// Primary is the node the master copy must be allocated on.
	Primary numa.NodeID
	// Replicas lists additional nodes that must receive replica pages.
	Replicas []numa.NodeID
}

// Backend is the simulator's PV-Ops table: the interface between generic
// memory-management code and the machine-specific (or Mitosis-extended)
// page-table implementation. Methods mirror Listing 1 of the paper plus the
// read-side additions described in §5.4.
type Backend interface {
	// Name identifies the backend ("native", "mitosis").
	Name() string

	// AllocPT allocates a page-table page per spec and returns the master
	// frame. Replica frames, if any, are linked through the frame
	// metadata's circular replica list.
	AllocPT(ctx *OpCtx, spec AllocSpec) (mem.FrameID, error)

	// ReleasePT frees a page-table page and any replicas linked to it.
	ReleasePT(ctx *OpCtx, f mem.FrameID)

	// SetPTE stores e at ref and propagates the store to all replicas of
	// ref's page-table page.
	SetPTE(ctx *OpCtx, ref pt.EntryRef, e pt.PTE)

	// ReadPTE loads the entry at ref for structural decisions (walking
	// down, permission checks). It reads a single location; hardware-set
	// bits in the result may be stale with respect to other replicas.
	ReadPTE(ctx *OpCtx, ref pt.EntryRef) pt.PTE

	// ChargeReads charges n ReadPTE loads that the caller made through a
	// descent of the primary table (pt.Table.Descend): the cycles n
	// ReadPTE calls would have charged, without reading again.
	ChargeReads(ctx *OpCtx, n int)

	// GatherAD loads the entry at ref with the Accessed/Dirty bits OR-ed
	// across all replicas — the "get" functions Mitosis adds to PV-Ops
	// (§5.4) so that swapping and writeback observe correct hardware bits.
	GatherAD(ctx *OpCtx, ref pt.EntryRef) pt.PTE

	// ClearAD clears the Accessed and Dirty bits at ref in all replicas.
	ClearAD(ctx *OpCtx, ref pt.EntryRef)
}
