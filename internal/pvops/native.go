package pvops

import (
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Native is the pass-through backend: behaviour identical to an unmodified
// kernel. Page-table pages are allocated only on the primary node and PTE
// stores touch exactly one location. The paper stresses that the Mitosis
// backend must be indistinguishable from native when replication is off;
// tests assert that equivalence against this implementation.
//
// Kernel-side PTE loads and stores are charged the cached-access constants
// of the cost model (PTELoad/PTEStore), not DRAM latency: unlike the
// hardware walker — whose page-table reads miss the caches because the
// table working set is huge — the kernel edits a small, hot set of entries.
type Native struct {
	pm   *mem.PhysMem
	cost *numa.CostModel
}

// NewNative returns a native backend over the given memory and cost model.
func NewNative(pm *mem.PhysMem, cost *numa.CostModel) *Native {
	if pm == nil || cost == nil {
		panic("pvops: NewNative requires memory and cost model")
	}
	return &Native{pm: pm, cost: cost}
}

// Name implements Backend.
func (n *Native) Name() string { return "native" }

// AllocPT implements Backend. The replica set in spec is ignored: native
// kernels have exactly one page-table. The preferred node is tried first
// with fallback to any node with memory, as in Linux.
func (n *Native) AllocPT(ctx *OpCtx, spec AllocSpec) (mem.FrameID, error) {
	f, err := n.pm.AllocPageTable(spec.Primary, spec.Level)
	if err != nil {
		for node := 0; node < n.pm.Topology().Nodes(); node++ {
			if numa.NodeID(node) == spec.Primary {
				continue
			}
			if f, err2 := n.pm.AllocPageTable(numa.NodeID(node), spec.Level); err2 == nil {
				ctx.count(func(m *Meter) { m.PTAllocs++ })
				p := n.cost.Params()
				ctx.charge(p.PTAllocInit + p.PageZero)
				return f, nil
			}
		}
		return mem.NilFrame, err
	}
	ctx.count(func(m *Meter) { m.PTAllocs++ })
	p := n.cost.Params()
	ctx.charge(p.PTAllocInit + p.PageZero)
	return f, nil
}

// ReleasePT implements Backend.
func (n *Native) ReleasePT(ctx *OpCtx, f mem.FrameID) {
	n.pm.Free(f)
	ctx.count(func(m *Meter) { m.PTFrees++ })
	ctx.charge(n.cost.Params().PTAllocInit)
}

// SetPTE implements Backend.
func (n *Native) SetPTE(ctx *OpCtx, ref pt.EntryRef, e pt.PTE) {
	pt.WriteEntryRaw(n.pm, ref, e)
	ctx.count(func(m *Meter) { m.PTEWrites++ })
	ctx.charge(n.cost.Params().PTEStore)
}

// ReadPTE implements Backend.
func (n *Native) ReadPTE(ctx *OpCtx, ref pt.EntryRef) pt.PTE {
	ctx.count(func(m *Meter) { m.PTEReads++ })
	ctx.charge(n.cost.Params().PTELoad)
	return pt.ReadEntry(n.pm, ref)
}

// ChargeReads implements Backend.
func (n *Native) ChargeReads(ctx *OpCtx, reads int) {
	ctx.count(func(m *Meter) { m.PTEReads += uint64(reads) })
	ctx.charge(numa.Cycles(reads) * n.cost.Params().PTELoad)
}

// GatherAD implements Backend. With a single table it is a plain read.
func (n *Native) GatherAD(ctx *OpCtx, ref pt.EntryRef) pt.PTE {
	return n.ReadPTE(ctx, ref)
}

// ClearAD implements Backend.
func (n *Native) ClearAD(ctx *OpCtx, ref pt.EntryRef) {
	e := pt.ReadEntry(n.pm, ref)
	pt.WriteEntryRaw(n.pm, ref, e.ClearFlags(pt.FlagAccessed|pt.FlagDirty))
	ctx.count(func(m *Meter) { m.PTEReads++; m.PTEWrites++ })
	p := n.cost.Params()
	ctx.charge(p.PTELoad + p.PTEStore)
}

var _ Backend = (*Native)(nil)
