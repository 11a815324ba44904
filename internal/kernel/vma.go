package kernel

import (
	"fmt"
	"sort"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// VMA is one virtual memory area of a process.
type VMA struct {
	// Start and End delimit the region [Start, End).
	Start, End pt.VirtAddr
	// Writable grants store permission.
	Writable bool
	// THP requests transparent huge pages where alignment and contiguity
	// allow.
	THP bool
}

// Contains reports whether va falls inside the VMA.
func (v *VMA) Contains(va pt.VirtAddr) bool { return va >= v.Start && va < v.End }

// findVMA returns the VMA covering va, or nil.
func (p *Process) findVMA(va pt.VirtAddr) *VMA {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].End > va })
	if i < len(p.vmas) && p.vmas[i].Contains(va) {
		return p.vmas[i]
	}
	return nil
}

// insertVMA adds a VMA keeping the list sorted; overlap is a caller bug.
func (p *Process) insertVMA(v *VMA) {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].Start >= v.Start })
	if i > 0 && p.vmas[i-1].End > v.Start {
		panic(fmt.Sprintf("kernel: VMA overlap at %#x", uint64(v.Start)))
	}
	if i < len(p.vmas) && v.End > p.vmas[i].Start {
		panic(fmt.Sprintf("kernel: VMA overlap at %#x", uint64(v.Start)))
	}
	p.vmas = append(p.vmas, nil)
	copy(p.vmas[i+1:], p.vmas[i:])
	p.vmas[i] = v
}

// removeVMA drops v from the list.
func (p *Process) removeVMA(v *VMA) {
	for i, cur := range p.vmas {
		if cur == v {
			p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
			return
		}
	}
}

// ForEachMappedPage visits every present leaf mapping of the process in
// VA order — the same deterministic walk the AutoNUMA scanner and the
// tiering engine's Tracker use. Diagnostics (cmd/ptdump) read per-frame
// placement and folded sample counters through it; callers must hold the
// process quiescent, exactly like the engines' barrier ticks.
func (p *Process) ForEachMappedPage(fn func(va pt.VirtAddr, frame mem.FrameID, size pt.PageSize)) {
	for _, v := range p.vmas {
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			fn(va, leaf.Frame(), size)
		})
	}
}

// forEachMapped invokes fn for every present leaf translation overlapping
// v's address range, in VA order, in one depth-first pass over the table.
func (p *Process) forEachMapped(v *VMA, fn func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize)) {
	p.mapper.Table().VisitLeaves(v.Start, v.End, fn)
}
