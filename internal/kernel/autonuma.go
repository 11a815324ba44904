package kernel

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// AutoNUMAConfig tunes the NUMA-balancing scanner.
type AutoNUMAConfig struct {
	// MinSamples is the minimum sampled accesses before a page is
	// considered for migration.
	MinSamples uint32
	// RemoteRatio is the minimum remote fraction of sampled accesses
	// required to migrate.
	RemoteRatio float64
}

// DefaultAutoNUMAConfig returns the scanner defaults.
func DefaultAutoNUMAConfig() AutoNUMAConfig {
	return AutoNUMAConfig{MinSamples: 4, RemoteRatio: 0.6}
}

// AutoNUMAScan performs one balancing pass over p's address space: data
// pages observed to be accessed predominantly from a remote socket migrate
// to that socket's node. Page-table pages are NEVER migrated — this is the
// asymmetry the paper demonstrates (§3.1 observation 4: "data pages being
// migrated with AutoNUMA, page-table pages were never migrated").
// It returns the number of pages migrated.
func (k *Kernel) AutoNUMAScan(p *Process, cfg AutoNUMAConfig) int {
	migrated := 0
	for _, v := range p.vmas {
		type cand struct {
			va     pt.VirtAddr
			size   pt.PageSize
			target numa.NodeID
		}
		var cands []cand
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			meta := k.pm.Meta(leaf.Frame())
			total := meta.LocalAccesses + meta.RemoteAccesses
			if total < cfg.MinSamples {
				return
			}
			if float64(meta.RemoteAccesses)/float64(total) < cfg.RemoteRatio {
				meta.LocalAccesses, meta.RemoteAccesses = 0, 0
				return
			}
			target := k.topo.NodeOf(numa.SocketID(meta.AccessSocket))
			if target == k.pm.NodeOf(leaf.Frame()) {
				meta.LocalAccesses, meta.RemoteAccesses = 0, 0
				return
			}
			cands = append(cands, cand{va: va, size: size, target: target})
		})
		for _, c := range cands {
			if err := k.migrateDataPage(p, c.va, c.size, c.target); err == nil {
				migrated++
			}
		}
	}
	if migrated > 0 {
		core := k.callCore(p)
		k.machine.AddCycles(core, drainMeterCycles(p))
	}
	return migrated
}

// migrateDataPage moves the data page mapped at va to the target node:
// allocate, copy, remap, free, shoot down.
func (k *Kernel) migrateDataPage(p *Process, va pt.VirtAddr, size pt.PageSize, target numa.NodeID) error {
	ctx := p.opCtx()
	var newFrame mem.FrameID
	var err error
	var pages numa.Cycles
	switch size {
	case pt.Size4K:
		newFrame, err = k.pm.AllocData(target)
		pages = 1
	case pt.Size2M:
		newFrame, err = k.pm.AllocHuge(target)
		pages = 256 // streaming copy efficiency, as with zeroing
	default:
		return fmt.Errorf("kernel: cannot migrate %v page", size)
	}
	if err != nil {
		return err
	}
	old, err := p.mapper.Remap(ctx, va, size, newFrame)
	if err != nil {
		if size == pt.Size2M {
			k.pm.FreeHuge(newFrame)
		} else {
			k.pm.Free(newFrame)
		}
		return err
	}
	p.Meter.Cycles += pages * k.costs.PageCopy
	p.tierMapped(va, size, newFrame)
	p.freeDataPage(old, size)
	core := k.callCore(p)
	k.machine.ShootdownPage(core, va, p.cores)
	return nil
}

// MigrateData moves every mapped data page of p to the target node — the
// "NUMA memory manager transparently migrates data pages" step of the
// workload-migration scenario (§4.2, Figure 7b). Page-tables stay where
// they are unless Mitosis migration is invoked separately.
// It returns the number of pages moved.
func (k *Kernel) MigrateData(p *Process, target numa.NodeID) int {
	moved := 0
	for _, v := range p.vmas {
		type cand struct {
			va   pt.VirtAddr
			size pt.PageSize
		}
		var cands []cand
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			if k.pm.NodeOf(leaf.Frame()) != target {
				cands = append(cands, cand{va, size})
			}
		})
		for _, c := range cands {
			if err := k.migrateDataPage(p, c.va, c.size, target); err == nil {
				moved++
			}
		}
	}
	if moved > 0 {
		core := k.callCore(p)
		k.machine.AddCycles(core, drainMeterCycles(p))
	}
	return moved
}
