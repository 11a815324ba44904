package translate

import (
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
)

// victimaBlockPages is the translations per TLB block: one 64-byte LLC
// line holds 8 packed leaf entries for 8 consecutive 4KB pages.
const victimaBlockPages = 8

// victima models the Victima design (arXiv 2310.04158): the L2 TLB is
// removed, and on an L1 miss a software-managed TLB-block entry is
// probed in the socket's LLC, where blocks live in the same sets as
// page-table lines and compete with them for residency. A block hit
// costs an LLC access instead of an L2 TLB hit — slower per hit, but
// reach scales with the LLC instead of a fixed SRAM array, and a
// victim block evicted by page-table-line pressure simply falls back
// to a walk. Huge-page translations (2M/1G) stay in the L1-2M array
// only; the block store covers the 4KB stream where reach matters.
//
// The walk itself (and the PSC that accelerates it) is the shared
// x86-style walker, so the backend's difference is purely in the
// translation-caching layer — which is exactly the Victima proposal.
type victima struct {
	walker
	tlbCfg tlb.Config
	pscCfg mmucache.PSCConfig
}

func newVictima(tlbCfg tlb.Config, pscCfg mmucache.PSCConfig, deps Deps) *victima {
	return &victima{walker: newWalker(deps), tlbCfg: tlbCfg, pscCfg: pscCfg}
}

func (b *victima) Name() string  { return BackendVictima }
func (b *victima) Levels() uint8 { return 4 }

func (b *victima) Geometry() Geometry {
	return Geometry{
		Backend: BackendVictima,
		Levels:  4,
		VABits:  48,
		TLB:     b.tlbCfg,
		PSC:     pscRows(b.pscCfg, 4),
	}
}

func (b *victima) NewCore(i int) Core {
	return &victimaCore{
		walkerCore: walkerCore{w: &b.walker, psc: mmucache.NewPSC(b.pscCfg)},
		tlb:        tlb.New(b.tlbCfg),
		blocks:     make(map[uint64]*victimaBlock),
	}
}

// victimaKey names one TLB block: the loaded roots pin the address
// space (CR3 is per-socket-replica and, under virtualization, the
// guest root disambiguates guest processes sharing an nCR3), block is
// va >> (12 + 3).
type victimaKey struct {
	root  mem.FrameID
	groot uint64
	block uint64
}

// victimaBlock is the software-visible payload of one LLC-resident TLB
// block: packed leaves for 8 consecutive 4KB pages. Presence in the
// cache is modelled by the shared LLC (the block's line competes with
// page-table lines); the payload lives per core, so shootdowns stay
// core-local like ordinary TLB invalidations. A payload slot without
// its LLC line (evicted by cache pressure) is a miss; an LLC line
// without a payload slot (filled by a sibling core) is also a miss —
// both fall back to a walk and refill, which is the software-managed
// fill path Victima replaces the hardware L2 with.
type victimaBlock struct {
	key   victimaKey
	leaf  [victimaBlockPages]pt.PTE
	node  [victimaBlockPages]numa.NodeID
	valid uint8
	// next chains the payloads other roots hold for the same block
	// number.
	next *victimaBlock
}

// lineOf derives the block's LLC line ID. Bit 63 keeps block lines
// disjoint from page-table lines (LineOf is frame<<6|idx>>3, far below
// 2^63); the multiply-xor mix spreads blocks across LLC sets.
func (k victimaKey) lineOf() mmucache.LineID {
	h := (uint64(k.root)*0x9E3779B97F4A7C15 ^ k.groot*0xC2B2AE3D27D4EB4F ^ k.block) * 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return mmucache.LineID(h | 1<<63)
}

type victimaCore struct {
	walkerCore
	tlb *tlb.TLB
	// blocks maps a block number to the chain of payloads this core
	// holds for it, one per root that filled it, so a shootdown reaches
	// every root's slot without scanning other blocks. Map reads and
	// in-place slot updates are allocation-free, keeping the batched
	// steady state zero-alloc; only the first fill of a block under a
	// root allocates.
	blocks map[uint64]*victimaBlock
	// scratch backs the entry pointer Probe returns on a block hit
	// (valid until the next operation, like a TLB set slot).
	scratch tlb.Entry
}

func (c *victimaCore) keyOf(ctx *Ctx, va pt.VirtAddr) (victimaKey, uint) {
	vpn := uint64(va) >> pt.PageShift4K
	return victimaKey{root: ctx.CR3, groot: ctx.GuestRoot, block: vpn / victimaBlockPages},
		uint(vpn % victimaBlockPages)
}

// find returns the payload held for key, or nil.
func (c *victimaCore) find(key victimaKey) *victimaBlock {
	for p := c.blocks[key.block]; p != nil; p = p.next {
		if p.key == key {
			return p
		}
	}
	return nil
}

func (c *victimaCore) Probe(ctx *Ctx, va pt.VirtAddr, write bool) (*tlb.Entry, numa.Cycles, bool) {
	entry, hit := c.tlb.Lookup(va)
	if hit != tlb.Miss && write && !entry.Leaf.Writable() {
		// Store through a read-only translation: drop the L1 entry and
		// the software block slot so the walk takes the permission
		// fault and refills both.
		c.tlb.InvalidatePage(va)
		c.dropSlot(ctx, va)
		hit = tlb.Miss
	}
	if hit != tlb.Miss {
		return entry, 0, true
	}
	// L1 missed: probe the software-managed block in the socket's LLC.
	key, slot := c.keyOf(ctx, va)
	p := c.find(key)
	if p == nil || p.valid&(1<<slot) == 0 {
		return nil, 0, false
	}
	leaf := p.leaf[slot]
	if write && !leaf.Writable() {
		p.valid &^= 1 << slot
		return nil, 0, false
	}
	line := key.lineOf()
	var resident bool
	if ctx.Owned {
		resident = ctx.LLC.ProbeOwned(line)
	} else {
		resident = ctx.LLC.Probe(line)
	}
	if !resident {
		// The block lost its LLC line to cache pressure (page-table
		// lines or other blocks): software falls back to a full walk.
		return nil, 0, false
	}
	// LLC-resident block hit: promote into the L1 TLB like a hardware
	// second level would, at LLC latency.
	node := p.node[slot]
	c.tlb.InsertMapped(va, leaf, pt.Size4K, node)
	c.scratch = tlb.Entry{VPN: uint64(va) >> pt.PageShift4K, Leaf: leaf, Size: pt.Size4K, Node: node}
	return &c.scratch, c.w.cLLCHit, true
}

func (c *victimaCore) Fill(ctx *Ctx, va pt.VirtAddr, leaf pt.PTE, size pt.PageSize, node numa.NodeID) {
	c.tlb.InsertMapped(va, leaf, size, node)
	if size != pt.Size4K {
		return
	}
	key, slot := c.keyOf(ctx, va)
	p := c.find(key)
	if p == nil {
		p = &victimaBlock{key: key, next: c.blocks[key.block]}
		c.blocks[key.block] = p
	}
	p.leaf[slot] = leaf
	p.node[slot] = node
	p.valid |= 1 << slot
	// Install (or touch) the block's line in the LLC: this is where it
	// starts competing with page-table lines for residency.
	line := key.lineOf()
	if ctx.Owned {
		ctx.LLC.InsertOwned(line)
	} else {
		ctx.LLC.Insert(line)
	}
}

// dropSlot invalidates the software block slot covering va under the
// loaded root, if held.
func (c *victimaCore) dropSlot(ctx *Ctx, va pt.VirtAddr) {
	key, slot := c.keyOf(ctx, va)
	if p := c.find(key); p != nil {
		p.valid &^= 1 << slot
	}
}

// shootSlot invalidates the slot covering va under every root this core
// holds the block for. Blocks outlive a root switch, and a core switches
// between roots of one address space when its socket's replica comes and
// goes: a root it returns to must not hit a translation the OS removed
// under another. A slot another address space holds at the same block
// number is dropped too, which costs it one refill walk.
func (c *victimaCore) shootSlot(va pt.VirtAddr) {
	vpn := uint64(va) >> pt.PageShift4K
	for p := c.blocks[vpn/victimaBlockPages]; p != nil; p = p.next {
		p.valid &^= 1 << (vpn % victimaBlockPages)
	}
}

func (c *victimaCore) ShootdownPage(ctx *Ctx, va pt.VirtAddr) {
	c.tlb.InvalidatePage(va)
	c.shootSlot(va)
	c.psc.Flush()
}

func (c *victimaCore) ShootdownRange(ctx *Ctx, vas []pt.VirtAddr) {
	if len(vas) > fullFlushThreshold {
		c.tlb.Flush()
	} else {
		for _, va := range vas {
			c.tlb.InvalidatePage(va)
		}
	}
	// Software-managed entries are invalidated individually regardless
	// of the hardware flush threshold: the OS knows exactly which
	// blocks it remapped.
	for _, va := range vas {
		c.shootSlot(va)
	}
	c.psc.Flush()
}

func (c *victimaCore) FlushContext(ctx *Ctx) {
	// Context switch: the hardware L1 and walk caches flush; the
	// LLC-resident blocks persist — they are tagged by root, so another
	// context cannot hit them (the ASID-tagging Victima relies on).
	c.tlb.Flush()
	c.psc.Flush()
}

func (c *victimaCore) Reset() {
	c.tlb.Reset()
	c.psc.Reset()
	clear(c.blocks)
	c.scratch = tlb.Entry{}
}

func (c *victimaCore) ResetStats() { c.tlb.ResetStats() }

func (c *victimaCore) TLBStats() tlb.Stats { return c.tlb.Stats }
