// Package mmucache models the two cache structures that accelerate page
// walks on the evaluation machine:
//
//   - PSC, the per-core paging-structure caches (PML4E/PDPTE/PDE caches,
//     "MMU caches" in the paper [19, 24]). A hit lets the hardware walker
//     skip the upper levels and start the walk closer to the leaf, which is
//     why the paper's analysis focuses on leaf PTEs: "upper-level PTEs can
//     be cached in MMU caches" (§3.1).
//
//   - LLC, a per-socket last-level-cache model for page-table cache lines
//     (8 PTEs per 64-byte line). This reproduces §8.2's observation that
//     with 2MB pages a single-socket workload's leaf page-table lines fit
//     in the socket's L3, hiding remote page-table placement entirely
//     (GUPS in Figure 10b) — while multi-socket workloads keep missing
//     because walkers on all sockets update Accessed/Dirty bits in the
//     shared tables, invalidating each other's cached lines.
//
// Capacities are configurable and default to values scaled in proportion to
// the simulator's scaled-down workload footprints.
package mmucache

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// PSCConfig sizes the per-level paging-structure caches. Index i holds the
// entry count for the cache of level-i entries (i in 2..5); level-1 entries
// are never cached here (they are what the TLB holds).
type PSCConfig struct {
	// EntriesPerLevel[l] is the capacity of the level-l entry cache.
	EntriesPerLevel [pt.MaxLevels + 1]int
}

// DefaultPSCConfig mirrors a modern x86 MMU: a handful of PML4E/PDPTE
// entries and a few dozen PDE entries.
func DefaultPSCConfig() PSCConfig {
	var c PSCConfig
	c.EntriesPerLevel[2] = 32 // PDE cache
	c.EntriesPerLevel[3] = 16 // PDPTE cache
	c.EntriesPerLevel[4] = 8  // PML4E cache
	c.EntriesPerLevel[5] = 4  // PML5E cache (5-level mode)
	return c
}

// PSC is one core's set of paging-structure caches with LRU replacement:
// one small fully-associative row per level, like real MMU caches. Each
// row packs its tag words side by side and checks its MRU way before the
// rest (see pscRow), with hits and evictions bit-identical to a
// shift-down LRU scanned in recency order.
type PSC struct {
	rows [pt.MaxLevels + 1]pscRow
}

// pscRow is one level's cache. Each way keeps one packed tag word (the VA
// prefix with bit 63 set while the way is valid, 0 when empty; a prefix
// stays below 2^55 for any 64-bit VA) next to its child frame. A lookup
// checks the MRU way first, then the tag words in way order: a tag is
// unique within its row (InsertFresh follows a miss), so the first match
// in way order is the entry a scan in recency order finds. Recency lives
// in a byte permutation (order[0] is the MRU way) whose move-to-front
// matches the shift-down representation exactly, keeping hits and
// evictions bit-identical.
type pscRow struct {
	tags  []uint64
	child []mem.FrameID
	order []uint8
}

// find returns the way holding tag, or -1.
func (r *pscRow) find(tag uint64) int {
	if w := r.order[0]; r.tags[w] == tag {
		return int(w)
	}
	for w, t := range r.tags {
		if t == tag {
			return w
		}
	}
	return -1
}

// MaxPSCEntries is the widest row NewPSC accepts: recency is a uint8
// permutation of the row's ways.
const MaxPSCEntries = 256

// validTag marks a PSC tag word in use.
const validTag = 1 << 63

// NewPSC builds the caches from cfg. It panics on a row wider than 256
// entries, which a uint8 recency permutation cannot order.
func NewPSC(cfg PSCConfig) *PSC {
	p := &PSC{}
	for l := 2; l <= pt.MaxLevels; l++ {
		n := cfg.EntriesPerLevel[l]
		if n > MaxPSCEntries {
			panic(fmt.Sprintf("mmucache: PSC level %d: %d entries above %d", l, n, MaxPSCEntries))
		}
		if n > 0 {
			p.rows[l] = pscRow{tags: make([]uint64, n), child: make([]mem.FrameID, n), order: make([]uint8, n)}
			identity(p.rows[l].order)
		}
	}
	return p
}

// identity resets a recency permutation to way order.
func identity(order []uint8) {
	for w := range order {
		order[w] = uint8(w)
	}
}

// promote makes way w the MRU of a recency permutation; the ways ahead of
// it move back one place.
func promote(order []uint8, w uint8) {
	prev := order[0]
	if prev == w {
		return
	}
	order[0] = w
	for i := 1; ; i++ {
		cur := order[i]
		order[i] = prev
		if cur == w {
			return
		}
		prev = cur
	}
}

// evict returns the LRU way of a recency permutation after making it the
// MRU: the way a fill overwrites.
func evict(order []uint8) uint8 {
	last := len(order) - 1
	w := order[last]
	copy(order[1:], order[:last])
	order[0] = w
	return w
}

// tagOf extracts the VA prefix that identifies the level-l entry covering
// va (all VA bits above the level's own index boundary), as a valid tag
// word.
func tagOf(va pt.VirtAddr, level uint8) uint64 {
	shift := uint(pt.PageShift4K + pt.EntryBits*(int(level)-1))
	return uint64(va)>>shift | validTag
}

// Lookup finds the deepest cached paging structure for va at or below
// startLevel. On a hit it returns the level the walk may *resume at* (the
// cached entry's child level) and the child table frame. The walk then
// needs only levels resumeLevel..1.
func (p *PSC) Lookup(va pt.VirtAddr, startLevel uint8) (resumeLevel uint8, child mem.FrameID, ok bool) {
	// Deeper levels (smaller l) skip more of the walk; search from 2 up.
	for l := uint8(2); l <= startLevel; l++ {
		r := &p.rows[l]
		if r.tags == nil {
			continue
		}
		if w := r.find(tagOf(va, l)); w >= 0 {
			promote(r.order, uint8(w))
			return l - 1, r.child[w], true
		}
	}
	return 0, mem.NilFrame, false
}

// Insert caches a non-leaf entry observed at level during a walk: the
// entry's child table frame, keyed by va's prefix.
func (p *PSC) Insert(va pt.VirtAddr, level uint8, child mem.FrameID) {
	if level < 2 || level > pt.MaxLevels {
		panic(fmt.Sprintf("mmucache: PSC insert at level %d", level))
	}
	r := &p.rows[level]
	if r.tags == nil {
		return
	}
	tag := tagOf(va, level)
	if w := r.find(tag); w >= 0 {
		r.child[w] = child
		promote(r.order, uint8(w))
		return
	}
	w := evict(r.order)
	r.tags[w], r.child[w] = tag, child
}

// InsertFresh is Insert for entries the walker knows are absent: every
// walk first ran Lookup, which searched all levels at or below the resume
// point, so the levels the walk descends (and re-caches) missed. Skipping
// the same-key scan is behaviour-identical for absent tags.
func (p *PSC) InsertFresh(va pt.VirtAddr, level uint8, child mem.FrameID) {
	if level < 2 || level > pt.MaxLevels {
		panic(fmt.Sprintf("mmucache: PSC insert at level %d", level))
	}
	r := &p.rows[level]
	if r.tags == nil {
		return
	}
	w := evict(r.order)
	r.tags[w], r.child[w] = tagOf(va, level), child
}

// Flush empties all levels (context switch); recency order is kept.
func (p *PSC) Flush() {
	for l := range p.rows {
		clear(p.rows[l].tags)
	}
}

// Reset restores the PSC to its just-built state: entries cleared, LRU
// permutations back to identity. This is the reuse path for recycling a
// machine between independent runs.
func (p *PSC) Reset() {
	for l := range p.rows {
		r := &p.rows[l]
		clear(r.tags)
		clear(r.child)
		identity(r.order)
	}
}
