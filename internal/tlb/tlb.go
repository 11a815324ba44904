// Package tlb models a per-core two-level Translation Lookaside Buffer with
// set-associative arrays, LRU replacement, separate first-level arrays for
// 4KB and 2MB pages, and a unified second level — the structure of the
// paper's evaluation machine ("a per-core two-level TLB with 64+1024
// entries", §8).
//
// Entry counts are configurable because the simulator runs scaled-down
// footprints: keeping the footprint/TLB-coverage ratio in the regime of the
// paper's 512GB machine requires proportionally smaller TLBs.
package tlb

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Config sizes the TLB arrays. Entries must be divisible by Ways.
type Config struct {
	// L1Entries4K / L1Ways4K size the first-level 4KB-page array.
	L1Entries4K, L1Ways4K int
	// L1Entries2M / L1Ways2M size the first-level 2MB-page array.
	L1Entries2M, L1Ways2M int
	// L2Entries / L2Ways size the unified second level.
	L2Entries, L2Ways int
}

// DefaultConfig returns the scaled TLB used by the experiments: 16+64
// entries, preserving the paper machine's heavy-TLB-pressure regime at the
// simulator's scaled-down footprints (see DESIGN.md).
func DefaultConfig() Config {
	return Config{
		L1Entries4K: 16, L1Ways4K: 4,
		L1Entries2M: 8, L1Ways2M: 4,
		L2Entries: 64, L2Ways: 8,
	}
}

// HitLevel reports where a lookup hit.
type HitLevel int

const (
	// Miss means the translation was absent from all levels.
	Miss HitLevel = iota
	// HitL1 means the first-level array supplied the translation.
	HitL1
	// HitL2 means the second-level array supplied the translation.
	HitL2
)

// Entry is a cached translation.
type Entry struct {
	// VPN is the virtual page number (va >> pageshift for Size).
	VPN uint64
	// Leaf is the cached leaf PTE (frame + flags).
	Leaf pt.PTE
	// Size is the mapping granularity.
	Size pt.PageSize
	// Node is the NUMA node owning every frame of the mapping, cached at
	// insert time so the access path skips the frame->node computation —
	// the hardware analogue of a memory-attribute bit travelling with the
	// translation. numa.InvalidNode when the mapping spans nodes (or the
	// inserter did not know): consumers then recompute per access.
	Node numa.NodeID
}

// frameOffMask[s] extracts the 4KB-frame offset of a VA inside a mapping
// of size s: (s.Bytes() >> 12) - 1.
var frameOffMask = [3]uint64{0, (2 << 20 >> 12) - 1, (1 << 30 >> 12) - 1}

// Frame returns the physical frame for va under this entry, adjusting for
// the in-page offset of huge mappings.
func (e *Entry) Frame(va pt.VirtAddr) mem.FrameID {
	return e.Leaf.Frame() + mem.FrameID((uint64(va)>>pt.PageShift4K)&frameOffMask[e.Size])
}

// Stats counts TLB probes and the probes that missed every level.
type Stats struct {
	Lookups uint64
	Misses  uint64
}

// validTag marks a tag word in use. A key (VPN<<2 | size) stays below
// 2^55 for any 64-bit VA, so bit 63 is free, and an empty way's word (0)
// never equals a search tag.
const validTag = 1 << 63

// tagOf packs a translation's key into its valid tag word.
func tagOf(vpn uint64, size pt.PageSize) uint64 {
	return vpn<<2 | uint64(size) | validTag
}

// sizeOfTag recovers the page size from a tag word.
func sizeOfTag(tag uint64) pt.PageSize { return pt.PageSize(tag & 3) }

// set is one associative set. Each way keeps one packed tag word
// (tags[w]: VPN<<2 | size with bit 63 set, or 0 when empty) next to its
// payload (slots[w]), so a probe compares consecutive words instead of
// loading whole entries. A probe checks the MRU way first, then the tag
// words in way order; a tag is unique within its set (fills that skip
// the same-key scan follow a miss), so the first match in way order is
// the entry a scan in recency order finds. Recency lives in a separate
// byte permutation (order[0] is the MRU way) whose move-to-front is
// exactly the classic shift-down update, so hits, evictions and every
// counter are bit-identical to a shift-down LRU.
type set struct {
	tags  []uint64
	slots []Entry
	order []uint8
}

// lookup returns the way holding tag, touching it, or -1. The MRU check
// is small enough to inline into the caller, so a repeat hit makes no
// call; lookupScan covers the rest.
func (s *set) lookup(tag uint64) int {
	if w := s.order[0]; s.tags[w] == tag {
		return int(w)
	}
	return s.lookupScan(tag)
}

// lookupScan is lookup past the MRU way: it compares the tag words in
// way order and promotes a match to MRU.
func (s *set) lookupScan(tag uint64) int {
	w := s.scan(tag)
	if w >= 0 {
		s.promote(uint8(w))
	}
	return w
}

// scan returns the way holding tag, or -1, comparing the tag words in way
// order.
func (s *set) scan(tag uint64) int {
	for w, t := range s.tags {
		if t == tag {
			return w
		}
	}
	return -1
}

// promote makes way w the MRU; the ways ahead of it in recency order
// move back one place.
func (s *set) promote(w uint8) {
	prev := s.order[0]
	if prev == w {
		return
	}
	s.order[0] = w
	for i := 1; ; i++ {
		cur := s.order[i]
		s.order[i] = prev
		if cur == w {
			return
		}
		prev = cur
	}
}

// fill installs e under tag in the LRU way, which becomes the MRU, and
// returns the tag word it overwrote (0 if the way was empty).
func (s *set) fill(tag uint64, e Entry) (evicted uint64) {
	last := len(s.order) - 1
	w := s.order[last]
	evicted = s.tags[w]
	s.tags[w], s.slots[w] = tag, e
	copy(s.order[1:], s.order[:last])
	s.order[0] = w
	return evicted
}

// mru returns the most-recently-used slot (what insert just installed).
func (s *set) mru() *Entry { return &s.slots[s.order[0]] }

// array is one set-associative translation array with per-page-size
// population counters: pop[s] is the number of valid entries of size s
// currently resident. A zero counter lets Lookup/InvalidatePage skip the
// associative probe for that size class entirely — the common single-size
// process pays one probe per lookup instead of one per (size, level).
// Skipped probes would have missed anyway, so hit/miss counters and LRU
// state are bit-identical to the always-probe behaviour. The sets' tags,
// slots and order slices are windows onto three backing arrays.
type array struct {
	sets  []set
	mask  uint64
	pop   [3]uint32
	tags  []uint64
	slots []Entry
	order []uint8
}

// MaxWays is the widest set New accepts: recency is a uint8
// permutation of the ways.
const MaxWays = 256

func newArray(entries, ways int, name string) *array {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: %s: entries (%d) must be a positive multiple of ways (%d)", name, entries, ways))
	}
	if ways > MaxWays {
		panic(fmt.Sprintf("tlb: %s: ways (%d) above %d", name, ways, MaxWays))
	}
	n := entries / ways
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("tlb: %s: set count %d must be a power of two", name, n))
	}
	a := &array{
		sets:  make([]set, n),
		mask:  uint64(n - 1),
		tags:  make([]uint64, entries),
		slots: make([]Entry, entries),
		order: make([]uint8, entries),
	}
	for i := range a.sets {
		lo, hi := i*ways, (i+1)*ways
		a.sets[i] = set{tags: a.tags[lo:hi:hi], slots: a.slots[lo:hi:hi], order: a.order[lo:hi:hi]}
	}
	a.resetOrder()
	return a
}

// resetOrder restores every set's identity recency permutation.
func (a *array) resetOrder() {
	for i := range a.sets {
		for w := range a.sets[i].order {
			a.sets[i].order[w] = uint8(w)
		}
	}
}

func (a *array) set(vpn uint64) *set { return &a.sets[vpn&a.mask] }

// insert installs e into the right set, replacing an existing mapping of
// the same VPN/size or evicting the LRU way, and maintains the
// population counters.
func (a *array) insert(e Entry) {
	s := a.set(e.VPN)
	tag := tagOf(e.VPN, e.Size)
	if w := s.lookup(tag); w >= 0 {
		s.slots[w] = e
		return
	}
	a.fill(s, tag, e)
}

// insertFresh is insert for translations known to be absent (the hardware
// fill path after a definitive lookup miss): it skips the same-key scan
// and goes straight to LRU eviction. Behaviour is identical to insert for
// absent keys.
func (a *array) insertFresh(e Entry) {
	a.fill(a.set(e.VPN), tagOf(e.VPN, e.Size), e)
}

func (a *array) fill(s *set, tag uint64, e Entry) {
	if evicted := s.fill(tag, e); evicted != 0 {
		a.pop[sizeOfTag(evicted)]--
	}
	a.pop[e.Size]++
}

// invalidate removes a (vpn, size) translation if present.
func (a *array) invalidate(vpn uint64, size pt.PageSize) {
	if a.pop[size] == 0 {
		return
	}
	s := a.set(vpn)
	if w := s.scan(tagOf(vpn, size)); w >= 0 {
		s.tags[w] = 0
		a.pop[size]--
	}
}

// flush empties every way; recency order is kept.
func (a *array) flush() {
	clear(a.tags)
	a.pop = [3]uint32{}
}

// reset restores the array to its just-built state: empty slots, identity
// recency permutation, zero population.
func (a *array) reset() {
	clear(a.tags)
	clear(a.slots)
	a.resetOrder()
	a.pop = [3]uint32{}
}

// TLB is a per-core two-level TLB.
type TLB struct {
	l1x4k *array
	l1x2m *array
	l2    *array
	// Stats accumulates lookup/miss counters; reset with ResetStats.
	Stats Stats
}

// New builds a TLB from cfg. L2Entries == 0 builds a TLB without a
// second level (the Victima-style backends replace it with LLC-resident
// software blocks): lookups probe only the L1 arrays and fills stop
// there; with an L2 present, behaviour is bit-identical to the
// always-three-array layout.
func New(cfg Config) *TLB {
	t := &TLB{
		l1x4k: newArray(cfg.L1Entries4K, cfg.L1Ways4K, "L1-4K"),
		l1x2m: newArray(cfg.L1Entries2M, cfg.L1Ways2M, "L1-2M"),
	}
	if cfg.L2Entries != 0 {
		t.l2 = newArray(cfg.L2Entries, cfg.L2Ways, "L2")
	}
	return t
}

// Lookup searches for a translation of va at any page size. On an L2 hit
// the entry is promoted into the matching L1 array. Size classes with no
// resident entries (per-array population counters) are skipped without a
// probe; a skipped probe would have missed, so the result and every
// counter are identical to probing all six arrays.
//
// The returned pointer aliases the MRU slot of the entry's L1 set (nil on
// Miss); it is valid until the next TLB operation. Returning a pointer
// keeps the per-op fast path free of Entry copies.
func (t *TLB) Lookup(va pt.VirtAddr) (*Entry, HitLevel) {
	t.Stats.Lookups++
	vpn4k := uint64(va) >> pt.PageShift4K

	if t.l1x4k.pop[pt.Size4K] != 0 {
		s := t.l1x4k.set(vpn4k)
		if w := s.lookup(tagOf(vpn4k, pt.Size4K)); w >= 0 {
			return &s.slots[w], HitL1
		}
	}
	// 1GB mappings share the 2MB arrays but keep their own VPN granularity
	// and Size, so Entry.Frame composes the in-page offset with a 1GB mask.
	if t.l1x2m.pop[pt.Size2M] != 0 {
		vpn2m := uint64(va) >> 21
		s := t.l1x2m.set(vpn2m)
		if w := s.lookup(tagOf(vpn2m, pt.Size2M)); w >= 0 {
			return &s.slots[w], HitL1
		}
	}
	if t.l1x2m.pop[pt.Size1G] != 0 {
		vpn1g := uint64(va) >> 30
		s := t.l1x2m.set(vpn1g)
		if w := s.lookup(tagOf(vpn1g, pt.Size1G)); w >= 0 {
			return &s.slots[w], HitL1
		}
	}
	if t.l2 == nil {
		t.Stats.Misses++
		return nil, Miss
	}
	if t.l2.pop[pt.Size4K] != 0 {
		s := t.l2.set(vpn4k)
		if w := s.lookup(tagOf(vpn4k, pt.Size4K)); w >= 0 {
			t.l1x4k.insert(s.slots[w])
			return t.l1x4k.set(vpn4k).mru(), HitL2
		}
	}
	if t.l2.pop[pt.Size2M] != 0 {
		vpn2m := uint64(va) >> 21
		s := t.l2.set(vpn2m)
		if w := s.lookup(tagOf(vpn2m, pt.Size2M)); w >= 0 {
			t.l1x2m.insert(s.slots[w])
			return t.l1x2m.set(vpn2m).mru(), HitL2
		}
	}
	if t.l2.pop[pt.Size1G] != 0 {
		vpn1g := uint64(va) >> 30
		s := t.l2.set(vpn1g)
		if w := s.lookup(tagOf(vpn1g, pt.Size1G)); w >= 0 {
			t.l1x2m.insert(s.slots[w])
			return t.l1x2m.set(vpn1g).mru(), HitL2
		}
	}
	t.Stats.Misses++
	return nil, Miss
}

// Insert installs a translation (after a page walk) into both levels.
// 1GB mappings share the 2MB arrays (the evaluation machine has very few
// dedicated 1GB entries, §7.3) but are stored at 1GB granularity: VPN and
// Size stay 1GB so Frame and InvalidatePage cover the whole mapping.
// The cached Node is unknown; use InsertMapped when the inserter knows it.
func (t *TLB) Insert(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
	t.InsertMapped(va, leaf, size, numa.InvalidNode)
}

// InsertMapped is Insert with the mapping's NUMA node cached in the entry
// (numa.InvalidNode when the mapping spans nodes). It is the hardware fill
// path: the caller must have just observed Lookup miss for va (as the
// walker does), so the translation is known absent and the same-key scan
// is skipped.
func (t *TLB) InsertMapped(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize, node numa.NodeID) {
	vpn := uint64(va) >> uint(shiftOf(size))
	e := Entry{VPN: vpn, Leaf: leaf, Size: size, Node: node}
	if size == pt.Size4K {
		t.l1x4k.insertFresh(e)
	} else {
		t.l1x2m.insertFresh(e)
	}
	if t.l2 != nil {
		t.l2.insertFresh(e)
	}
}

// InvalidatePage removes any translation covering va (all page sizes) —
// the core's response to a TLB shootdown for one page.
func (t *TLB) InvalidatePage(va pt.VirtAddr) {
	vpn4k := uint64(va) >> pt.PageShift4K
	vpn2m := uint64(va) >> 21
	vpn1g := uint64(va) >> 30
	t.l1x4k.invalidate(vpn4k, pt.Size4K)
	t.l1x2m.invalidate(vpn2m, pt.Size2M)
	t.l1x2m.invalidate(vpn1g, pt.Size1G)
	if t.l2 != nil {
		t.l2.invalidate(vpn4k, pt.Size4K)
		t.l2.invalidate(vpn2m, pt.Size2M)
		t.l2.invalidate(vpn1g, pt.Size1G)
	}
}

// Flush empties the whole TLB (context switch without ASIDs, or a global
// shootdown).
func (t *TLB) Flush() {
	t.l1x4k.flush()
	t.l1x2m.flush()
	if t.l2 != nil {
		t.l2.flush()
	}
}

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.Stats = Stats{} }

// Reset restores the TLB to its just-built state: all arrays empty, LRU
// permutations back to identity, counters zeroed. Unlike Flush it also
// forgets recency — it is the reuse path for recycling a machine between
// independent runs, and a reset TLB must be indistinguishable from a
// freshly constructed one.
func (t *TLB) Reset() {
	t.l1x4k.reset()
	t.l1x2m.reset()
	if t.l2 != nil {
		t.l2.reset()
	}
	t.Stats = Stats{}
}

func shiftOf(size pt.PageSize) int {
	switch size {
	case pt.Size4K:
		return 12
	case pt.Size2M:
		return 21
	default:
		return 30
	}
}
