package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// The reference TLB below is the recency-order-scan layout the packed
// tag words replaced: each way is a whole entry with its own valid flag,
// and every probe walks the recency permutation from MRU to LRU. It is
// kept, test-only, as the model the packed layout must match bit for bit.

type refEntry struct {
	VPN   uint64
	Leaf  pt.PTE
	Size  pt.PageSize
	Node  numa.NodeID
	valid bool
}

type refSet struct {
	slots []refEntry
	order []uint8
}

func (s *refSet) touch(oi int) {
	if oi == 0 {
		return
	}
	idx := s.order[oi]
	copy(s.order[1:oi+1], s.order[:oi])
	s.order[0] = idx
}

func (s *refSet) lookup(vpn uint64, size pt.PageSize) (*refEntry, bool) {
	for oi, idx := range s.order {
		e := &s.slots[idx]
		if e.valid && e.VPN == vpn && e.Size == size {
			s.touch(oi)
			return e, true
		}
	}
	return nil, false
}

func (s *refSet) insert(e refEntry) (evicted refEntry, replaced bool) {
	for oi, idx := range s.order {
		se := &s.slots[idx]
		if se.valid && se.VPN == e.VPN && se.Size == e.Size {
			*se = e
			s.touch(oi)
			return refEntry{}, true
		}
	}
	last := len(s.order) - 1
	idx := s.order[last]
	evicted = s.slots[idx]
	s.slots[idx] = e
	s.touch(last)
	return evicted, false
}

func (s *refSet) invalidate(vpn uint64, size pt.PageSize) bool {
	for i := range s.slots {
		if s.slots[i].valid && s.slots[i].VPN == vpn && s.slots[i].Size == size {
			s.slots[i] = refEntry{}
			return true
		}
	}
	return false
}

func (s *refSet) mru() *refEntry { return &s.slots[s.order[0]] }

type refArray struct {
	sets []refSet
	mask uint64
	pop  [3]uint32
}

func newRefArray(entries, ways int) *refArray {
	n := entries / ways
	a := &refArray{sets: make([]refSet, n), mask: uint64(n - 1)}
	for i := range a.sets {
		a.sets[i].slots = make([]refEntry, ways)
		a.sets[i].order = make([]uint8, ways)
		for w := range a.sets[i].order {
			a.sets[i].order[w] = uint8(w)
		}
	}
	return a
}

func (a *refArray) set(vpn uint64) *refSet { return &a.sets[vpn&a.mask] }

func (a *refArray) insert(e refEntry) {
	evicted, replaced := a.set(e.VPN).insert(e)
	if replaced {
		return
	}
	if evicted.valid {
		a.pop[evicted.Size]--
	}
	a.pop[e.Size]++
}

func (a *refArray) insertFresh(e refEntry) {
	s := a.set(e.VPN)
	last := len(s.order) - 1
	idx := s.order[last]
	if s.slots[idx].valid {
		a.pop[s.slots[idx].Size]--
	}
	s.slots[idx] = e
	s.touch(last)
	a.pop[e.Size]++
}

func (a *refArray) invalidate(vpn uint64, size pt.PageSize) {
	if a.pop[size] != 0 && a.set(vpn).invalidate(vpn, size) {
		a.pop[size]--
	}
}

func (a *refArray) flush() {
	for i := range a.sets {
		for j := range a.sets[i].slots {
			a.sets[i].slots[j] = refEntry{}
		}
	}
	a.pop = [3]uint32{}
}

func (a *refArray) reset() {
	a.flush()
	for i := range a.sets {
		for w := range a.sets[i].order {
			a.sets[i].order[w] = uint8(w)
		}
	}
}

type refTLB struct {
	l1x4k, l1x2m, l2 *refArray
	Stats            Stats
}

func newRefTLB(cfg Config) *refTLB {
	t := &refTLB{
		l1x4k: newRefArray(cfg.L1Entries4K, cfg.L1Ways4K),
		l1x2m: newRefArray(cfg.L1Entries2M, cfg.L1Ways2M),
	}
	if cfg.L2Entries != 0 {
		t.l2 = newRefArray(cfg.L2Entries, cfg.L2Ways)
	}
	return t
}

func (t *refTLB) Lookup(va pt.VirtAddr) (*refEntry, HitLevel) {
	t.Stats.Lookups++
	vpn4k := uint64(va) >> pt.PageShift4K

	if t.l1x4k.pop[pt.Size4K] != 0 {
		if e, ok := t.l1x4k.set(vpn4k).lookup(vpn4k, pt.Size4K); ok {
			return e, HitL1
		}
	}
	if t.l1x2m.pop[pt.Size2M] != 0 {
		vpn2m := uint64(va) >> 21
		if e, ok := t.l1x2m.set(vpn2m).lookup(vpn2m, pt.Size2M); ok {
			return e, HitL1
		}
	}
	if t.l1x2m.pop[pt.Size1G] != 0 {
		vpn1g := uint64(va) >> 30
		if e, ok := t.l1x2m.set(vpn1g).lookup(vpn1g, pt.Size1G); ok {
			return e, HitL1
		}
	}
	if t.l2 == nil {
		t.Stats.Misses++
		return nil, Miss
	}
	if t.l2.pop[pt.Size4K] != 0 {
		if e, ok := t.l2.set(vpn4k).lookup(vpn4k, pt.Size4K); ok {
			hit := *e
			t.l1x4k.insert(hit)
			return t.l1x4k.set(vpn4k).mru(), HitL2
		}
	}
	if t.l2.pop[pt.Size2M] != 0 {
		vpn2m := uint64(va) >> 21
		if e, ok := t.l2.set(vpn2m).lookup(vpn2m, pt.Size2M); ok {
			hit := *e
			t.l1x2m.insert(hit)
			return t.l1x2m.set(vpn2m).mru(), HitL2
		}
	}
	if t.l2.pop[pt.Size1G] != 0 {
		vpn1g := uint64(va) >> 30
		if e, ok := t.l2.set(vpn1g).lookup(vpn1g, pt.Size1G); ok {
			hit := *e
			t.l1x2m.insert(hit)
			return t.l1x2m.set(vpn1g).mru(), HitL2
		}
	}
	t.Stats.Misses++
	return nil, Miss
}

func (t *refTLB) InsertMapped(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize, node numa.NodeID) {
	vpn := uint64(va) >> uint(shiftOf(size))
	e := refEntry{VPN: vpn, Leaf: leaf, Size: size, Node: node, valid: true}
	if size == pt.Size4K {
		t.l1x4k.insertFresh(e)
	} else {
		t.l1x2m.insertFresh(e)
	}
	if t.l2 != nil {
		t.l2.insertFresh(e)
	}
}

func (t *refTLB) InvalidatePage(va pt.VirtAddr) {
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

func (t *refTLB) Flush() {
	t.l1x4k.flush()
	t.l1x2m.flush()
	if t.l2 != nil {
		t.l2.flush()
	}
}

func (t *refTLB) Reset() {
	t.l1x4k.reset()
	t.l1x2m.reset()
	if t.l2 != nil {
		t.l2.reset()
	}
	t.Stats = Stats{}
}

// sameArray reports the first difference between an array and its
// reference: population counters, each set's recency permutation, and
// the key and payload of every valid way.
func sameArray(a *array, r *refArray) error {
	if a.pop != r.pop {
		return fmt.Errorf("pop %v, reference %v", a.pop, r.pop)
	}
	for i := range a.sets {
		s, rs := &a.sets[i], &r.sets[i]
		if string(s.order) != string(rs.order) {
			return fmt.Errorf("set %d: recency %v, reference %v", i, s.order, rs.order)
		}
		for w := range s.tags {
			re := rs.slots[w]
			if valid := s.tags[w] != 0; valid != re.valid {
				return fmt.Errorf("set %d way %d: valid %v, reference %v", i, w, valid, re.valid)
			}
			if !re.valid {
				continue
			}
			if s.tags[w] != tagOf(re.VPN, re.Size) {
				return fmt.Errorf("set %d way %d: tag %#x, reference %+v", i, w, s.tags[w], re)
			}
			if e := s.slots[w]; e != asEntry(&re) {
				return fmt.Errorf("set %d way %d: %+v, reference %+v", i, w, e, re)
			}
		}
	}
	return nil
}

func asEntry(e *refEntry) Entry {
	return Entry{VPN: e.VPN, Leaf: e.Leaf, Size: e.Size, Node: e.Node}
}

func sameTLB(t *TLB, r *refTLB) error {
	if t.Stats != r.Stats {
		return fmt.Errorf("stats %+v, reference %+v", t.Stats, r.Stats)
	}
	if err := sameArray(t.l1x4k, r.l1x4k); err != nil {
		return fmt.Errorf("L1-4K: %w", err)
	}
	if err := sameArray(t.l1x2m, r.l1x2m); err != nil {
		return fmt.Errorf("L1-2M: %w", err)
	}
	if (t.l2 == nil) != (r.l2 == nil) {
		return fmt.Errorf("L2 present %v, reference %v", t.l2 != nil, r.l2 != nil)
	}
	if t.l2 != nil {
		if err := sameArray(t.l2, r.l2); err != nil {
			return fmt.Errorf("L2: %w", err)
		}
	}
	return nil
}

// refVA draws a VA from a few small windows — low memory, a 1 GB-aligned
// window, and the top of the 64-bit space — so keys collide in sets,
// recur often enough to hit, and use every bit a VPN can have.
func refVA(r *rand.Rand) pt.VirtAddr {
	bases := [...]uint64{0, 5 << 30, 1<<64 - 4<<30}
	base := bases[r.Intn(len(bases))]
	switch r.Intn(3) {
	case 0: // one of 96 4 KB pages
		return pt.VirtAddr(base + uint64(r.Intn(96))<<12)
	case 1: // anywhere in 24 2 MB pages
		return pt.VirtAddr(base + uint64(r.Intn(24))<<21 + uint64(r.Intn(512))<<12)
	default: // anywhere in 3 1 GB pages
		return pt.VirtAddr(base + uint64(r.Intn(3))<<30 + uint64(r.Intn(1<<18))<<12)
	}
}

// TestTLBMatchesReference drives the TLB and the recency-order-scan
// reference with one seeded random sequence — lookups (with L2→L1
// promotion), fresh fills after a miss, same-key and new-key inserts at
// the array level, page invalidations, flushes and resets, at all three
// page sizes — and compares every lookup's hit level and entry, the
// lookup and miss counters, every set's recency order and every valid way
// after each step.
func TestTLBMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"small":   testConfig(),
		"default": DefaultConfig(),
		"no-l2":   {L1Entries4K: 16, L1Ways4K: 4, L1Entries2M: 8, L1Ways2M: 4},
		"one-set": {L1Entries4K: 8, L1Ways4K: 8, L1Entries2M: 4, L1Ways2M: 4, L2Entries: 16, L2Ways: 16},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(19))
			tl, ref := New(cfg), newRefTLB(cfg)
			for step := 0; step < 40000; step++ {
				va := refVA(r)
				var op string
				switch k := r.Intn(100); {
				case k < 45:
					op = "lookup"
					e, hit := tl.Lookup(va)
					re, rhit := ref.Lookup(va)
					if hit != rhit {
						t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, uint64(va), hit, rhit)
					}
					if hit != Miss && *e != asEntry(re) {
						t.Fatalf("step %d: Lookup(%#x) entry %+v, reference %+v", step, uint64(va), *e, *re)
					}
				case k < 75:
					// The hardware fill: a fresh insert follows a miss.
					op = "fill"
					_, hit := tl.Lookup(va)
					if _, rhit := ref.Lookup(va); hit != rhit {
						t.Fatalf("step %d: pre-fill Lookup(%#x) = %v, reference %v", step, uint64(va), hit, rhit)
					}
					if hit == Miss {
						size := pt.PageSize(r.Intn(3))
						leaf := pt.NewPTE(mem.FrameID(r.Intn(1<<20)), pt.FlagPresent)
						node := numa.NodeID(r.Intn(3) - 1)
						tl.InsertMapped(va, leaf, size, node)
						ref.InsertMapped(va, leaf, size, node)
					}
				case k < 85:
					// A same-key or new-key insert straight into one
					// array: the path L2→L1 promotion takes.
					op = "insert"
					size := pt.PageSize(r.Intn(3))
					e := Entry{VPN: uint64(va) >> uint(shiftOf(size)), Leaf: pt.NewPTE(mem.FrameID(r.Intn(1<<20)), 0), Size: size, Node: 1}
					re := refEntry{VPN: e.VPN, Leaf: e.Leaf, Size: e.Size, Node: e.Node, valid: true}
					a, ra := tl.l1x4k, ref.l1x4k
					switch {
					case tl.l2 != nil && r.Intn(2) == 0:
						a, ra = tl.l2, ref.l2
					case size != pt.Size4K:
						a, ra = tl.l1x2m, ref.l1x2m
					}
					a.insert(e)
					ra.insert(re)
				case k < 97:
					op = "invalidate"
					tl.InvalidatePage(va)
					ref.InvalidatePage(va)
				case k < 99:
					op = "flush"
					tl.Flush()
					ref.Flush()
				default:
					op = "reset"
					tl.Reset()
					ref.Reset()
				}
				if err := sameTLB(tl, ref); err != nil {
					t.Fatalf("step %d (%s %#x): %v", step, op, uint64(va), err)
				}
			}
		})
	}
}
