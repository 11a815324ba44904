package mmucache

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// The reference PSC and LLC below are the recency-order-scan layouts the
// packed tag words replaced: each way is a whole entry with its own valid
// flag, and every probe walks the recency permutation from MRU to LRU.
// They are kept, test-only, as the models the packed layouts must match
// bit for bit.

type refPSCEntry struct {
	tag   uint64
	child mem.FrameID
	valid bool
}

type refPSC struct {
	levels [pt.MaxLevels + 1][]refPSCEntry
	order  [pt.MaxLevels + 1][]uint8
}

func newRefPSC(cfg PSCConfig) *refPSC {
	p := &refPSC{}
	for l := 2; l <= pt.MaxLevels; l++ {
		if n := cfg.EntriesPerLevel[l]; n > 0 {
			p.levels[l] = make([]refPSCEntry, n)
			p.order[l] = make([]uint8, n)
			for w := range p.order[l] {
				p.order[l][w] = uint8(w)
			}
		}
	}
	return p
}

func refTouch(order []uint8, oi int) {
	if oi == 0 {
		return
	}
	idx := order[oi]
	copy(order[1:oi+1], order[:oi])
	order[0] = idx
}

func refTagOf(va pt.VirtAddr, level uint8) uint64 {
	shift := uint(pt.PageShift4K + pt.EntryBits*(int(level)-1))
	return uint64(va) >> shift
}

func (p *refPSC) Lookup(va pt.VirtAddr, startLevel uint8) (uint8, mem.FrameID, bool) {
	for l := uint8(2); l <= startLevel; l++ {
		arr := p.levels[l]
		if arr == nil {
			continue
		}
		tag := refTagOf(va, l)
		for oi, idx := range p.order[l] {
			if e := &arr[idx]; e.valid && e.tag == tag {
				child := e.child
				refTouch(p.order[l], oi)
				return l - 1, child, true
			}
		}
	}
	return 0, mem.NilFrame, false
}

func (p *refPSC) Insert(va pt.VirtAddr, level uint8, child mem.FrameID) {
	arr := p.levels[level]
	if arr == nil {
		return
	}
	tag := refTagOf(va, level)
	order := p.order[level]
	for oi, idx := range order {
		if e := &arr[idx]; e.valid && e.tag == tag {
			e.child = child
			refTouch(order, oi)
			return
		}
	}
	last := len(order) - 1
	arr[order[last]] = refPSCEntry{tag: tag, child: child, valid: true}
	refTouch(order, last)
}

func (p *refPSC) InsertFresh(va pt.VirtAddr, level uint8, child mem.FrameID) {
	arr := p.levels[level]
	if arr == nil {
		return
	}
	order := p.order[level]
	last := len(order) - 1
	arr[order[last]] = refPSCEntry{tag: refTagOf(va, level), child: child, valid: true}
	refTouch(order, last)
}

func (p *refPSC) Flush() {
	for l := range p.levels {
		for i := range p.levels[l] {
			p.levels[l][i] = refPSCEntry{}
		}
	}
}

func (p *refPSC) Reset() {
	p.Flush()
	for l := range p.order {
		for w := range p.order[l] {
			p.order[l][w] = uint8(w)
		}
	}
}

// samePSC reports the first difference between a PSC and its reference:
// each row's recency permutation and every valid way.
func samePSC(p *PSC, r *refPSC) error {
	for l := range r.levels {
		row := &p.rows[l]
		if string(row.order) != string(r.order[l]) {
			return fmt.Errorf("level %d: recency %v, reference %v", l, row.order, r.order[l])
		}
		if len(row.tags) != len(r.levels[l]) {
			return fmt.Errorf("level %d: %d ways, reference %d", l, len(row.tags), len(r.levels[l]))
		}
		for w, re := range r.levels[l] {
			if valid := row.tags[w] != 0; valid != re.valid {
				return fmt.Errorf("level %d way %d: valid %v, reference %v", l, w, valid, re.valid)
			}
			if re.valid && (row.tags[w] != re.tag|validTag || row.child[w] != re.child) {
				return fmt.Errorf("level %d way %d: tag %#x child %d, reference %+v", l, w, row.tags[w], row.child[w], re)
			}
		}
	}
	return nil
}

// refPSCVA draws a VA from a few 1 GB windows, low and at the top of the
// 64-bit space, so PDE/PDPTE prefixes recur and rows evict.
func refPSCVA(r *rand.Rand) pt.VirtAddr {
	bases := [...]uint64{0, 3 << 39, 1<<64 - 2<<39}
	return pt.VirtAddr(bases[r.Intn(len(bases))] + uint64(r.Intn(4))<<30 + uint64(r.Intn(24))<<21 + uint64(r.Intn(512))<<12)
}

// TestPSCMatchesReference drives the PSC and the recency-order-scan
// reference with one seeded random sequence — lookups from every start
// level, the walker's fresh re-cache of every level a miss descended,
// same-key and new-key Inserts at every row, flushes and resets — and
// compares every lookup's resume level, child and hit, and every row's
// recency order and valid ways after each step.
func TestPSCMatchesReference(t *testing.T) {
	small := PSCConfig{}
	small.EntriesPerLevel[2] = 4
	small.EntriesPerLevel[4] = 2 // level 3 has no row
	small.EntriesPerLevel[5] = 1
	configs := map[string]PSCConfig{"default": DefaultPSCConfig(), "small": small}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(19))
			p, ref := NewPSC(cfg), newRefPSC(cfg)
			for step := 0; step < 40000; step++ {
				va := refPSCVA(r)
				level := uint8(2 + r.Intn(pt.MaxLevels-1))
				child := mem.FrameID(r.Intn(1 << 20))
				var op string
				switch k := r.Intn(100); {
				case k < 50:
					// A walk: look up, then re-cache each level below
					// the resume point with a fresh insert.
					op = "walk"
					resume, c, ok := p.Lookup(va, level)
					rresume, rc, rok := ref.Lookup(va, level)
					if resume != rresume || c != rc || ok != rok {
						t.Fatalf("step %d: Lookup(%#x, %d) = (%d, %d, %v), reference (%d, %d, %v)",
							step, uint64(va), level, resume, c, ok, rresume, rc, rok)
					}
					if !ok {
						resume = level
					}
					for l := resume; l >= 2; l-- {
						p.InsertFresh(va, l, child+mem.FrameID(l))
						ref.InsertFresh(va, l, child+mem.FrameID(l))
					}
				case k < 90:
					op = "insert"
					p.Insert(va, level, child)
					ref.Insert(va, level, child)
				case k < 98:
					op = "flush"
					p.Flush()
					ref.Flush()
				default:
					op = "reset"
					p.Reset()
					ref.Reset()
				}
				if err := samePSC(p, ref); err != nil {
					t.Fatalf("step %d (%s %#x level %d): %v", step, op, uint64(va), level, err)
				}
			}
		})
	}
}

type refLLCSet struct {
	lines []LineID
	valid []bool
	order []uint8
}

// refLLC is the pre-packing LLC without its mutex: the reference for
// both the locked and the owned paths.
type refLLC struct {
	sets []refLLCSet
	mask uint64
}

func newRefLLC(cfg LLCConfig) *refLLC {
	n := cfg.Lines / cfg.Ways
	l := &refLLC{sets: make([]refLLCSet, n), mask: uint64(n - 1)}
	for i := range l.sets {
		l.sets[i].lines = make([]LineID, cfg.Ways)
		l.sets[i].valid = make([]bool, cfg.Ways)
		l.sets[i].order = make([]uint8, cfg.Ways)
		for w := range l.sets[i].order {
			l.sets[i].order[w] = uint8(w)
		}
	}
	return l
}

func (l *refLLC) set(id LineID) *refLLCSet { return &l.sets[uint64(id)&l.mask] }

func (l *refLLC) Access(id LineID) bool {
	s := l.set(id)
	for oi, idx := range s.order {
		if s.valid[idx] && s.lines[idx] == id {
			refTouch(s.order, oi)
			return true
		}
	}
	last := len(s.order) - 1
	idx := s.order[last]
	s.lines[idx], s.valid[idx] = id, true
	refTouch(s.order, last)
	return false
}

func (l *refLLC) Probe(id LineID) bool {
	s := l.set(id)
	for oi, idx := range s.order {
		if s.valid[idx] && s.lines[idx] == id {
			refTouch(s.order, oi)
			return true
		}
	}
	return false
}

func (l *refLLC) Insert(id LineID) {
	s := l.set(id)
	for oi, idx := range s.order {
		if s.valid[idx] && s.lines[idx] == id {
			refTouch(s.order, oi)
			return
		}
	}
	last := len(s.order) - 1
	idx := s.order[last]
	s.lines[idx], s.valid[idx] = id, true
	refTouch(s.order, last)
}

func (l *refLLC) Invalidate(id LineID) {
	s := l.set(id)
	for i := range s.lines {
		if s.valid[i] && s.lines[i] == id {
			s.valid[i] = false
			break
		}
	}
}

func (l *refLLC) Flush() {
	for i := range l.sets {
		for j := range l.sets[i].valid {
			l.sets[i].valid[j] = false
		}
	}
}

func (l *refLLC) Reset() {
	for i := range l.sets {
		s := &l.sets[i]
		for j := range s.valid {
			s.lines[j] = 0
			s.valid[j] = false
		}
		for w := range s.order {
			s.order[w] = uint8(w)
		}
	}
}

// sameLLC reports the first difference between an LLC and its reference:
// the resident-line count, each set's recency permutation, and every
// valid way.
func sameLLC(l *LLC, r *refLLC) error {
	resident := 0
	for i := range r.sets {
		s, rs := &l.sets[i], &r.sets[i]
		if string(s.order) != string(rs.order) {
			return fmt.Errorf("set %d: recency %v, reference %v", i, s.order, rs.order)
		}
		for w, rv := range rs.valid {
			if valid := s.valid&(1<<w) != 0; valid != rv {
				return fmt.Errorf("set %d way %d: valid %v, reference %v", i, w, valid, rv)
			}
			if rv {
				resident++
				if s.lines[w] != rs.lines[w] {
					return fmt.Errorf("set %d way %d: line %#x, reference %#x", i, w, s.lines[w], rs.lines[w])
				}
			}
		}
	}
	if l.Resident() != resident {
		return fmt.Errorf("Resident() = %d, reference holds %d lines", l.Resident(), resident)
	}
	return nil
}

// refLines is the line-ID pool the LLC test draws from: page-table lines
// (LineOf(0, 0) = 0 among them), Victima block lines with bit 63 set,
// and pairs of one of each that differ only in bit 63 and so share a set.
func refLines(r *rand.Rand) []LineID {
	const block = 1 << 63
	ids := []LineID{LineOf(0, 0), LineOf(0, 0) | block, LineOf(0, 511)}
	for len(ids) < 160 {
		id := LineOf(mem.FrameID(r.Intn(40)), r.Intn(512))
		switch r.Intn(4) {
		case 0:
			ids = append(ids, id|block)
		case 1:
			ids = append(ids, id, id|block)
		default:
			ids = append(ids, id)
		}
	}
	return ids
}

// TestLLCMatchesReference drives the LLC and the recency-order-scan
// reference with one seeded random sequence of Access, Probe, Insert and
// Invalidate, each on the locked or the owned path at random, with
// flushes and resets, and compares every access's and probe's hit, the
// resident count, every set's recency order and every valid way after
// each step.
func TestLLCMatchesReference(t *testing.T) {
	configs := map[string]LLCConfig{
		"default": DefaultLLCConfig(),
		"one-set": {Lines: 4, Ways: 4},
		"64-way":  {Lines: 128, Ways: 64},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(19))
			ids := refLines(r)
			l, ref := NewLLC(cfg), newRefLLC(cfg)
			for step := 0; step < 60000; step++ {
				id := ids[r.Intn(len(ids))]
				owned := r.Intn(2) == 0
				var op string
				switch k := r.Intn(100); {
				case k < 40:
					op = "access"
					var hit bool
					if owned {
						hit = l.AccessOwned(id)
					} else {
						hit = l.Access(id)
					}
					if rhit := ref.Access(id); hit != rhit {
						t.Fatalf("step %d: Access(%#x) = %v, reference %v", step, id, hit, rhit)
					}
				case k < 60:
					op = "probe"
					var hit bool
					if owned {
						hit = l.ProbeOwned(id)
					} else {
						hit = l.Probe(id)
					}
					if rhit := ref.Probe(id); hit != rhit {
						t.Fatalf("step %d: Probe(%#x) = %v, reference %v", step, id, hit, rhit)
					}
				case k < 75:
					op = "insert"
					if owned {
						l.InsertOwned(id)
					} else {
						l.Insert(id)
					}
					ref.Insert(id)
				case k < 99:
					op = "invalidate"
					if owned {
						l.InvalidateOwned(id)
					} else {
						l.Invalidate(id)
					}
					ref.Invalidate(id)
				default:
					if r.Intn(4) == 0 {
						op = "reset"
						l.Reset()
						ref.Reset()
					} else {
						op = "flush"
						l.Flush()
						ref.Flush()
					}
				}
				if err := sameLLC(l, ref); err != nil {
					t.Fatalf("step %d (%s %#x, owned %v): %v", step, op, id, owned, err)
				}
			}
		})
	}
}
