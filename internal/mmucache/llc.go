package mmucache

import (
	"fmt"
	"sync"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
)

// LineID identifies one 64-byte page-table cache line: 8 consecutive PTEs.
type LineID uint64

// LineOf returns the cache line holding entry (frame, index).
func LineOf(frame mem.FrameID, index int) LineID {
	return LineID(uint64(frame)<<6 | uint64(index>>3))
}

// LLCConfig sizes the per-socket page-table line cache.
type LLCConfig struct {
	// Lines is the total capacity in 64-byte lines.
	Lines int
	// Ways is the associativity.
	Ways int
}

// DefaultLLCConfig returns the scaled LLC: 64 lines (4KB of page-table
// entries). The paper machine has a 35MB LLC against 512GB footprints, but
// page-table lines compete with the full data stream for residency; the
// simulator preserves the *effective* page-table residency ratio rather
// than the absolute size, so that 4KB leaf tables and multi-gigabyte
// workloads' 2MB leaf tables thrash the cache while a small single-socket
// workload's 2MB leaf tables fit — the regime split behind Figure 10b
// (GUPS 1.00x vs Redis 1.70x). See EXPERIMENTS.md for the calibration.
func DefaultLLCConfig() LLCConfig {
	return LLCConfig{Lines: 64, Ways: 8}
}

// llcSet is one set: the ways' line IDs packed side by side, a valid
// mask, and the recency permutation. Validity cannot ride in the line ID
// the way the TLB's and PSC's tags carry it: every 64-bit value is a
// possible line (Victima's block lines set bit 63, and frame 0 is
// allocatable, so LineOf(0, 0) is 0).
type llcSet struct {
	lines []LineID
	order []uint8 // recency permutation: order[0] is the MRU way
	valid uint64  // bit w set while way w holds a line
}

// find returns the way holding id, or -1. It checks the MRU way first,
// then the line IDs in way order: a line is resident in at most one way
// of its set, so the first match in way order is the one a scan in
// recency order finds.
func (s *llcSet) find(id LineID) int {
	if w := int(s.order[0]); s.lines[w] == id && s.valid&bit(w) != 0 {
		return w
	}
	for w, line := range s.lines {
		if line == id && s.valid&bit(w) != 0 {
			return w
		}
	}
	return -1
}

// bit is way w's valid-mask bit (w < 64).
func bit(w int) uint64 { return 1 << (w & 63) }

// LLC models one socket's last-level cache for page-table lines, with
// set-associative LRU and cross-socket write invalidation: when a page
// walker on another socket updates Accessed/Dirty bits in a line, cached
// copies elsewhere are invalidated (MESI ownership transfer). This
// coherence traffic is what keeps multi-socket workloads missing the LLC on
// page walks even when the table would fit. Each set packs its line IDs
// next to a valid mask (at most 64 ways), and the cache counts its
// resident lines, so an invalidation aimed at an empty cache returns at
// once.
type LLC struct {
	// mu guards sets and resident: an LLC is shared by every core of its
	// socket, and remote sockets' write walks invalidate lines in it.
	mu   sync.Mutex
	sets []llcSet
	mask uint64
	// resident counts the valid lines across all sets.
	resident int
}

// maxLLCWays is the widest set a uint64 valid mask holds.
const maxLLCWays = 64

// NewLLC builds a cache from cfg. It panics on bad geometry, including
// sets wider than the 64 ways a set's valid mask holds.
func NewLLC(cfg LLCConfig) *LLC {
	if cfg.Lines <= 0 || cfg.Ways <= 0 || cfg.Lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("mmucache: LLC lines (%d) must be a positive multiple of ways (%d)", cfg.Lines, cfg.Ways))
	}
	if cfg.Ways > maxLLCWays {
		panic(fmt.Sprintf("mmucache: LLC ways (%d) above %d", cfg.Ways, maxLLCWays))
	}
	n := cfg.Lines / cfg.Ways
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("mmucache: LLC set count %d must be a power of two", n))
	}
	l := &LLC{sets: make([]llcSet, n), mask: uint64(n - 1)}
	lines, order := make([]LineID, cfg.Lines), make([]uint8, cfg.Lines)
	for i := range l.sets {
		lo, hi := i*cfg.Ways, (i+1)*cfg.Ways
		l.sets[i].lines, l.sets[i].order = lines[lo:hi:hi], order[lo:hi:hi]
		identity(l.sets[i].order)
	}
	return l
}

func (l *LLC) set(id LineID) *llcSet { return &l.sets[uint64(id)&l.mask] }

// fill installs id in the set's LRU way, which becomes the MRU.
func (l *LLC) fill(s *llcSet, id LineID) {
	w := int(evict(s.order))
	if s.valid&bit(w) == 0 {
		s.valid |= bit(w)
		l.resident++
	}
	s.lines[w] = id
}

// Resident returns the number of lines the cache holds; the coherence
// barrier skips a cache that holds none. Read it only at quiescent points
// or under the single-writer discipline.
func (l *LLC) Resident() int { return l.resident }

// Access looks up line id, inserting it on a miss. It returns true on hit.
// This locked path supports arbitrary cross-goroutine interleavings, for
// callers that drive cores outside the single-writer bracket (in this
// module, only tests). The explicit unlocks keep this walk-path hot spot
// free of defer overhead.
func (l *LLC) Access(id LineID) bool {
	l.mu.Lock()
	hit := l.access(id)
	l.mu.Unlock()
	return hit
}

// AccessOwned is Access without the mutex, for callers running the
// round-based engine's single-writer discipline: all of this socket's
// cores are driven by one goroutine at a time, and cross-socket
// invalidations (Invalidate) are applied only at quiescent round barriers
// — so during compute the cache is goroutine-private and the lock would
// serialize nothing. See DESIGN.md, "Host performance & the single-writer
// LLC".
func (l *LLC) AccessOwned(id LineID) bool { return l.access(id) }

func (l *LLC) access(id LineID) bool {
	s := l.set(id)
	if w := s.find(id); w >= 0 {
		promote(s.order, uint8(w))
		return true
	}
	l.fill(s, id)
	return false
}

// Probe looks up line id WITHOUT inserting on a miss: a hit touches LRU;
// a miss leaves the set untouched. The
// Victima-style backends use it to test whether a software-managed TLB
// block is still LLC-resident — a probe must not conjure up a line
// whose payload the prober does not have.
func (l *LLC) Probe(id LineID) bool {
	l.mu.Lock()
	hit := l.probe(id)
	l.mu.Unlock()
	return hit
}

// ProbeOwned is Probe without the mutex, under the single-writer
// discipline (see AccessOwned).
func (l *LLC) ProbeOwned(id LineID) bool { return l.probe(id) }

func (l *LLC) probe(id LineID) bool {
	s := l.set(id)
	if w := s.find(id); w >= 0 {
		promote(s.order, uint8(w))
		return true
	}
	return false
}

// Insert installs (or touches) line id: the fill half of a Probe/Insert
// pair.
func (l *LLC) Insert(id LineID) {
	l.mu.Lock()
	l.insert(id)
	l.mu.Unlock()
}

// InsertOwned is Insert without the mutex, under the single-writer
// discipline (see AccessOwned).
func (l *LLC) InsertOwned(id LineID) { l.insert(id) }

func (l *LLC) insert(id LineID) {
	s := l.set(id)
	if w := s.find(id); w >= 0 {
		promote(s.order, uint8(w))
		return
	}
	l.fill(s, id)
}

// Invalidate drops line id if present (a writer on another socket took
// ownership).
func (l *LLC) Invalidate(id LineID) {
	l.mu.Lock()
	l.invalidate(id)
	l.mu.Unlock()
}

// InvalidateOwned is Invalidate without the mutex, for round-barrier
// coherence application under the engine's single-writer discipline (the
// apply phase runs while no compute batch is in flight, and each LLC is
// touched by one goroutine).
func (l *LLC) InvalidateOwned(id LineID) { l.invalidate(id) }

func (l *LLC) invalidate(id LineID) {
	if l.resident == 0 {
		return
	}
	s := l.set(id)
	for w, line := range s.lines {
		if line == id && s.valid&bit(w) != 0 {
			s.valid &^= bit(w)
			l.resident--
			return
		}
	}
}

// Reset restores the LLC to its just-built state: lines invalidated, LRU
// permutations back to identity. Callers must be quiescent (no concurrent
// accesses); this is the reuse path for recycling a machine between
// independent runs.
func (l *LLC) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.sets {
		s := &l.sets[i]
		clear(s.lines)
		s.valid = 0
		identity(s.order)
	}
	l.resident = 0
}
