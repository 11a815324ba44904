package tier

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// TrackerConfig tunes hotness classification.
type TrackerConfig struct {
	// HotThreshold is the decayed score at or above which a page counts as
	// hot. Default 8.
	HotThreshold uint64
	// ColdTicks is the number of consecutive unsampled ticks after which a
	// page counts as cold (a demotion candidate). Default 4.
	ColdTicks int
}

func (c TrackerConfig) withDefaults() TrackerConfig {
	if c.HotThreshold == 0 {
		c.HotThreshold = 8
	}
	if c.ColdTicks <= 0 {
		c.ColdTicks = 4
	}
	return c
}

// Class is the tracker's classification of a mapped page.
type Class uint8

const (
	// Hot pages have a decayed score of at least HotThreshold.
	Hot Class = iota
	// Cold pages are not hot and have gone ColdTicks or more ticks
	// without a sample.
	Cold
	// Warm pages are neither; they neither promote nor demote, and Scan
	// does not index them.
	Warm
)

// NodeMask is a set of memory nodes: bit n stands for node n.
type NodeMask uint64

// pageState is one page's decayed access history and, while the page is
// mapped, its placement and the class the tracker counts it under.
type pageState struct {
	// score and idle are the decayed score and the unsampled-tick streak
	// as of tick seen; the ticks since then were unsampled.
	score uint64
	// frame is the engine's handle of the frame behind the page's leaf,
	// which Tick hands back to read.
	frame uint64
	idle  uint32
	seen  uint32
	// wake is the tick of the page's pending wheel entry, 0 for none.
	wake  uint32
	node  uint8
	size  uint8
	class Class
	flags uint8
}

// pageState flags.
const (
	mapped  uint8 = 1 << iota // the page has a leaf
	sampled                   // the page is on the sampled list
)

// blockPages is the number of 4KB pages a tracker block covers: one 2MB
// region (blockBytes).
const (
	blockPages = 1 << pt.EntryBits
	blockBytes = blockPages << pt.PageShift4K
)

// bitset marks pages of a block, a bit per page.
type bitset [blockPages / 64]uint64

// pageRef is a page by its block's id and its index in the block, so the
// lists Tick works through are compact and need no block lookup.
type pageRef uint32

// block holds the states of the 4KB pages of one 2MB region, indexed by
// page, and the region's class index: members[c*nodes+n] marks its pages
// mapped on node n in class c (Hot or Cold). A page never observed holds
// the zero state.
type block struct {
	base    pt.VirtAddr
	id      uint32 // the block's index in Tracker.all
	pages   [blockPages]pageState
	members []bitset
}

// wheelTicks is the timing wheel's horizon: a page whose class would
// change further ahead is looked at again after wheelTicks-1 ticks.
const wheelTicks = 64

// Tracker maintains per-page hotness from the access samples the machine
// folds into mem.FrameMeta at round barriers. The engine tells it what
// changes, and a tick costs the pages sampled since the last one plus the
// pages whose class the passing of time changes:
//
//   - Map and Unmap report each leaf installed, remapped and removed;
//     Sampled reports a page the fold saw an access to. Tick then reads
//     each sampled page's count and folds it into the page's integer
//     exponentially-decayed score: score -= score/4, then += samples.
//   - A page not sampled decays lazily: its state records the tick it is
//     current at, and the unsampled ticks since are applied when the page
//     is next touched. A page's history stops ageing while it is unmapped
//     and resumes when a page is mapped again at the same VA.
//   - The rule is integer and deterministic, so the tick at which an
//     unsampled page stops being hot, or turns cold, is known in advance.
//     A timing wheel keyed by that tick keeps every mapped page's class,
//     the class index Scan reads and the per-tier Histogram exact at each
//     tick.
//
// History is keyed by page-base VA and kept in 2MB blocks of per-4KB-page
// states, found through a map keyed by the block's base with the last
// block cached in front. Nothing here depends on the order the engine
// reports changes in between two ticks, so the state is as deterministic
// as the event stream.
type Tracker struct {
	cfg   TrackerConfig
	tiers []numa.MemTier // each node's tier
	now   uint32         // ticks taken
	hist  Histogram      // mapped pages by tier and hotness, as of now

	blocks map[pt.VirtAddr]*block
	order  []*block // by ascending base
	// all holds every block the tracker has made, by id; the first used
	// are in use, and Reset keeps the rest for reuse.
	all  []*block
	used int
	// lastBase and last cache the most recently used block; lastBase
	// starts at noBlock, which no block's base equals.
	lastBase pt.VirtAddr
	last     *block

	// sampled lists the pages sampled since the last tick, each once.
	sampled []pageRef
	// wheel[t%wheelTicks] lists pages whose class may change at tick t;
	// an entry whose page no longer wakes at t is skipped.
	wheel [wheelTicks][]pageRef
}

// noBlock is a lastBase that matches no block: block bases are 2MB-aligned.
const noBlock pt.VirtAddr = 1

// NewTracker builds a tracker for a machine whose node n is on tier
// tiers[n]; zero-value config fields take defaults.
func NewTracker(cfg TrackerConfig, tiers []numa.MemTier) *Tracker {
	if len(tiers) == 0 || len(tiers) > 64 {
		panic(fmt.Sprintf("tier: tracker for %d nodes (want 1..64)", len(tiers)))
	}
	return &Tracker{cfg: cfg.withDefaults(), tiers: tiers, blocks: make(map[pt.VirtAddr]*block), lastBase: noBlock}
}

// Reset empties the tracker for another process, as NewTracker with the
// same tiers would build it, keeping its blocks and buffers for reuse.
func (t *Tracker) Reset(cfg TrackerConfig) {
	for _, b := range t.order {
		clear(b.pages[:])
		clear(b.members)
	}
	t.used = 0
	clear(t.blocks)
	t.order = t.order[:0]
	t.sampled = t.sampled[:0]
	for i := range t.wheel {
		t.wheel[i] = t.wheel[i][:0]
	}
	t.cfg, t.now, t.hist = cfg.withDefaults(), 0, Histogram{}
	t.lastBase, t.last = noBlock, nil
}

// Histogram returns the mapped pages by tier and hotness: after a Tick,
// that tick's histogram; later Map and Unmap calls move it.
func (t *Tracker) Histogram() Histogram { return t.hist }

// Map reports a leaf of the given size installed at va, or the page at
// va remapped: frame is the engine's handle of the frame behind the
// leaf, on node. A remapped page keeps its history and class; an
// installed one resumes the history a page at va had when it was
// unmapped.
func (t *Tracker) Map(va pt.VirtAddr, size pt.PageSize, node numa.NodeID, frame uint64) {
	b, i := t.locate(va)
	st := &b.pages[i]
	st.frame = frame
	if st.flags&mapped != 0 {
		t.count(b, i, st, false)
		st.node = uint8(node)
		t.count(b, i, st, true)
		return
	}
	st.flags |= mapped
	st.node, st.size = uint8(node), uint8(size)
	st.seen = t.now
	st.class = t.classOf(st)
	t.count(b, i, st, true)
	t.schedule(st, refOf(b, i))
}

// Unmap reports the leaf at va removed. The page's history freezes until
// a page is mapped at va again.
func (t *Tracker) Unmap(va pt.VirtAddr) {
	b, i := t.locate(va)
	st := &b.pages[i]
	if st.flags&mapped == 0 {
		return
	}
	t.advance(st, t.now)
	t.count(b, i, st, false)
	st.flags &^= mapped
	st.wake = 0
}

// Sampled reports that the page based at va was sampled since the last
// tick. Reporting a page more than once, or one not mapped, is harmless.
func (t *Tracker) Sampled(va pt.VirtAddr) {
	b, i := t.locate(va)
	if st := &b.pages[i]; st.flags&sampled == 0 {
		st.flags |= sampled
		t.sampled = append(t.sampled, refOf(b, i))
	}
}

// Tick takes one tracker tick: read returns (and clears) the samples in
// the frame of each mapped page reported sampled since the last tick,
// which the tick folds into its score; every other mapped page counts an
// unsampled tick.
func (t *Tracker) Tick(read func(frame uint64) uint32) {
	t.now++
	for _, r := range t.sampled {
		b, i := t.deref(r)
		st := &b.pages[i]
		st.flags &^= sampled
		if st.flags&mapped == 0 {
			continue
		}
		n := read(st.frame)
		t.advance(st, t.now-1)
		st.score -= st.score / 4
		st.score += uint64(n)
		if n == 0 {
			st.idle++
		} else {
			st.idle = 0
		}
		st.seen = t.now
		t.reclassify(b, i, st)
		t.schedule(st, r)
	}
	t.sampled = t.sampled[:0]
	due := &t.wheel[t.now%wheelTicks]
	for _, r := range *due {
		b, i := t.deref(r)
		st := &b.pages[i]
		if st.flags&mapped == 0 || st.wake != t.now {
			continue
		}
		st.wake = 0
		t.advance(st, t.now)
		t.reclassify(b, i, st)
		t.schedule(st, r)
	}
	*due = (*due)[:0]
}

// Scan implements PageSource.
func (t *Tracker) Scan(c Class, nodes NodeMask, yield func(PageView) bool) bool {
	if c != Hot && c != Cold {
		panic(fmt.Sprintf("tier: Scan of class %d", c))
	}
	var sets [64]int
	n := 0
	for node := range t.tiers {
		if nodes&(1<<node) != 0 {
			sets[n] = int(c)*len(t.tiers) + node
			n++
		}
	}
	for _, b := range t.order {
		for w := range len(bitset{}) {
			var word uint64
			for _, s := range sets[:n] {
				word |= b.members[s][w]
			}
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				st := &b.pages[i]
				pv := PageView{
					VA:   b.base + pt.VirtAddr(i)<<pt.PageShift4K,
					Size: pt.PageSize(st.size),
					Node: numa.NodeID(st.node),
					Tier: t.tiers[st.node],
				}
				if !yield(pv) {
					return false
				}
			}
		}
	}
	return true
}

// advance applies the unsampled ticks between st.seen and to.
func (t *Tracker) advance(st *pageState, to uint32) {
	n := to - st.seen
	st.idle += n
	// Below 4 a quarter rounds to nothing, so the score stops changing.
	for ; n > 0 && st.score >= 4; n-- {
		st.score -= st.score / 4
	}
	st.seen = to
}

// classOf classifies a page whose state is current.
func (t *Tracker) classOf(st *pageState) Class {
	switch {
	case st.score >= t.cfg.HotThreshold:
		return Hot
	case uint64(st.idle) >= uint64(t.cfg.ColdTicks):
		return Cold
	}
	return Warm
}

// reclassify recounts a mapped page whose state is current at t.now.
func (t *Tracker) reclassify(b *block, i int, st *pageState) {
	if c := t.classOf(st); c != st.class {
		t.count(b, i, st, false)
		st.class = c
		t.count(b, i, st, true)
	}
}

// count adds the mapped page at index i of b to, or removes it from, the
// histogram and the class index under its node and class.
func (t *Tracker) count(b *block, i int, st *pageState, add bool) {
	pages := pt.PageSize(st.size).Bytes() >> pt.PageShift4K
	h := &t.hist.Cold
	if st.class == Hot {
		h = &t.hist.Hot
	}
	tk := t.tiers[st.node]
	if add {
		h[tk] += pages
	} else {
		h[tk] -= pages
	}
	if st.class == Warm {
		return
	}
	set := &b.members[int(st.class)*len(t.tiers)+int(st.node)]
	if add {
		set[i/64] |= 1 << (i % 64)
	} else {
		set[i/64] &^= 1 << (i % 64)
	}
}

// schedule puts a mapped page whose state is current at t.now on the
// wheel at the tick its class next changes without a sample (capped at
// the wheel's horizon, where it is looked at again), unless it is there
// already. Cold is final without a sample, and so is a hot score whose
// decay stops at or above the threshold.
func (t *Tracker) schedule(st *pageState, r pageRef) {
	var d uint64
	switch st.class {
	case Hot:
		d = t.coolIn(st.score)
	case Warm:
		d = uint64(t.cfg.ColdTicks) - uint64(st.idle)
	}
	d = min(d, wheelTicks-1)
	var at uint32
	if d > 0 {
		at = t.now + uint32(d)
	}
	if at == st.wake {
		return
	}
	st.wake = at
	if at != 0 {
		t.wheel[at%wheelTicks] = append(t.wheel[at%wheelTicks], r)
	}
}

// coolIn returns the unsampled ticks after which a hot score drops below
// HotThreshold (wheelTicks-1 if it is still hot then), or 0 if it never
// does.
func (t *Tracker) coolIn(score uint64) uint64 {
	for d := uint64(1); d < wheelTicks; d++ {
		next := score - score/4
		if next < t.cfg.HotThreshold {
			return d
		}
		if next == score {
			return 0
		}
		score = next
	}
	return wheelTicks - 1
}

// locate returns the block holding va and the page's index in it. Small
// enough to inline: only a change of block pays a call.
func (t *Tracker) locate(va pt.VirtAddr) (*block, int) {
	if va&^(blockBytes-1) != t.lastBase {
		t.load(va)
	}
	return t.last, int(va>>pt.PageShift4K) & (blockPages - 1)
}

// refOf and deref convert between a page and its pageRef.
func refOf(b *block, i int) pageRef { return pageRef(b.id<<pt.EntryBits | uint32(i)) }

func (t *Tracker) deref(r pageRef) (*block, int) {
	return t.all[r>>pt.EntryBits], int(r & (blockPages - 1))
}

// load caches the block holding va, creating it on first use.
//
//go:noinline
func (t *Tracker) load(va pt.VirtAddr) {
	base := va &^ (blockBytes - 1)
	b := t.blocks[base]
	if b == nil {
		if t.used == len(t.all) {
			t.all = append(t.all, &block{id: uint32(t.used), members: make([]bitset, 2*len(t.tiers))})
		}
		b = t.all[t.used]
		t.used++
		b.base = base
		t.blocks[base] = b
		at, _ := slices.BinarySearchFunc(t.order, base, func(o *block, base pt.VirtAddr) int { return cmp.Compare(o.base, base) })
		t.order = slices.Insert(t.order, at, b)
	}
	t.lastBase, t.last = base, b
}
