package tier

import "github.com/mitosis-project/mitosis-sim/internal/pt"

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

// pageState is one page's decayed access history.
type pageState struct {
	score uint64
	idle  int
}

// blockPages is the number of 4KB pages a tracker block covers: one 2MB
// region (blockBytes), so a block is 8KB of state.
const (
	blockPages = 1 << pt.EntryBits
	blockBytes = blockPages << pt.PageShift4K
)

// block holds the states of the 4KB pages of one 2MB region, indexed by
// page. A page never observed holds the zero state.
type block [blockPages]pageState

// Tracker maintains per-page hotness from the AutoNUMA access samples the
// engine folds into mem.FrameMeta at round barriers. It adds no per-access
// state of its own: the engine feeds it the folded per-page sample counts
// once per tick, and the tracker keeps an integer exponentially-decayed
// score per page — deterministic by construction (integer arithmetic, no
// clocks), and iteration-order-free (state is only ever read through the
// engine's VA-ordered walk).
//
// History is keyed by page-base VA and kept in 2MB blocks of per-4KB-page
// states, found through a map keyed by the block's base with the last
// block cached in front: the engine observes pages in VA order, so a tick
// costs one map lookup per 2MB of mapped range. A page's history outlives
// an unmap of it; a page mapped again at the same VA resumes it.
type Tracker struct {
	cfg    TrackerConfig
	blocks map[pt.VirtAddr]*block
	// lastBase and last cache the most recently observed block; lastBase
	// starts at noBlock, which no block's base equals.
	lastBase pt.VirtAddr
	last     *block
}

// noBlock is a lastBase that matches no block: block bases are 2MB-aligned.
const noBlock pt.VirtAddr = 1

// NewTracker builds a tracker; zero-value config fields take defaults.
func NewTracker(cfg TrackerConfig) *Tracker {
	return &Tracker{cfg: cfg.withDefaults(), blocks: make(map[pt.VirtAddr]*block), lastBase: noBlock}
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() TrackerConfig { return t.cfg }

// Observe folds one tick's sample count for the page based at va into its
// score (quarter-life decay: score -= score/4, then += samples) and returns
// the updated score, idle streak and classification.
func (t *Tracker) Observe(va pt.VirtAddr, samples uint32) (score uint64, idle int, hot, cold bool) {
	st := t.state(va)
	st.score -= st.score / 4
	st.score += uint64(samples)
	if samples == 0 {
		st.idle++
	} else {
		st.idle = 0
	}
	return st.score, st.idle, st.score >= t.cfg.HotThreshold, st.idle >= t.cfg.ColdTicks
}

// state returns the history of the 4KB page at va, creating its block on
// first use. Small enough to inline into Observe: only a change of block
// pays a call.
func (t *Tracker) state(va pt.VirtAddr) *pageState {
	if va&^(blockBytes-1) != t.lastBase {
		t.load(va)
	}
	return &t.last[(va>>pt.PageShift4K)&(blockPages-1)]
}

// load caches the block holding va, creating it on first use.
//
//go:noinline
func (t *Tracker) load(va pt.VirtAddr) {
	base := va &^ (blockBytes - 1)
	b := t.blocks[base]
	if b == nil {
		b = new(block)
		t.blocks[base] = b
	}
	t.lastBase, t.last = base, b
}
