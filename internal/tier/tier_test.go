package tier

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// current returns the page's history brought up to the tracker's last
// tick, without changing the tracker.
func (t *Tracker) current(va pt.VirtAddr) pageState {
	b, i := t.locate(va)
	st := b.pages[i]
	if st.flags&mapped != 0 {
		t.advance(&st, t.now)
	}
	return st
}

func TestTrackerDecayAndClassification(t *testing.T) {
	tr := NewTracker(TrackerConfig{HotThreshold: 8, ColdTicks: 3}, []numa.MemTier{numa.TierDRAM})
	va := pt.VirtAddr(0x1000)
	tr.Map(va, pt.Size4K, 0, 1)
	samples := uint32(10)
	tick := func() pageState {
		t.Helper()
		if samples > 0 {
			tr.Sampled(va)
		}
		tr.Tick(func(uint64) uint32 { n := samples; samples = 0; return n })
		return tr.current(va)
	}

	if st := tick(); st.score != 10 || st.class != Hot {
		t.Fatalf("after 10 samples: score=%d class=%d, want 10/hot", st.score, st.class)
	}
	// Quarter-life decay: 10 - 10/4 + 0 = 8, still hot; then 6, no longer.
	if st := tick(); st.score != 8 || st.idle != 1 || st.class != Hot {
		t.Fatalf("decay tick 1: %+v", st)
	}
	if st := tick(); st.score != 6 || st.idle != 2 || st.class != Warm {
		t.Fatalf("decay tick 2: %+v", st)
	}
	if st := tick(); st.idle != 3 || st.class != Cold {
		t.Fatalf("decay tick 3: %+v", st)
	}
	// A fresh sample resets the idle streak.
	samples = 2
	if st := tick(); st.idle != 0 || st.class != Warm {
		t.Fatalf("resample: %+v", st)
	}
	// An unmapped page stops ageing; mapped again, it resumes.
	tr.Unmap(va)
	tick()
	tick()
	tr.Map(va, pt.Size4K, 0, 2)
	if st := tick(); st.idle != 1 || st.score != 5 {
		t.Fatalf("remapped after two unmapped ticks: %+v, want idle 1, score 5", st)
	}
}

// mapTracker is the eager tracker the lazy one replaced, kept as its
// reference: a map of per-page states, every mapped page observed every
// tick.
type mapTracker struct {
	cfg   TrackerConfig
	pages map[pt.VirtAddr]pageState
}

func (t *mapTracker) Observe(va pt.VirtAddr, samples uint32) (score uint64, idle int, hot, cold bool) {
	st := t.pages[va]
	st.score -= st.score / 4
	st.score += uint64(samples)
	if samples == 0 {
		st.idle++
	} else {
		st.idle = 0
	}
	t.pages[va] = st
	return st.score, int(st.idle), st.score >= t.cfg.HotThreshold, st.idle >= uint32(t.cfg.ColdTicks)
}

// TestTrackerMatchesMap drives the lazy tracker and the eager map
// reference with one seeded stream of leaf installs, removals, remaps and
// samples of 4KB and 2MB pages across several 2MB blocks, and compares
// after every tick each page's score, idle streak and class, the
// histogram, and what Scan yields for every class and several node sets.
// Pages sampled rarely run long idle streaks, scores rise far past the
// wheel's horizon, and configurations include a hot score whose decay
// stops at the threshold and a cold streak longer than the horizon.
func TestTrackerMatchesMap(t *testing.T) {
	// Nodes 0 and 1 are DRAM, 2 CXL and 3 NVM.
	tiers := []numa.MemTier{numa.TierDRAM, numa.TierDRAM, numa.TierCXL, numa.TierNVM}
	var tr *Tracker
	for _, cfg := range []TrackerConfig{{}, {HotThreshold: 2, ColdTicks: 1}, {HotThreshold: 100, ColdTicks: 70}, {HotThreshold: 3, ColdTicks: 2}} {
		// The first configuration gets a new tracker, the others the
		// previous one reset, blocks and buffers reused.
		if tr == nil {
			tr = NewTracker(cfg, tiers)
		} else {
			tr.Reset(cfg)
		}
		ref := &mapTracker{cfg: tr.cfg, pages: make(map[pt.VirtAddr]pageState)}
		rng := rand.New(rand.NewSource(17 + int64(cfg.ColdTicks)))

		type page struct {
			va   pt.VirtAddr
			size pt.PageSize
			heat int // out of 100: the chance a tick samples the page
		}
		var pages []page
		for _, blk := range []struct {
			base pt.VirtAddr
			huge bool // one 2MB page rather than scattered 4KB pages
		}{{0, false}, {0x40000000, false}, {0x40200000, true}, {0x40600000, false}, {0x7f0000000, false}, {0x7f0200000, true}} {
			if blk.huge {
				pages = append(pages, page{blk.base, pt.Size2M, 20})
				continue
			}
			for i := 0; i < 512; i++ {
				if rng.Intn(4) == 0 {
					pages = append(pages, page{blk.base + pt.VirtAddr(i)<<pt.PageShift4K, pt.Size4K, []int{1, 5, 30, 90}[rng.Intn(4)]})
				}
			}
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i].va < pages[j].va })

		type live struct {
			size  pt.PageSize
			node  numa.NodeID
			frame uint64 // a fresh handle at every install and remap
		}
		mappedAt := map[pt.VirtAddr]live{}
		frames := uint64(0)
		pending := map[uint64]uint32{} // samples in each frame
		read := func(frame uint64) uint32 {
			n := pending[frame]
			delete(pending, frame)
			return n
		}
		for tick := 1; tick <= 300; tick++ {
			for _, p := range pages {
				l, on := mappedAt[p.va]
				switch r := rng.Intn(1000); {
				case !on && r < 300:
					frames++
					l = live{p.size, numa.NodeID(rng.Intn(len(tiers))), frames}
					mappedAt[p.va] = l
					tr.Map(p.va, l.size, l.node, l.frame)
				case on && r < 8:
					delete(mappedAt, p.va)
					delete(pending, l.frame)
					tr.Unmap(p.va)
				case on && r < 20:
					frames++
					delete(pending, l.frame)
					l.node, l.frame = numa.NodeID(rng.Intn(len(tiers))), frames
					mappedAt[p.va] = l
					tr.Map(p.va, l.size, l.node, l.frame)
				}
				if l, on := mappedAt[p.va]; on && rng.Intn(100) < p.heat {
					n := uint32(1 + rng.Intn(20))
					if rng.Intn(50) == 0 {
						n <<= 20 // far past the wheel's horizon
					}
					pending[l.frame] += n
					tr.Sampled(p.va)
				} else if rng.Intn(200) == 0 {
					tr.Sampled(p.va) // a report with nothing in the frame
				}
			}
			observed := maps.Clone(pending)
			tr.Tick(read)

			var hist Histogram
			want := map[Class][]PageView{}
			for _, p := range pages {
				l, on := mappedAt[p.va]
				if !on {
					continue
				}
				score, idle, hot, cold := ref.Observe(p.va, observed[l.frame])
				class := Warm
				switch {
				case hot:
					class = Hot
				case cold:
					class = Cold
				}
				st := tr.current(p.va)
				if st.score != score || int(st.idle) != idle || st.class != class {
					t.Fatalf("%+v tick %d page %#x: score %d idle %d class %d, eager reference %d %d %d",
						cfg, tick, uint64(p.va), st.score, st.idle, st.class, score, idle, class)
				}
				hist.Add(tiers[l.node], hot, l.size.Bytes()>>pt.PageShift4K)
				want[class] = append(want[class], PageView{VA: p.va, Size: l.size, Node: l.node, Tier: tiers[l.node]})
			}
			if got := tr.Histogram(); got != hist {
				t.Fatalf("%+v tick %d: histogram %+v, eager reference %+v", cfg, tick, got, hist)
			}
			for _, c := range []Class{Hot, Cold} {
				for _, nodes := range []NodeMask{^NodeMask(0), 1 << 2, 1<<0 | 1<<3} {
					var got, exp []PageView
					tr.Scan(c, nodes, func(pv PageView) bool { got = append(got, pv); return true })
					for _, pv := range want[c] {
						if nodes&(1<<pv.Node) != 0 {
							exp = append(exp, pv)
						}
					}
					if !slices.Equal(got, exp) {
						t.Fatalf("%+v tick %d: Scan(%d, %b) = %v, eager reference %v", cfg, tick, c, nodes, got, exp)
					}
				}
			}
		}
	}
}

// pageList is a PageSource over a fixed list of pages in VA order.
type pageList []struct {
	PageView
	class Class
}

func (l pageList) Scan(c Class, nodes NodeMask, yield func(PageView) bool) bool {
	for _, p := range l {
		if p.class == c && nodes&(1<<p.Node) != 0 && !yield(p.PageView) {
			return false
		}
	}
	return true
}

func telemetryFixture() *Telemetry {
	// 2-socket machine, CXL node 2 and NVM node 3; process home node 0.
	// Hist is filled from the pages below, as the tracker fills it.
	pages := pageList{
		{PageView{VA: 0x1000, Size: pt.Size4K, Node: 2, Tier: numa.TierCXL}, Hot},   // promote
		{PageView{VA: 0x2000, Size: pt.Size4K, Node: 0, Tier: numa.TierDRAM}, Cold}, // demote to 2
		{PageView{VA: 0x3000, Size: pt.Size4K, Node: 2, Tier: numa.TierCXL}, Cold},  // demote to 3
		{PageView{VA: 0x4000, Size: pt.Size4K, Node: 3, Tier: numa.TierNVM}, Cold},  // last rung: stays
		{PageView{VA: 0x5000, Size: pt.Size4K, Node: 0, Tier: numa.TierDRAM}, Warm}, // warm: stays
	}
	t := &Telemetry{
		HomeNode:  0,
		PTTier:    numa.TierDRAM,
		TierNodes: []numa.NodeID{2, 3},
		Pages:     pages,
	}
	for _, p := range pages {
		t.Hist.Add(p.Tier, p.class == Hot, 1)
	}
	return t
}

// decideAll collects every candidate Decide emits when the sink never
// stops it.
func decideAll(p Policy, t *Telemetry) []Action {
	var out []Action
	p.Decide(t, func(a Action) bool {
		out = append(out, a)
		return true
	})
	return out
}

func TestHotColdDecide(t *testing.T) {
	pol := NewHotCold(HotColdConfig{PT: PTPin})
	got := decideAll(pol, telemetryFixture())
	want := []Action{
		{Kind: Promote, VA: 0x1000, Size: pt.Size4K, Target: 0},
		{Kind: Demote, VA: 0x2000, Size: pt.Size4K, Target: 2},
		{Kind: Demote, VA: 0x3000, Size: pt.Size4K, Target: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("Decide returned %d actions %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("action %d = %v, want %v", i, got[i], want[i])
		}
	}
	// A sink that refuses more stops the policy at once.
	for stop := 1; stop <= len(want); stop++ {
		var emitted []Action
		pol.Decide(telemetryFixture(), func(a Action) bool {
			emitted = append(emitted, a)
			return len(emitted) < stop
		})
		if len(emitted) != stop || emitted[stop-1] != want[stop-1] {
			t.Errorf("sink stopping after %d actions saw %v", stop, emitted)
		}
	}
}

func TestHotColdPTPinRecovers(t *testing.T) {
	tel := telemetryFixture()
	tel.PTTier = numa.TierCXL
	got := decideAll(NewHotCold(HotColdConfig{PT: PTPin}), tel)
	if len(got) == 0 || got[0].Kind != MovePT || got[0].Target != tel.HomeNode {
		t.Fatalf("pinned policy with PT on CXL: first action = %v, want movept->n0", got)
	}
	// Float mode leaves the stranded table alone.
	for _, a := range decideAll(NewHotCold(HotColdConfig{PT: PTFloat}), tel) {
		if a.Kind == MovePT {
			t.Fatalf("float policy moved the page-table: %v", a)
		}
	}
}

func TestHotColdPTDemote(t *testing.T) {
	tel := telemetryFixture() // majority-cold footprint: 4 not hot of 5
	got := decideAll(NewHotCold(HotColdConfig{PT: PTDemote}), tel)
	if len(got) == 0 || got[0].Kind != MovePT || got[0].Target != 2 {
		t.Fatalf("demote policy on cold footprint: first action = %v, want movept->n2", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Add(numa.TierDRAM, true, 3)
	h.Add(numa.TierCXL, false, 5)
	h.Add(numa.TierNVM, false, 2)
	if h.Total() != 10 {
		t.Errorf("Total() = %d, want 10", h.Total())
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		if _, err := NewPolicy(name); err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
		}
	}
	if p, _ := NewPolicy("hotcold"); p.Name() != "hotcold-ptpin" {
		t.Errorf("hotcold alias resolves to %q, want hotcold-ptpin", p.Name())
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Error("NewPolicy(bogus) succeeded")
	}
}
