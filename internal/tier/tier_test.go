package tier

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

func TestTrackerDecayAndClassification(t *testing.T) {
	tr := NewTracker(TrackerConfig{HotThreshold: 8, ColdTicks: 3})
	va := pt.VirtAddr(0x1000)

	score, _, hot, _ := tr.Observe(va, 10)
	if score != 10 || !hot {
		t.Fatalf("after 10 samples: score=%d hot=%v, want 10/true", score, hot)
	}
	// Quarter-life decay: 10 - 10/4 + 0 = 8, still hot; then 6, no longer.
	score, idle, hot, cold := tr.Observe(va, 0)
	if score != 8 || idle != 1 || !hot || cold {
		t.Fatalf("decay tick 1: score=%d idle=%d hot=%v cold=%v", score, idle, hot, cold)
	}
	score, idle, hot, cold = tr.Observe(va, 0)
	if score != 6 || idle != 2 || hot || cold {
		t.Fatalf("decay tick 2: score=%d idle=%d hot=%v cold=%v", score, idle, hot, cold)
	}
	_, idle, _, cold = tr.Observe(va, 0)
	if idle != 3 || !cold {
		t.Fatalf("decay tick 3: idle=%d cold=%v, want 3/true", idle, cold)
	}
	// A fresh sample resets the idle streak.
	_, idle, _, cold = tr.Observe(va, 2)
	if idle != 0 || cold {
		t.Fatalf("resample: idle=%d cold=%v, want 0/false", idle, cold)
	}
}

// mapTracker is the map-keyed tracker the block tracker replaced, kept as
// its reference.
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
	return st.score, st.idle, st.score >= t.cfg.HotThreshold, st.idle >= t.cfg.ColdTicks
}

// TestTrackerMatchesMap drives the block tracker and the map reference with
// one seeded sequence of observations of 4KB and huge page bases across
// several 2MB blocks: ticks that sweep the pages in VA order, as the
// engine does, and bursts in random order. Pages sampled rarely run long
// idle streaks before their next sample.
func TestTrackerMatchesMap(t *testing.T) {
	cfg := TrackerConfig{HotThreshold: 8, ColdTicks: 4}
	tr := NewTracker(cfg)
	ref := &mapTracker{cfg: tr.Config(), pages: make(map[pt.VirtAddr]pageState)}
	rng := rand.New(rand.NewSource(17))

	type page struct {
		va   pt.VirtAddr
		heat int // out of 100: the chance a tick samples the page
	}
	var pages []page
	// Block 0's base equals the tracker's zero cache key.
	for _, blk := range []struct {
		base pt.VirtAddr
		huge bool // one 2MB page rather than scattered 4KB pages
	}{{0, false}, {0x40000000, false}, {0x40200000, true}, {0x40600000, false}, {0x7f0000000, false}, {0x7f0200000, true}} {
		if blk.huge {
			pages = append(pages, page{blk.base, 20})
			continue
		}
		for i := 0; i < 512; i++ {
			if rng.Intn(4) == 0 {
				pages = append(pages, page{blk.base + pt.VirtAddr(i)<<pt.PageShift4K, []int{1, 5, 30, 90}[rng.Intn(4)]})
			}
		}
	}
	pages = append(pages, page{0xc0000000, 20}) // a 1GB page
	sort.Slice(pages, func(i, j int) bool { return pages[i].va < pages[j].va })

	check := func(va pt.VirtAddr, samples uint32) {
		t.Helper()
		s, i, h, c := tr.Observe(va, samples)
		rs, ri, rh, rc := ref.Observe(va, samples)
		if s != rs || i != ri || h != rh || c != rc {
			t.Fatalf("Observe(%#x, %d) = (%d, %d, %v, %v), map reference (%d, %d, %v, %v)",
				uint64(va), samples, s, i, h, c, rs, ri, rh, rc)
		}
	}
	sample := func(p page) uint32 {
		if rng.Intn(100) >= p.heat {
			return 0
		}
		return uint32(1 + rng.Intn(20))
	}
	for tick := 0; tick < 200; tick++ {
		if tick%10 == 9 {
			for n := 0; n < 500; n++ {
				p := pages[rng.Intn(len(pages))]
				check(p.va, sample(p))
			}
			continue
		}
		for _, p := range pages {
			check(p.va, sample(p))
		}
	}
}

func telemetryFixture() *Telemetry {
	// 2-socket machine, CXL node 2 and NVM node 3; process home node 0.
	// Hist is filled from Pages below, as the engine's snapshot fills it.
	t := &Telemetry{
		Round:     1,
		HomeNode:  0,
		PTNode:    0,
		PTTier:    numa.TierDRAM,
		TierNodes: []numa.NodeID{2, 3},
		Pages: []PageView{
			{VA: 0x1000, Size: pt.Size4K, Node: 2, Tier: numa.TierCXL, Hot: true},   // promote
			{VA: 0x2000, Size: pt.Size4K, Node: 0, Tier: numa.TierDRAM, Cold: true}, // demote to 2
			{VA: 0x3000, Size: pt.Size4K, Node: 2, Tier: numa.TierCXL, Cold: true},  // demote to 3
			{VA: 0x4000, Size: pt.Size4K, Node: 3, Tier: numa.TierNVM, Cold: true},  // last rung: stays
			{VA: 0x5000, Size: pt.Size4K, Node: 0, Tier: numa.TierDRAM},             // warm: stays
		},
	}
	for _, pv := range t.Pages {
		t.Hist.Add(pv.Tier, pv.Hot, 1)
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
	tel.PTNode, tel.PTTier = 2, numa.TierCXL
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
	if h.OnSlowTiers() != 7 {
		t.Errorf("OnSlowTiers() = %d, want 7", h.OnSlowTiers())
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
