package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

func newTestMem(t testing.TB, framesPerNode uint64) *PhysMem {
	t.Helper()
	return New(Config{
		Topology:      numa.NewTopology(4, 2),
		FramesPerNode: framesPerNode,
	})
}

func TestNodeRanges(t *testing.T) {
	pm := newTestMem(t, 1024)
	if pm.TotalFrames() != 4096 {
		t.Fatalf("TotalFrames = %d, want 4096", pm.TotalFrames())
	}
	cases := []struct {
		f    FrameID
		want numa.NodeID
	}{
		{0, 0}, {1023, 0}, {1024, 1}, {2047, 1}, {2048, 2}, {4095, 3},
	}
	for _, c := range cases {
		if got := pm.NodeOf(c.f); got != c.want {
			t.Errorf("NodeOf(%d) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestAllocDataOnNode(t *testing.T) {
	pm := newTestMem(t, 1024)
	for n := numa.NodeID(0); n < 4; n++ {
		f, err := pm.AllocData(n)
		if err != nil {
			t.Fatalf("AllocData(%d): %v", n, err)
		}
		if got := pm.NodeOf(f); got != n {
			t.Errorf("frame %d allocated on node %d, want %d", f, got, n)
		}
		if pm.Meta(f).Kind != KindData {
			t.Errorf("frame %d kind = %v, want data", f, pm.Meta(f).Kind)
		}
	}
	if pm.AllocatedData(0) != 1 {
		t.Errorf("AllocatedData(0) = %d, want 1", pm.AllocatedData(0))
	}
}

func TestAllocPageTable(t *testing.T) {
	pm := newTestMem(t, 1024)
	f, err := pm.AllocPageTable(2, 4)
	if err != nil {
		t.Fatalf("AllocPageTable: %v", err)
	}
	meta := pm.Meta(f)
	if meta.Kind != KindPageTable || meta.PTLevel != 4 {
		t.Errorf("meta = %+v, want pagetable level 4", meta)
	}
	tbl := pm.Table(f)
	for i, e := range tbl {
		if e != 0 {
			t.Fatalf("new page table entry %d = %#x, want 0", i, e)
		}
	}
	if pm.AllocatedPT(2) != 1 {
		t.Errorf("AllocatedPT(2) = %d, want 1", pm.AllocatedPT(2))
	}
	pm.Free(f)
	if pm.AllocatedPT(2) != 0 {
		t.Errorf("AllocatedPT(2) after free = %d, want 0", pm.AllocatedPT(2))
	}
}

func TestTableOnDataFramePanics(t *testing.T) {
	pm := newTestMem(t, 1024)
	f, err := pm.AllocData(0)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Table on data frame", func() { pm.Table(f) })
}

func TestOutOfMemory(t *testing.T) {
	pm := newTestMem(t, 512)
	for i := 0; i < 512; i++ {
		if _, err := pm.AllocData(0); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := pm.AllocData(0); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Other nodes are unaffected.
	if _, err := pm.AllocData(1); err != nil {
		t.Fatalf("AllocData(1): %v", err)
	}
}

func TestFreeReuse(t *testing.T) {
	pm := newTestMem(t, 512)
	f, err := pm.AllocData(1)
	if err != nil {
		t.Fatal(err)
	}
	before := pm.FreeFrames(1)
	pm.Free(f)
	if got := pm.FreeFrames(1); got != before+1 {
		t.Errorf("FreeFrames = %d, want %d", got, before+1)
	}
	if pm.Meta(f).Kind != KindFree {
		t.Errorf("freed frame kind = %v, want free", pm.Meta(f).Kind)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	pm := newTestMem(t, 512)
	f, _ := pm.AllocData(0)
	pm.Free(f)
	mustPanic(t, "double free", func() { pm.Free(f) })
}

func TestHugeAlloc(t *testing.T) {
	pm := newTestMem(t, 2048)
	base, err := pm.AllocHuge(0)
	if err != nil {
		t.Fatalf("AllocHuge: %v", err)
	}
	if uint64(base)%HugeFrames != 0 {
		t.Errorf("huge base %d not 2MB aligned", base)
	}
	if !pm.Meta(base).HugeHead {
		t.Error("base frame not marked HugeHead")
	}
	if !pm.Meta(base+1).HugeTail || !pm.Meta(base+511).HugeTail {
		t.Error("tail frames not marked HugeTail")
	}
	if got := pm.FreeFrames(0); got != 2048-HugeFrames {
		t.Errorf("FreeFrames = %d, want %d", got, 2048-HugeFrames)
	}
	mustPanic(t, "Free on huge head", func() { pm.Free(base) })
	pm.FreeHuge(base)
	if got := pm.FreeFrames(0); got != 2048 {
		t.Errorf("FreeFrames after FreeHuge = %d, want 2048", got)
	}
}

// TestFreeHugeRetiresPoisoned poisons two frames of a huge page, in
// different bitmap words, and frees the page: both retire in place and
// never come back, and the other 510 frames return as 4KB frames.
func TestFreeHugeRetiresPoisoned(t *testing.T) {
	pm := newTestMem(t, 2048)
	base, err := pm.AllocHuge(0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []FrameID{base + 3, base + 300}
	for _, f := range bad {
		pm.SetPoison(f)
	}
	pm.FreeHuge(base)
	if got := pm.Retired(0); got != 2 {
		t.Errorf("Retired = %d, want 2", got)
	}
	if got := pm.FreeFrames(0); got != 2048-2 {
		t.Errorf("FreeFrames = %d, want %d", got, 2048-2)
	}
	if got := pm.PoisonCount(); got != 0 {
		t.Errorf("PoisonCount = %d, want 0", got)
	}
	for _, f := range bad {
		if m := pm.Meta(f); m.Kind != KindRetired {
			t.Errorf("frame %d is %v, want retired", f, m.Kind)
		}
	}
	for range 2048 - 2 {
		f, err := pm.AllocData(0)
		if err != nil {
			t.Fatal(err)
		}
		if f == bad[0] || f == bad[1] {
			t.Fatalf("retired frame %d allocated again", f)
		}
	}
	if _, err := pm.AllocData(0); err == nil {
		t.Error("allocation beyond the live frames succeeded")
	}
}

// TestFreeAllMatchesFree frees one random mix of 4KB frames of every node,
// some poisoned, with FreeAll on one memory and frame by frame on its
// twin: free and retired counts, and the frames every node hands out next,
// must agree.
func TestFreeAllMatchesFree(t *testing.T) {
	ref, got := newTestMem(t, 2048), newTestMem(t, 2048)
	rng := rand.New(rand.NewSource(5))
	var frames []FrameID
	poisoned := map[numa.NodeID]uint64{}
	for range 3000 {
		n := numa.NodeID(rng.Intn(4))
		a, errA := ref.AllocData(n)
		b, errB := got.AllocData(n)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("twins diverged before the frees: %d (%v), %d (%v)", a, errA, b, errB)
		}
		if rng.Intn(3) == 0 {
			continue
		}
		frames = append(frames, a)
		if rng.Intn(40) == 0 {
			ref.SetPoison(a)
			got.SetPoison(a)
			poisoned[n]++
		}
	}
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	for _, f := range frames {
		ref.Free(f)
	}
	got.FreeAll(frames)
	for n := numa.NodeID(0); n < 4; n++ {
		if a, b := ref.FreeFrames(n), got.FreeFrames(n); a != b {
			t.Errorf("node %d: %d free frames, reference %d", n, b, a)
		}
		if a, b := ref.Retired(n), got.Retired(n); a != b || b != poisoned[n] {
			t.Errorf("node %d: %d retired frames, reference %d, poisoned %d", n, b, a, poisoned[n])
		}
		for range 600 {
			a, errA := ref.AllocData(n)
			b, errB := got.AllocData(n)
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("node %d: allocated %d (%v), reference %d (%v)", n, b, errB, a, errA)
			}
		}
		if _, err := got.AllocHuge(n); err == nil {
			if _, err := ref.AllocHuge(n); err != nil {
				t.Errorf("node %d: huge allocation succeeded, reference failed", n)
			}
		}
	}
}

func TestHugeAllocAvoidsPartialGroups(t *testing.T) {
	pm := newTestMem(t, 2048) // 4 groups per node
	// A single-frame allocation should leave as many full groups as
	// possible for huge allocation; after it, 3 huge allocations must
	// still succeed.
	if _, err := pm.AllocData(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := pm.AllocHuge(0); err != nil {
			t.Fatalf("huge alloc %d failed: %v", i, err)
		}
	}
	if _, err := pm.AllocHuge(0); err != ErrNoContiguous {
		t.Fatalf("err = %v, want ErrNoContiguous", err)
	}
}

func TestSinglesPreferBrokenGroups(t *testing.T) {
	pm := newTestMem(t, 2048)
	a, _ := pm.AllocData(0)
	b, _ := pm.AllocData(0)
	if (a / HugeFrames) != (b / HugeFrames) {
		t.Errorf("second single allocated in a fresh group (%d vs %d)", a, b)
	}
}

func TestFragmentBlocksHugeAllocation(t *testing.T) {
	pm := newTestMem(t, 2048)
	r := rand.New(rand.NewSource(42))
	pm.Fragment(0, 1.0, r) // all groups fragmented
	if _, err := pm.AllocHuge(0); err != ErrNoContiguous {
		t.Fatalf("err = %v, want ErrNoContiguous", err)
	}
	// 4KB allocation still works.
	if _, err := pm.AllocData(0); err != nil {
		t.Fatalf("AllocData on fragmented node: %v", err)
	}
}

func TestFragmentPartial(t *testing.T) {
	pm := newTestMem(t, 8192) // 16 groups
	r := rand.New(rand.NewSource(7))
	pm.Fragment(1, 0.5, r)
	ok := 0
	for {
		if _, err := pm.AllocHuge(1); err != nil {
			break
		}
		ok++
	}
	if ok == 0 || ok == 16 {
		t.Errorf("got %d huge allocations, want strictly between 0 and 16", ok)
	}
}

func TestPageCacheReservesAndReuses(t *testing.T) {
	pm := newTestMem(t, 1024)
	pc := NewPageCache(pm, 4)
	if got := pc.Refill(); got != 16 {
		t.Fatalf("Refill reserved %d frames, want 16 (4 nodes x 4)", got)
	}
	if pc.Cached(0) != 4 {
		t.Fatalf("Cached(0) = %d, want 4", pc.Cached(0))
	}
	f, err := pc.AllocPT(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pm.NodeOf(f) != 0 {
		t.Errorf("pool frame on node %d, want 0", pm.NodeOf(f))
	}
	if pm.Meta(f).PTLevel != 2 {
		t.Errorf("PTLevel = %d, want 2", pm.Meta(f).PTLevel)
	}
	if pc.Cached(0) != 3 {
		t.Errorf("Cached(0) = %d, want 3", pc.Cached(0))
	}
	pc.FreePT(f)
	if pc.Cached(0) != 4 {
		t.Errorf("Cached(0) after FreePT = %d, want 4", pc.Cached(0))
	}
}

func TestPageCacheStrictFallback(t *testing.T) {
	pm := newTestMem(t, 512)
	pc := NewPageCache(pm, 2)
	pc.Refill()
	// Exhaust node 0 entirely behind the cache's back.
	for {
		if _, err := pm.AllocData(0); err != nil {
			break
		}
	}
	// The two reserved frames still satisfy strict allocations.
	for i := 0; i < 2; i++ {
		if _, err := pc.AllocPT(0, 1); err != nil {
			t.Fatalf("reserved alloc %d: %v", i, err)
		}
	}
	if _, err := pc.AllocPT(0, 1); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestPageCacheDrain(t *testing.T) {
	pm := newTestMem(t, 1024)
	pc := NewPageCache(pm, 8)
	pc.Refill()
	used := pm.framesPerNode - pm.FreeFrames(0)
	if used != 8 {
		t.Fatalf("used = %d, want 8", used)
	}
	pc.Drain()
	if got := pm.FreeFrames(0); got != pm.framesPerNode {
		t.Errorf("FreeFrames after drain = %d, want all", got)
	}
}

// Property: any interleaving of allocs and frees keeps the free count
// consistent and never double-allocates a frame.
func TestAllocFreeInvariant(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		pm := New(Config{Topology: numa.NewTopology(2, 1), FramesPerNode: 512})
		live := make(map[FrameID]bool)
		r := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			node := numa.NodeID(op % 2)
			if op%3 == 0 && len(live) > 0 {
				// free a random live frame
				var victim FrameID
				k := r.Intn(len(live))
				for f := range live {
					if k == 0 {
						victim = f
						break
					}
					k--
				}
				pm.Free(victim)
				delete(live, victim)
				continue
			}
			f, err := pm.AllocData(node)
			if err != nil {
				continue
			}
			if live[f] {
				return false // double allocation
			}
			live[f] = true
		}
		want := uint64(1024 - len(live))
		got := pm.FreeFrames(0) + pm.FreeFrames(1)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: huge pages and singles never overlap.
func TestHugeSingleDisjoint(t *testing.T) {
	f := func(ops []bool) bool {
		pm := New(Config{Topology: numa.NewTopology(1, 1), FramesPerNode: 4096})
		owned := make(map[FrameID]string)
		for _, huge := range ops {
			if huge {
				base, err := pm.AllocHuge(0)
				if err != nil {
					continue
				}
				for off := FrameID(0); off < HugeFrames; off++ {
					if owned[base+off] != "" {
						return false
					}
					owned[base+off] = "huge"
				}
			} else {
				f, err := pm.AllocData(0)
				if err != nil {
					continue
				}
				if owned[f] != "" {
					return false
				}
				owned[f] = "single"
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic(t, "nil topology", func() { New(Config{FramesPerNode: 512}) })
	mustPanic(t, "zero frames", func() {
		New(Config{Topology: numa.NewTopology(2, 14), FramesPerNode: 0})
	})
	mustPanic(t, "unaligned frames", func() {
		New(Config{Topology: numa.NewTopology(2, 14), FramesPerNode: 100})
	})
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	f()
}
