package tlb

import (
	"reflect"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// TestResetRestoresFreshState pins the machine-recycling contract at the
// TLB layer: after arbitrary use, Reset leaves the TLB deeply equal to a
// freshly constructed one — slots cleared, LRU permutations back to
// identity, stats zeroed.
func TestResetRestoresFreshState(t *testing.T) {
	cfg := testConfig()
	tl := New(cfg)
	// Churn enough entries to rotate every set's LRU order and overflow
	// into evictions, in both page sizes.
	for i := 0; i < 200; i++ {
		va := pt.VirtAddr(uint64(i) << 12)
		tl.Insert(va, pt.NewPTE(mem.FrameID(1000+i), pt.FlagPresent), pt.Size4K)
		tl.Lookup(va)
	}
	for i := 0; i < 50; i++ {
		va := pt.VirtAddr(uint64(i) << 21)
		tl.Insert(va, pt.NewPTE(mem.FrameID(1000+i), pt.FlagPresent|pt.FlagHuge), pt.Size2M)
	}
	tl.Lookup(0xdead000) // a miss, for stats
	if tl.Stats == (Stats{}) {
		t.Fatal("test did not dirty the TLB stats")
	}

	tl.Reset()
	if !reflect.DeepEqual(tl, New(cfg)) {
		t.Errorf("reset TLB differs from fresh:\nreset: %+v\nfresh: %+v", tl, New(cfg))
	}
}
