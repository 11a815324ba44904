package mmucache

import (
	"reflect"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// TestPSCResetRestoresFreshState pins the machine-recycling contract at
// the paging-structure-cache layer: after arbitrary use, Reset leaves the
// PSC deeply equal to a freshly constructed one.
func TestPSCResetRestoresFreshState(t *testing.T) {
	cfg := DefaultPSCConfig()
	p := NewPSC(cfg)
	for i := 0; i < 300; i++ {
		va := pt.VirtAddr(uint64(i) << 21)
		p.Insert(va, 4, mem.FrameID(10+i))
		p.Insert(va, 3, mem.FrameID(500+i))
		p.Lookup(va, 4)
	}
	p.Lookup(pt.VirtAddr(1)<<46, 4) // a miss
	if reflect.DeepEqual(p, NewPSC(cfg)) {
		t.Fatal("test did not dirty the PSC")
	}

	p.Reset()
	if !reflect.DeepEqual(p, NewPSC(cfg)) {
		t.Errorf("reset PSC differs from fresh:\nreset: %+v\nfresh: %+v", p, NewPSC(cfg))
	}
}

// TestLLCResetRestoresFreshState is the same contract for the shared LLC
// model: lines evicted, LRU order back to identity.
func TestLLCResetRestoresFreshState(t *testing.T) {
	cfg := DefaultLLCConfig()
	l := NewLLC(cfg)
	for i := 0; i < 5000; i++ {
		l.Access(LineOf(mem.FrameID(i%97), i%64))
	}
	l.Invalidate(LineOf(3, 1))
	if reflect.DeepEqual(l, NewLLC(cfg)) {
		t.Fatal("test did not dirty the LLC")
	}

	l.Reset()
	if !reflect.DeepEqual(l, NewLLC(cfg)) {
		t.Errorf("reset LLC differs from fresh")
	}
}
