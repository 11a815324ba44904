package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
)

// TestGatherADIsUnionOverReplicas is the §5.4 correctness property: for any
// pattern of hardware A/D settings scattered across replicas, GatherAD
// returns exactly the OR, and ClearAD resets every copy.
func TestGatherADIsUnionOverReplicas(t *testing.T) {
	property := func(seed int64, pattern uint8) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newFixture(t, 0)
		va := pt.VirtAddr(0x9000)
		fx.mapPage(t, va, 0)
		if err := fx.space.Replicate(fx.ctx); err != nil {
			return false
		}
		roots := ringMembers(fx.pm, fx.mp.Root())
		// Scatter A and D bits across a random subset of replicas, the
		// way per-socket page walkers would.
		wantA, wantD := false, false
		for i, root := range roots {
			ref, leaf, ok := leafRef(pt.NewTable(fx.pm, root, 4), va)
			if !ok {
				return false
			}
			var flags pt.PTE
			if pattern&(1<<uint(i)) != 0 {
				flags |= pt.FlagAccessed
				wantA = true
			}
			if r.Intn(2) == 0 {
				flags |= pt.FlagDirty
				wantD = true
			}
			if flags != 0 {
				pt.WriteEntryRaw(fx.pm, ref, leaf.WithFlags(flags))
			}
		}
		got := fx.be.GatherAD(fx.ctx, fx.primaryRef(va))
		if got.Accessed() != wantA || (got&pt.FlagDirty != 0) != wantD {
			t.Logf("gather = A:%v D:%v, want A:%v D:%v", got.Accessed(), got&pt.FlagDirty != 0, wantA, wantD)
			return false
		}
		// Reset clears every replica.
		fx.be.ClearAD(fx.ctx, fx.primaryRef(va))
		for _, root := range roots {
			tbl := pt.NewTable(fx.pm, root, 4)
			leaf, _, ok := pttest.Lookup(tbl, va)
			if !ok || leaf.Accessed() || leaf&pt.FlagDirty != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	fx := newFixture(t, 0)
	fx.mapPage(t, 0x1000, 0)
	if err := fx.space.Validate(); err != nil {
		t.Fatalf("healthy table failed validation: %v", err)
	}
	// Corrupt an interior entry: point the L3 slot at a data frame.
	data, _ := fx.pm.AllocData(2)
	l3 := pt.ReadEntry(fx.pm, pt.EntryRef{Frame: fx.mp.Root(), Index: pt.Index(0x1000, 4)}).Frame()
	l3Ref := pt.EntryRef{Frame: l3, Index: pt.Index(0x1000, 3)}
	pt.WriteEntryRaw(fx.pm, l3Ref, pt.NewPTE(data, pt.FlagPresent|pt.FlagWrite))
	if err := fx.space.Validate(); err == nil {
		t.Fatal("validation missed a dangling interior pointer")
	}
}

func TestRingMembersPanicsOnNonClosingRing(t *testing.T) {
	fx := newFixture(t, 0)
	a, _ := fx.pm.AllocPageTable(0, 1)
	b, _ := fx.pm.AllocPageTable(1, 1)
	// Manually corrupt: a -> b -> b (self-loop that never returns to a).
	fx.pm.SetReplicaNext(a, b)
	fx.pm.SetReplicaNext(b, b)
	defer func() {
		if recover() == nil {
			t.Error("corrupt ring did not panic")
		}
	}()
	ringMembers(fx.pm, a)
}

// leafRef descends tbl for va and returns the location and value of its
// leaf entry, or false if va is not mapped.
func leafRef(tbl *pt.Table, va pt.VirtAddr) (pt.EntryRef, pt.PTE, bool) {
	d := tbl.Descend(va)
	if _, ok := d.Mapped(); !ok {
		return pt.EntryRef{}, 0, false
	}
	return pt.EntryRef{Frame: d.Frame, Index: pt.Index(va, d.Level)}, d.Entry, true
}

// primaryRef returns where va's leaf lives in the primary table, the entry
// the backend's A/D operations (§5.4) take.
func (fx *fixture) primaryRef(va pt.VirtAddr) pt.EntryRef {
	ref, _, ok := leafRef(fx.mp.Table(), va)
	if !ok {
		panic(fmt.Sprintf("core test: %#x is not mapped", uint64(va)))
	}
	return ref
}
