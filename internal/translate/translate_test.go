package translate_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

func testDeps() translate.Deps {
	topo := numa.NewTopology(2, 1)
	return translate.Deps{
		Topo: topo,
		Cost: numa.NewCostModel(topo, numa.DefaultCostParams()),
		Mem:  mem.New(mem.Config{Topology: topo, FramesPerNode: 1 << 10}),
	}
}

// TestSpecDefaults pins what a spec that leaves the sizing zero builds:
// the zero Spec is the 4-level, 48-bit x86-64 backend with the default
// TLB and paging-structure caches; x8664la57 adds a level, 9 bits of
// reach and the PML5E cache row; victima drops the L2 TLB.
func TestSpecDefaults(t *testing.T) {
	psc := mmucache.DefaultPSCConfig().EntriesPerLevel
	noL2 := tlb.DefaultConfig()
	noL2.L2Entries, noL2.L2Ways = 0, 0
	for _, tc := range []struct {
		spec translate.Spec
		want translate.Geometry
	}{
		{translate.Spec{}, translate.Geometry{
			Backend: translate.BackendX8664, Levels: 4, VABits: 48, TLB: tlb.DefaultConfig(), PSC: psc[2:5]}},
		{translate.Spec{Backend: translate.BackendX8664LA57}, translate.Geometry{
			Backend: translate.BackendX8664LA57, Levels: 5, VABits: 57, TLB: tlb.DefaultConfig(), PSC: psc[2:6]}},
		{translate.Spec{Backend: translate.BackendVictima}, translate.Geometry{
			Backend: translate.BackendVictima, Levels: 4, VABits: 48, TLB: noL2, PSC: psc[2:5]}},
	} {
		t.Run(tc.want.Backend, func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			be, err := translate.New(tc.spec, testDeps())
			if err != nil {
				t.Fatal(err)
			}
			if g := be.Geometry(); !reflect.DeepEqual(g, tc.want) {
				t.Errorf("geometry %+v, want %+v", g, tc.want)
			}
			if be.Name() != tc.want.Backend || int(be.Levels()) != tc.want.Levels {
				t.Errorf("backend %s with %d levels, want %s with %d", be.Name(), be.Levels(), tc.want.Backend, tc.want.Levels)
			}
		})
	}
}

// TestSpecRejectsMalformed checks that a spec the backends cannot build
// is an error from both Validate and New, never a panic.
func TestSpecRejectsMalformed(t *testing.T) {
	noL2 := tlb.DefaultConfig()
	noL2.L2Entries, noL2.L2Ways = 0, 0
	badWays := tlb.DefaultConfig()
	badWays.L1Ways4K = 3 // 16 entries
	for _, tc := range []struct {
		name string
		spec translate.Spec
		want string
	}{
		{"x8664 without an L2", translate.Spec{TLB: noL2}, "requires an L2"},
		{"x8664la57 without an L2", translate.Spec{Backend: translate.BackendX8664LA57, TLB: noL2}, "requires an L2"},
		{"victima with an L2", translate.Spec{Backend: translate.BackendVictima, TLB: tlb.DefaultConfig()}, "no L2"},
		{"unknown backend", translate.Spec{Backend: "pdp11"}, "unknown backend"},
		{"ways do not divide entries", translate.Spec{TLB: badWays}, "multiple of ways"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want an error containing %q", err, tc.want)
			}
			be, err := translate.New(tc.spec, testDeps())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New = %v, %v, want an error containing %q", be, err, tc.want)
			}
		})
	}
}
