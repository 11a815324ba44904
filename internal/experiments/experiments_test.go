package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// Quick-mode smoke tests: the experiments must run end-to-end without
// errors at reduced scale. Shape assertions happen at full scale in the
// bench harness and in TestShapes* below where they remain valid at small
// scale.

func TestTable4MatchesPaper(t *testing.T) {
	tbl := RunTable4()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// The analytic model must match the paper's published values.
	want := map[string][]string{
		"1 GB":  {"1.000", "1.002", "1.006", "1.014", "1.029"},
		"1 TB":  {"1.000", "1.002", "1.006", "1.014", "1.029"},
		"16 TB": {"1.000", "1.002", "1.006", "1.014", "1.029"},
	}
	for _, row := range tbl.Rows {
		exp, ok := want[row[0]]
		if !ok {
			continue
		}
		for i, v := range exp {
			if row[2+i] != v {
				t.Errorf("%s replicas col %d = %s, want %s", row[0], i, row[2+i], v)
			}
		}
	}
	// 1MB case: paper reports 1.015/1.046/1.108/1.231 for 2/4/8/16.
	for _, row := range tbl.Rows {
		if row[0] != "1 MB" {
			continue
		}
		wantSmall := []string{"1.000", "1.015", "1.046", "1.108", "1.231"}
		for i, v := range wantSmall {
			if row[2+i] != v {
				t.Errorf("1 MB replicas col %d = %s, want %s", i, row[2+i], v)
			}
		}
	}
}

func TestPTBytes(t *testing.T) {
	// 1GB footprint: 512 L1 pages + 1 + 1 + 1 = 515 pages = 2.01 MB,
	// matching the paper's "2.01 MB" PT-size column.
	got := PTBytes(1 << 30)
	want := uint64(515 * 4096)
	if got != want {
		t.Errorf("PTBytes(1GB) = %d, want %d", got, want)
	}
	// Minimum: one page per level.
	if got := PTBytes(4096); got != 4*4096 {
		t.Errorf("PTBytes(4KB) = %d, want 16KB", got)
	}
}

func TestMemOverheadMonotonic(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		o := MemOverhead(1<<30, n)
		if o < prev {
			t.Errorf("overhead not monotonic at %d replicas", n)
		}
		prev = o
	}
	if o := MemOverhead(1<<30, 1); o != 1.0 {
		t.Errorf("single replica overhead = %v, want exactly 1.0", o)
	}
}

func TestFig3Quick(t *testing.T) {
	out, err := RunFig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"L4", "L3", "L2", "L1", "Socket 0", "Socket 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q", want)
		}
	}
}

func TestFig4Quick(t *testing.T) {
	tbl, err := RunFig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 workloads", len(tbl.Rows))
	}
}

func TestFig6Quick(t *testing.T) {
	fig, err := RunFig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Group) != 8 {
		t.Fatalf("groups = %d, want 8", len(fig.Group))
	}
	for _, g := range fig.Group {
		if len(g.Bars) != 7 {
			t.Fatalf("%s has %d bars, want 7", g.Name, len(g.Bars))
		}
		if g.Bars[0].Normalized != 1.0 {
			t.Errorf("%s baseline = %v, want 1.0", g.Name, g.Bars[0].Normalized)
		}
		for _, b := range g.Bars {
			if b.Normalized <= 0 || math.IsNaN(b.Normalized) {
				t.Errorf("%s %s: bad normalized value %v", g.Name, b.Config, b.Normalized)
			}
		}
	}
}

func TestFig9Quick(t *testing.T) {
	fig, err := RunFig9(Quick(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Group) != 6 {
		t.Fatalf("groups = %d, want 6", len(fig.Group))
	}
	for _, g := range fig.Group {
		if len(g.Bars) != 6 {
			t.Fatalf("%s has %d bars, want 6", g.Name, len(g.Bars))
		}
	}
}

func TestFig10Quick(t *testing.T) {
	fig, err := RunFig10(Quick(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Group) != 8 {
		t.Fatalf("groups = %d, want 8", len(fig.Group))
	}
	for _, g := range fig.Group {
		// RPI-LD must not be faster than LP-LD: remote loaded page-tables
		// cannot help. This shape holds at any scale.
		if g.Bars[1].Normalized < g.Bars[0].Normalized*0.98 {
			t.Errorf("%s: RPI-LD (%.3f) faster than LP-LD (%.3f)",
				g.Name, g.Bars[1].Normalized, g.Bars[0].Normalized)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	fig, err := RunFig11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Group) != 3 {
		t.Fatalf("groups = %d, want 3", len(fig.Group))
	}
}

func TestFig1Quick(t *testing.T) {
	out, err := RunFig1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Canneal", "GUPS", "Mitosis"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q", want)
		}
	}
}

func TestTable5Quick(t *testing.T) {
	tbl, err := RunTable5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 operations", len(tbl.Rows))
	}
	// mprotect with 4-way replication must cost more than native; this
	// holds at any scale.
	if !strings.Contains(tbl.Rows[1][0], "mprotect") {
		t.Fatalf("row 1 = %v, want mprotect", tbl.Rows[1])
	}
}

func TestTable6Quick(t *testing.T) {
	tbl, err := RunTable6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 workloads", len(tbl.Rows))
	}
}

func TestAblationsQuick(t *testing.T) {
	if _, err := RunAblationPropagation(Quick()); err != nil {
		t.Errorf("propagation: %v", err)
	}
	if _, err := RunAblationFiveLevel(Quick()); err != nil {
		t.Errorf("five-level: %v", err)
	}
	if _, err := RunAblationPageCache(Quick()); err != nil {
		t.Errorf("page cache: %v", err)
	}
	if _, err := RunAblationAutoPolicy(Quick()); err != nil {
		t.Errorf("auto policy: %v", err)
	}
	if _, err := RunAblationAsyncReplication(Quick()); err != nil {
		t.Errorf("async replication: %v", err)
	}
	if _, err := RunAblationVirtualization(Quick()); err != nil {
		t.Errorf("virtualization: %v", err)
	}
}

// TestFiveLevelHardwareWalksItsGeometry checks that each machine of the
// five-level ablation reports the geometry it walks: with the
// paging-structure caches off, a cold walk reads one entry per level.
func TestFiveLevelHardwareWalksItsGeometry(t *testing.T) {
	for i, want := range []struct{ levels, vaBits int }{{4, 48}, {5, 57}} {
		k := kernel.New(kernel.Config{FramesPerNode: 1 << 12, Hardware: fiveLevelHardware[i]})
		if g := k.HardwareGeometry(); g.Levels != want.levels || g.VABits != want.vaBits {
			t.Errorf("machine %d reports %d levels and %d-bit reach, want %d and %d", i, g.Levels, g.VABits, want.levels, want.vaBits)
		}
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: "walk", Home: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
			t.Fatal(err)
		}
		base, err := k.Mmap(p, 4096, kernel.MmapOpts{Populate: true})
		if err != nil {
			t.Fatal(err)
		}
		m := k.Machine()
		before := m.Stats(0)
		if err := hwtest.Access(m, 0, base, false); err != nil {
			t.Fatal(err)
		}
		d := m.Stats(0).Sub(before)
		if reads := d.WalkMemAccesses + d.WalkLLCHits; d.Walks != 1 || reads != uint64(want.levels) {
			t.Errorf("machine %d: %d walks reading %d entries, want 1 reading %d", i, d.Walks, reads, want.levels)
		}
	}
}

func TestVirtTable6Quick(t *testing.T) {
	tbl, err := RunVirtTable6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("virtualized table has %d rows, want 4", len(tbl.Rows))
	}
	t.Log("\n" + tbl.String())
}

// The §7.4 acceptance shape: gPT+ePT replication recovers over half of
// the worst case's remote-walk cycles.
func TestVirtReplicationRecoversMajority(t *testing.T) {
	cfg := Quick()
	worst, err := virtRun(cfg, mitosis.VMReplicationNone)
	if err != nil {
		t.Fatal(err)
	}
	both, err := virtRun(cfg, mitosis.VMReplicationBoth)
	if err != nil {
		t.Fatal(err)
	}
	if worst.RemoteWalkCycles == 0 {
		t.Fatal("worst-case placement produced no remote walk cycles")
	}
	if both.RemoteWalkCycles*2 >= worst.RemoteWalkCycles {
		t.Errorf("recovery under 50%%: worst %d remote walk cycles, both-replicated %d",
			worst.RemoteWalkCycles, both.RemoteWalkCycles)
	}
	if both.GuestWalkCycles == 0 || both.NestedWalkCycles == 0 {
		t.Errorf("guest/nested split missing: %+v", both)
	}
}

func TestVirtScenarioReplayable(t *testing.T) {
	cfg := Quick()
	vr, err := RunVirtScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(vr.Policies) == 0 || len(vr.Policies[0].Actions) == 0 {
		t.Fatalf("ondemand policy never acted on the VM: %+v", vr.Policies)
	}
	// Re-running the embedded spec reproduces the counters bit-for-bit.
	mode, err := mitosis.ParseEngineMode(vr.Engine)
	if err != nil {
		t.Fatal(err)
	}
	again, err := mitosis.Run(vr.Scenario, mitosis.WithEngine(mode))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vr.Phases, again.Phases) {
		t.Errorf("virt scenario replay diverged:\nfirst: %+v\nagain: %+v", vr.Phases, again.Phases)
	}
}
