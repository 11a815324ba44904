package pt

import (
	"strings"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

func TestCompactCount(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{0, "0"}, {999, "999"}, {1000, "1k"}, {12345, "12k"},
		{999999, "999k"}, {1000000, "1M"}, {6543210, "6M"},
	}
	for _, c := range cases {
		if got := compactCount(c.n); got != c.want {
			t.Errorf("compactCount(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestDumpCellMath(t *testing.T) {
	c := DumpCell{Pointers: []int{6, 4, 4, 4}}
	if got := c.Valid(); got != 18 {
		t.Errorf("Valid = %d, want 18", got)
	}
	// From socket 0: 12 of 18 remote = 2/3, matching the paper's 67%
	// Memcached figure.
	if got := c.RemoteFraction(0); got < 0.66 || got > 0.67 {
		t.Errorf("RemoteFraction(0) = %v, want ~0.667", got)
	}
	empty := DumpCell{Pointers: []int{0, 0}}
	if got := empty.RemoteFraction(0); got != 0 {
		t.Errorf("empty RemoteFraction = %v, want 0", got)
	}
}

func TestDumpFormatShape(t *testing.T) {
	pm := mem.New(mem.Config{Topology: numa.NewTopology(4, 1), FramesPerNode: 2048})
	root, err := pm.AllocPageTable(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(pm, root, 4)
	d := Snapshot(tbl)
	// Root counted on socket 1.
	if d.Cells[4][1].Pages != 1 {
		t.Errorf("root not counted: %+v", d.Cells[4][1])
	}
	s := d.Format()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // header + L4..L1
		t.Fatalf("format lines = %d, want 5:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "L4") || !strings.HasPrefix(lines[4], "L1") {
		t.Errorf("levels not ordered root-first:\n%s", s)
	}
}

func TestDumpFormatFiveLevel(t *testing.T) {
	pm := mem.New(mem.Config{Topology: numa.NewTopology(2, 14), FramesPerNode: 2048})
	root, err := pm.AllocPageTable(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := Snapshot(NewTable(pm, root, 5))
	// Root counted at the top level, which for LA57 is level 5.
	if d.Cells[5][1].Pages != 1 {
		t.Errorf("5-level root not counted: %+v", d.Cells[5][1])
	}
	s := d.Format()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 { // header + L5..L1
		t.Fatalf("format lines = %d, want 6:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "L5") || !strings.HasPrefix(lines[5], "L1") {
		t.Errorf("5-level dump not rendered L5..L1 root-first:\n%s", s)
	}
}

func TestRemoteLeafFractionEmptyTable(t *testing.T) {
	pm := mem.New(mem.Config{Topology: numa.NewTopology(2, 14), FramesPerNode: 1024})
	root, _ := pm.AllocPageTable(0, 4)
	d := Snapshot(NewTable(pm, root, 4))
	if got := d.RemoteLeafFraction(0); got != 0 {
		t.Errorf("empty table remote fraction = %v, want 0", got)
	}
	total, per := d.LeafPTEs()
	if total != 0 || per[0] != 0 {
		t.Errorf("empty table leaf count = %d/%v", total, per)
	}
}

func TestPTEStringer(t *testing.T) {
	if got := PTE(0).String(); !strings.Contains(got, "not present") {
		t.Errorf("zero PTE string = %q", got)
	}
	e := NewPTE(7, FlagPresent|FlagWrite|FlagHuge|FlagDirty)
	s := e.String()
	for _, want := range []string{"frame=7", "W", "H", "D"} {
		if !strings.Contains(s, want) {
			t.Errorf("PTE string %q missing %q", s, want)
		}
	}
}

func TestPageSizeStrings(t *testing.T) {
	if Size4K.String() != "4KB" || Size2M.String() != "2MB" || Size1G.String() != "1GB" {
		t.Error("page size strings wrong")
	}
	if PageSize(99).String() == "" {
		t.Error("unknown page size produced empty string")
	}
}
