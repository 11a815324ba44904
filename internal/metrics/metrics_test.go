package metrics

import (
	"strings"
	"testing"
)

func TestFigureRendering(t *testing.T) {
	f := &Figure{
		Title: "Test Figure",
		Note:  "a note",
		Group: []Group{
			{Name: "GUPS", Bars: []Bar{
				{Config: "LP-LD", Normalized: 1.0, WalkFrac: 0.5},
				{Config: "RPI-LD", Normalized: 3.24, WalkFrac: 0.85},
				{Config: "RPI-LD+M", Normalized: 1.0, WalkFrac: 0.5, Improvement: 3.24},
			}},
		},
	}
	s := f.String()
	for _, want := range []string{"Test Figure", "a note", "GUPS", "RPI-LD+M", "3.24x", "85.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure output missing %q:\n%s", want, s)
		}
	}
	// The workload name appears once, on the first bar only.
	if strings.Count(s, "GUPS") != 1 {
		t.Errorf("workload name repeated:\n%s", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "T",
		Columns: []string{"a", "bb", "ccc"},
	}
	tb.AddRow("1", "2", "3")
	tb.AddRow("long-cell", "x", "y")
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), s)
	}
	// Columns align: header and rows have equal prefix widths.
	if !strings.Contains(lines[1], "a") || !strings.Contains(lines[2], "---") {
		t.Errorf("header/separator malformed:\n%s", s)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	tb.AddRow("only-one")
}

func TestFormatters(t *testing.T) {
	if X(3.239) != "3.24x" {
		t.Errorf("X = %s", X(3.239))
	}
	if Pct(0.123) != "12.3%" {
		t.Errorf("Pct = %s", Pct(0.123))
	}
}
