// Package metrics renders experiment results in the layout of the paper's
// figures and tables: grouped normalized-runtime bars with page-walk
// fractions and improvement factors, and plain column tables.
package metrics

import (
	"fmt"
	"strings"
)

// Bar is one normalized-runtime bar of a grouped bar chart.
type Bar struct {
	// Config is the x-axis label (e.g. "F+M", "RPI-LD").
	Config string
	// Normalized is runtime relative to the group's baseline.
	Normalized float64
	// WalkFrac is the fraction of cycles spent in page walks (the hashed
	// portion of the paper's bars).
	WalkFrac float64
	// Improvement, when non-zero, annotates the bar with a speedup factor
	// relative to its comparison partner (the paper's boxed numbers).
	Improvement float64
}

// Group is one workload's cluster of bars.
type Group struct {
	Name string
	Bars []Bar
}

// Figure is a complete grouped bar chart.
type Figure struct {
	Title string
	Note  string
	Group []Group
}

// String renders the figure as a text table: one row per bar, grouped by
// workload.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", f.Title)
	if f.Note != "" {
		fmt.Fprintf(&b, "%s\n", f.Note)
	}
	fmt.Fprintf(&b, "%-12s %-12s %10s %10s %12s\n", "workload", "config", "norm.rt", "walk%", "improvement")
	for _, g := range f.Group {
		for i, bar := range g.Bars {
			name := ""
			if i == 0 {
				name = g.Name
			}
			imp := ""
			if bar.Improvement != 0 {
				imp = fmt.Sprintf("%.2fx", bar.Improvement)
			}
			fmt.Fprintf(&b, "%-12s %-12s %10.3f %9.1f%% %12s\n",
				name, bar.Config, bar.Normalized, bar.WalkFrac*100, imp)
		}
	}
	return b.String()
}

// Table is a plain column table.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// X formats a speedup/overhead factor the way the paper annotates bars.
func X(v float64) string { return fmt.Sprintf("%.2fx", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
