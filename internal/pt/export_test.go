package pt

import "github.com/mitosis-project/mitosis-sim/internal/mem"

// CountEntries returns the number of present entries per level (index 0
// unused; index L holds the count at level L).
func (t *Table) CountEntries() [MaxLevels + 1]int {
	var counts [MaxLevels + 1]int
	t.Visit(func(level uint8, _ EntryRef, _ PTE) bool {
		counts[level]++
		return true
	})
	return counts
}

// Pages returns the page-table frames per level, including the root.
func (t *Table) Pages() map[uint8][]mem.FrameID {
	pages := map[uint8][]mem.FrameID{t.levels: {t.root}}
	t.VisitInterior(func(level uint8, _ EntryRef, e PTE) bool {
		pages[level-1] = append(pages[level-1], e.Frame())
		return true
	})
	return pages
}
