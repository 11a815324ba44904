package tier

import "github.com/mitosis-project/mitosis-sim/internal/numa"

// Add accounts pages 4KB units on tier t under the given hotness.
func (h *Histogram) Add(t numa.MemTier, hot bool, pages uint64) {
	if hot {
		h.Hot[t] += pages
	} else {
		h.Cold[t] += pages
	}
}
