package main

import (
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// TestSuiteNames pins the names ptdump's unknown-workload message lists:
// those of the suite -scenario selects, each once, every one of them a
// name workloads.ByName accepts with that -scenario.
func TestSuiteNames(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		want     []string
	}{
		{"ms", []string{"Canneal", "Memcached", "XSBench", "Graph500", "HashJoin", "BTree"}},
		{"wm", []string{"GUPS", "BTree", "HashJoin", "Redis", "XSBench", "PageRank", "LibLinear", "Canneal"}},
		{"both", []string{"Canneal", "Memcached", "XSBench", "Graph500", "HashJoin", "BTree", "GUPS", "Redis", "PageRank", "LibLinear"}},
	} {
		got := suiteNames(tc.scenario)
		if !slices.Equal(got, tc.want) {
			t.Errorf("suiteNames(%q) = %v, want %v", tc.scenario, got, tc.want)
		}
		for _, name := range got {
			if workloads.ByName(name, tc.scenario) == nil {
				t.Errorf("suiteNames(%q) lists %q, which ByName rejects", tc.scenario, name)
			}
		}
	}
	// The message that named the rejected workload as known.
	if workloads.ByName("Memcached", "wm") != nil || slices.Contains(suiteNames("wm"), "Memcached") {
		t.Error("Memcached: want rejected by -scenario wm and not listed for it")
	}
}
