package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/experiments"
)

func TestTargetRegistry(t *testing.T) {
	for _, name := range []string{"fig1", "churn", "sweep", "scenario"} {
		if !knownTarget(name) {
			t.Errorf("target %q missing from registry", name)
		}
	}
	if knownTarget("bogus") || knownTarget("") {
		t.Error("unknown names accepted")
	}
	seen := map[string]bool{}
	for _, ti := range targets {
		if ti.desc == "" {
			t.Errorf("target %q has no description", ti.name)
		}
		if seen[ti.name] {
			t.Errorf("target %q registered twice", ti.name)
		}
		seen[ti.name] = true
	}
	// "all" excludes exactly the sweep target, which must sort last in the
	// registry for the slicing in main to hold.
	if targets[len(targets)-1].name != "sweep" {
		t.Error("sweep must be the registry's last entry (\"all\" slices it off)")
	}
}

// TestSweepRecordReplay runs a tiny sweep through the real driver, writes
// the bench record like -json would, and verifies both single-cell and
// full replay against the file.
func TestSweepRecordReplay(t *testing.T) {
	sb, err := experiments.RunSweep(experiments.SweepOptions{Quick: true, Cells: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec := benchRecord{Target: "sweep", WallSec: 1, Result: sb}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_sweep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := runReplay(path, 3); err != nil {
		t.Errorf("single-cell replay: %v", err)
	}
	if err := runReplay(path, -1); err != nil {
		t.Errorf("full replay: %v", err)
	}
	if err := runReplay(path, 99); err == nil {
		t.Error("replay of an unrecorded cell index succeeded")
	}

	// A corrupted outcome must be detected.
	var mut struct {
		Target string                 `json:"target"`
		Result experiments.SweepBench `json:"result"`
	}
	if err := json.Unmarshal(data, &mut); err != nil {
		t.Fatal(err)
	}
	mut.Result.Sweep.Cells[2].Outcome.Counters.Cycles++
	bad, err := json.Marshal(mut)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "BENCH_sweep_bad.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runReplay(badPath, 2); err == nil {
		t.Error("replay accepted a corrupted record")
	}
}
