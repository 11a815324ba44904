package experiments

import (
	"os"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// TestDebugMSCanneal prints walker behaviour for calibration work. Run
// explicitly with: MITOSIS_DEBUG=1 go test -run TestDebugMSCanneal -v
func TestDebugMSCanneal(t *testing.T) {
	if os.Getenv("MITOSIS_DEBUG") == "" {
		t.Skip("calibration debug only; set MITOSIS_DEBUG=1 to run")
	}
	cfg := Config{Ops: 20000}
	for _, pol := range []MSPolicy{{Name: "F"}, {Name: "F+M", Mitosis: true}} {
		res, k, err := msRun(cfg, "Canneal", pol, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: makespan=%d total=%d walk=%d (%.1f%%) walks=%d memacc=%d llchit=%d remote=%d",
			pol.Name, res.Cycles, res.TotalCycles, res.WalkCycles,
			res.WalkCycleFraction()*100, res.Walks, res.WalkMemAccesses,
			res.WalkLLCHits, res.WalkRemoteAccesses)
		// The measured phase is the scenario's last engine run, so the
		// machine still holds its per-core counters.
		for i, c := range firstProcess(k).Cores() {
			s := k.Machine().Stats(c)
			t.Logf("  core[%d]: cycles=%d walk=%d walks=%d rem=%d mem=%d llc=%d faults=%d",
				i, s.Cycles, s.WalkCycles, s.Walks, s.WalkRemoteAccesses,
				s.WalkMemAccesses, s.WalkLLCHits, s.Faults)
		}
	}
}

// TestDebugMS2MCanneal inspects the 2MB multi-socket write-invalidation
// mechanism.
func TestDebugMS2MCanneal(t *testing.T) {
	if os.Getenv("MITOSIS_DEBUG") == "" {
		t.Skip("calibration debug only; set MITOSIS_DEBUG=1 to run")
	}
	cfg := Config{Ops: 20000}
	for _, pol := range []MSPolicy{{Name: "TF"}, {Name: "TF+M", Mitosis: true}} {
		res, k, err := msRun(cfg, "Canneal", pol, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: ops=%d makespan=%d walk%%=%.1f walks=%d memacc=%d llchit=%d remote=%d",
			pol.Name, res.Ops, res.Cycles, res.WalkCycleFraction()*100,
			res.Walks, res.WalkMemAccesses, res.WalkLLCHits, res.WalkRemoteAccesses)
		for s := numa.SocketID(0); s < 4; s++ {
			ss := k.Machine().SocketStats(s)
			t.Logf("  llc[%d]: walk hits=%d walk misses=%d resident=%d", s, ss.WalkLLCHits, ss.WalkMemAccesses, k.Machine().LLCResident(s))
		}
	}
}
