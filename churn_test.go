package mitosis

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// testChurn is a small mixed 4KB+THP churn spec that still spans every
// regime: multiple sockets, spawn/exit turnover, huge-fault tail.
func testChurn() Churn {
	return Churn{
		Name:          "test",
		Machine:       SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 64 << 20, THP: true},
		Procs:         12,
		PagesPerProc:  128,
		HugePages:     1024,
		Fragmentation: 0.3,
	}
}

// churnVariants are the Workers settings a churn outcome must not depend
// on: the parallel engine (0 and 2) and the sequential one (1).
var churnVariants = []int{0, 1, 2}

// forEachGOMAXPROCS runs f as one subtest per GOMAXPROCS setting in 1..4,
// restoring the setting afterwards. On 4 sockets the parallel engine then
// deals the sockets as {0,1,2,3}, {0,1}{2,3}, the uneven {0,1}{2}{3}, and
// one socket per goroutine.
func forEachGOMAXPROCS(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestChurnDeterministicAcrossWorkers pins the churn driver's contract:
// the simulated outcome — counters, spawn/exit counts and the full
// fault-latency histogram — is bit-identical for every Workers value and
// GOMAXPROCS. Only host-side throughput may differ.
func TestChurnDeterministicAcrossWorkers(t *testing.T) {
	ref, err := RunChurn(testChurn())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Spawned != 12 || ref.Exited != 12 {
		t.Fatalf("spawned/exited = %d/%d, want 12/12", ref.Spawned, ref.Exited)
	}
	if ref.Faults == 0 || ref.Ops == 0 {
		t.Fatalf("empty run: %d ops, %d faults", ref.Ops, ref.Faults)
	}
	// The THP region must actually produce the heavy tail the histogram
	// exists for: huge faults cost orders of magnitude more than 4KB ones.
	if ref.P99 <= ref.P50 {
		t.Errorf("p99 %d not above p50 %d; THP tail missing from the distribution", ref.P99, ref.P50)
	}
	forEachGOMAXPROCS(t, func(t *testing.T) {
		for _, workers := range churnVariants {
			alt := testChurn()
			alt.Workers = workers
			got, err := RunChurn(alt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.DeterministicEquals(ref) {
				t.Errorf("workers=%d diverged from reference:\nref: ops=%d faults=%d cycles=%d hist=%v\ngot: ops=%d faults=%d cycles=%d hist=%v",
					workers, ref.Ops, ref.Faults, ref.Cycles, ref.FaultHist,
					got.Ops, got.Faults, got.Cycles, got.FaultHist)
			}
		}
	})
}

// TestChurnValidate rejects structurally impossible specs.
func TestChurnValidate(t *testing.T) {
	c := testChurn()
	c.Fragmentation = 1.0
	if err := c.Validate(); err == nil {
		t.Error("fragmentation 1.0 accepted")
	}
	c = testChurn()
	c.PagesPerProc = 1 << 20 // more than a node holds
	if err := c.Validate(); err == nil {
		t.Error("per-process footprint beyond node capacity accepted")
	}
}

// TestChurnRecordReplays replays the committed BENCH_churn.json: the
// recorded canonical run must reproduce every deterministic field
// bit-for-bit on this build, or the record (and the determinism claim it
// documents) is stale.
func TestChurnRecordReplays(t *testing.T) {
	data, err := os.ReadFile("BENCH_churn.json")
	if err != nil {
		t.Skipf("no committed churn record: %v", err)
	}
	var rec struct {
		Result struct {
			Churn *ChurnResult `json:"churn"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Result.Churn == nil || rec.Result.Churn.Spawned == 0 {
		t.Fatal("BENCH_churn.json carries no churn result")
	}
	got, err := RunChurn(rec.Result.Churn.Churn)
	if err != nil {
		t.Fatal(err)
	}
	if !got.DeterministicEquals(rec.Result.Churn) {
		t.Errorf("replay diverged from committed record:\nrecorded: ops=%d faults=%d cycles=%d p99=%d\nreplayed: ops=%d faults=%d cycles=%d p99=%d",
			rec.Result.Churn.Ops, rec.Result.Churn.Faults, rec.Result.Churn.Cycles, rec.Result.Churn.P99,
			got.Ops, got.Faults, got.Cycles, got.P99)
	}
}
