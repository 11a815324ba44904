package mitosis

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
)

// TestMachineShapeLimits pins that a machine too large to boot is rejected
// by validation with an actionable error — on strict JSON decode, on Run,
// and by sweep and churn validation — instead of crashing the process in
// the allocator (makeslice out of range, or a fatal out-of-memory).
func TestMachineShapeLimits(t *testing.T) {
	cases := []struct {
		name    string
		machine string // the scenario's machine section, as JSON
		want    string
	}{
		{"huge memory per node", `{"memory_per_node":4611686018427387904}`, "memory_per_node 4611686018427387904 exceeds the limit"},
		{"huge socket count", `{"sockets":1099511627776}`, "sockets 1099511627776 plus 0 tier nodes exceed the limit of 64"},
		{"negative sockets", `{"sockets":-1}`, "non-negative"},
		{"too many cores", `{"cores_per_socket":100000}`, "cores_per_socket 100000 exceeds the limit of 256"},
		{"too many tier nodes", `{"sockets":63,"tiers":"cxl@0,cxl@1"}`, "sockets 63 plus 2 tier nodes exceed the limit of 64"},
		{"too much memory in total", `{"sockets":32,"memory_per_node":1099511627776}`, "exceeds the limit of 17592186044416 (16 TiB)"},
		{"tiny memory", `{"memory_per_node":1048576}`, "below one 2MB block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m SystemConfig
			if err := json.Unmarshal([]byte(tc.machine), &m); err != nil {
				t.Fatal(err)
			}
			noPanic(t, func() {
				sc := NewScenario("big", OnMachine(m),
					WithProc(NewProc("w", GUPS(Scaled(1.0/64)), WithPhases(Measure(10)))))
				if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("Run: error %v, want one mentioning %q", err, tc.want)
				}
				data, err := json.Marshal(NewScenario("ok",
					WithProc(NewProc("w", GUPS(Scaled(1.0/64)), WithPhases(Measure(10))))))
				if err != nil {
					t.Fatal(err)
				}
				doc := strings.Replace(string(data), `"name":"ok"`, `"name":"ok","machine":`+tc.machine, 1)
				var back Scenario
				if err := json.Unmarshal([]byte(doc), &back); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("strict decode: error %v, want one mentioning %q", err, tc.want)
				}
				sw := Sweep{Machine: m, Workloads: []string{"GUPS"}}
				if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("Sweep.Validate: error %v, want one mentioning %q", err, tc.want)
				}
				if _, err := RunChurn(Churn{Machine: m}); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("RunChurn: error %v, want one mentioning %q", err, tc.want)
				}
			})
		})
	}

	// A per-cell tier axis is checked against the limit as well.
	sw := Sweep{Machine: SystemConfig{Sockets: 64}, Workloads: []string{"GUPS"}, Tiers: []string{"", "cxl@0"}}
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), `tiers "cxl@0"`) {
		t.Errorf("sweep tier axis over the node limit: error %v", err)
	}
	// The limits themselves validate (nothing here boots them).
	for _, m := range []SystemConfig{
		{Sockets: 64, CoresPerSocket: 256, MemoryPerNode: 256 << 30},
		{Sockets: 16, MemoryPerNode: 1 << 40},
	} {
		if err := m.checkShape(); err != nil {
			t.Errorf("%+v: %v", m, err)
		}
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invalid SystemConfig") {
				t.Errorf("NewSystem on a huge machine: recovered %v, want an invalid-SystemConfig panic", r)
			}
		}()
		NewSystem(SystemConfig{Sockets: 1 << 40})
	}()
}

func noPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked: %v", r)
		}
	}()
	f()
}

// bootHeap returns the live heap a freshly booted machine adds.
func bootHeap(cfg SystemConfig) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys := NewSystem(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestBootFootprint pins that booting costs host memory in proportion to
// the machine's shape, not to its simulated capacity: per-frame metadata
// is created only for the 2MB groups a run allocates. With it created at
// boot, a 4 x 2GB machine adds about 82 MB and a 4 x 512MB one about 21 MB.
func TestBootFootprint(t *testing.T) {
	const mb = 1 << 20
	big := bootHeap(SystemConfig{MemoryPerNode: 2 << 30})
	small := bootHeap(SystemConfig{MemoryPerNode: 512 << 20})
	t.Logf("boot heap: 4 x 2GB +%.1f MB, 4 x 512MB +%.1f MB", float64(big)/mb, float64(small)/mb)
	if big >= 8*mb {
		t.Errorf("booting 4 x 2GB nodes added %.1f MB of heap, want under 8 MB", float64(big)/mb)
	}
	if d := big - small; d >= 2*mb || d <= -2*mb {
		t.Errorf("4 x 2GB and 4 x 512MB boots differ by %.1f MB of heap, want under 2 MB", float64(d)/mb)
	}
}

// TestFrameMetaSize pins the per-frame metadata every frame of a touched
// 2MB group pays for at 16 bytes: the table payload and the replica-ring
// link live in page-table blocks, which exist only where tables have
// lived. With both in the metadata chunk a frame cost 40 bytes.
func TestFrameMetaSize(t *testing.T) {
	if got := unsafe.Sizeof(mem.FrameMeta{}); got != 16 {
		t.Errorf("FrameMeta is %d bytes, want 16", got)
	}
}

// TestPopulateFootprint pins the host memory a populated 4KB page costs,
// its leaf table's share included: 16 bytes of metadata plus 8 of leaf
// table, 24.7 bytes measured on 256 MB. With the payload pointer and the
// ring link in every frame's metadata it was 46.7.
func TestPopulateFootprint(t *testing.T) {
	const size = 256 << 20
	sys := NewSystem(SystemConfig{})
	k := sys.Kernel()
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "populate", Home: 0})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := k.Mmap(p, size, kernel.MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	perPage := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (size / mem.FrameSize)
	t.Logf("populating %d MB: %.1f B of heap per 4KB page", size>>20, perPage)
	if perPage >= 36 {
		t.Errorf("a populated 4KB page costs %.1f B of heap, want under 36", perPage)
	}
}

// TestBootReservationHoldsNoTables pins that the page-cache reservation
// (64 frames a node by default) holds frames, not tables: a 4 x 512MB boot
// adds 616 KB of heap. With a zeroed 4KB table attached to every reserved
// frame it added 1,629 KB.
func TestBootReservationHoldsNoTables(t *testing.T) {
	const kb = 1 << 10
	heap := bootHeap(SystemConfig{MemoryPerNode: 512 << 20})
	t.Logf("boot heap: 4 x 512MB +%d KB", heap/kb)
	if heap >= 1024*kb {
		t.Errorf("booting 4 x 512MB nodes added %d KB of heap, want under 1024 KB", heap/kb)
	}
}
