package workloads

import (
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/mem/memtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// smallKernel builds a kernel big enough for shrunken workload footprints.
func smallKernel(t testing.TB) *kernel.Kernel {
	t.Helper()
	return kernel.New(kernel.Config{
		Topology:      numa.NewTopology(4, 2),
		FramesPerNode: 65536, // 256MB per node
	})
}

// shrink gives every workload a tiny footprint so tests stay fast.
func shrink(w Workload) Workload {
	switch v := w.(type) {
	case *GUPS:
		v.FootprintBytes = 16 << 20
	case *BTree:
		v.FootprintBytes = 16 << 20
	case *HashJoin:
		v.FootprintBytes = 16 << 20
	case *XSBench:
		v.FootprintBytes = 16 << 20
	case *Canneal:
		v.FootprintBytes = 16 << 20
	case *PageRank:
		v.FootprintBytes = 16 << 20
	case *LibLinear:
		v.FootprintBytes = 16 << 20
	case *Graph500:
		v.FootprintBytes = 16 << 20
	case *STREAM:
		v.FootprintBytes = 16 << 20
	case *kvStore:
		v.footprintBytes = 16 << 20
	}
	return w
}

func setupEnv(t *testing.T, k *kernel.Kernel, w Workload, sockets int) *Env {
	t.Helper()
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for s := 0; s < sockets; s++ {
		cores = append(cores, k.Topology().FirstCoreOf(numa.SocketID(s)))
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestAllWorkloadsSetupAndRun(t *testing.T) {
	all := append(MultiSocketSuite(), MigrationSuite()...)
	all = append(all, NewSTREAM())
	seen := map[string]bool{}
	for _, w := range all {
		key := w.Name()
		if seen[key] {
			key += "-wm"
		}
		seen[w.Name()] = true
		w := shrink(w)
		t.Run(key, func(t *testing.T) {
			k := smallKernel(t)
			env := setupEnv(t, k, w, 2)
			res, err := Run(env, w, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Total.Ops != 4000 {
				t.Errorf("Ops = %d, want 4000", res.Total.Ops)
			}
			if res.Makespan == 0 {
				t.Error("no cycles accumulated")
			}
			if res.Total.Walks == 0 {
				t.Errorf("%s: no page walks at all — footprint fits the TLB?", w.Name())
			}
		})
	}
}

func TestSuitesMatchPaperOrder(t *testing.T) {
	ms := MultiSocketSuite()
	wantMS := []string{"Canneal", "Memcached", "XSBench", "Graph500", "HashJoin", "BTree"}
	for i, w := range ms {
		if w.Name() != wantMS[i] {
			t.Errorf("MS[%d] = %s, want %s", i, w.Name(), wantMS[i])
		}
	}
	wm := MigrationSuite()
	wantWM := []string{"GUPS", "BTree", "HashJoin", "Redis", "XSBench", "PageRank", "LibLinear", "Canneal"}
	for i, w := range wm {
		if w.Name() != wantWM[i] {
			t.Errorf("WM[%d] = %s, want %s", i, w.Name(), wantWM[i])
		}
	}
}

func TestByName(t *testing.T) {
	if w := ByName("GUPS", "wm"); w == nil || w.Name() != "GUPS" {
		t.Error("ByName(GUPS, wm) failed")
	}
	if w := ByName("Memcached", "ms"); w == nil {
		t.Error("ByName(Memcached, ms) failed")
	}
	if w := ByName("STREAM", ""); w == nil {
		t.Error("ByName(STREAM) failed")
	}
	if w := ByName("NoSuch", ""); w != nil {
		t.Error("ByName(NoSuch) returned a workload")
	}
}

func TestInitSingleSkewsPlacement(t *testing.T) {
	k := smallKernel(t)
	w := shrink(NewGUPS()).(*GUPS)
	env := setupEnv(t, k, w, 4) // 4 sockets scheduled, init from core 0
	_ = env
	// Single-threaded init: all data and page-tables on socket 0's node.
	for n := numa.NodeID(1); n < 4; n++ {
		if got := memtest.AllocatedPT(k.Mem(), n); got != 0 {
			t.Errorf("node %d has %d PT pages after single-threaded init", n, got)
		}
	}
	if memtest.AllocatedPT(k.Mem(), 0) == 0 {
		t.Error("no PT pages on init socket")
	}
}

func TestInitPartitionedSpreadsPlacement(t *testing.T) {
	k := smallKernel(t)
	w := shrink(NewBTreeMS()).(*BTree)
	env := setupEnv(t, k, w, 4)
	_ = env
	spread := 0
	for n := numa.NodeID(0); n < 4; n++ {
		if memtest.AllocatedPT(k.Mem(), n) > 0 {
			spread++
		}
	}
	if spread < 3 {
		t.Errorf("PT pages on only %d nodes after partitioned init, want >= 3", spread)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() numa.Cycles {
		k := smallKernel(t)
		w := shrink(NewGUPS())
		env := setupEnv(t, k, w, 2)
		res, err := Run(env, w, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs diverged: %d vs %d cycles", a, b)
	}
}

func TestGUPSIsAllWrites(t *testing.T) {
	k := smallKernel(t)
	w := shrink(NewGUPS())
	env := setupEnv(t, k, w, 1)
	step := w.NewThread(env, 0)
	for i := 0; i < 100; i++ {
		va, write := step()
		if !write {
			t.Fatal("GUPS op is not a write")
		}
		r := env.Region("table")
		if va < r.Base || va >= r.Base+pt.VirtAddr(r.Size) {
			t.Fatalf("GUPS address %#x outside table", uint64(va))
		}
	}
}

func TestCannealWriteFraction(t *testing.T) {
	k := smallKernel(t)
	w := shrink(NewCanneal())
	env := setupEnv(t, k, w, 1)
	step := w.NewThread(env, 0)
	writes := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if _, write := step(); write {
			writes++
		}
	}
	if writes != n/2 {
		t.Errorf("canneal writes = %d/%d, want exactly half", writes, n)
	}
}

func TestStreamIsSequential(t *testing.T) {
	k := smallKernel(t)
	w := shrink(NewSTREAM())
	env := setupEnv(t, k, w, 1)
	step := w.NewThread(env, 0)
	prev, _ := step()
	for i := 0; i < 100; i++ {
		cur, _ := step()
		if cur != prev+64 {
			t.Fatalf("stream not sequential: %#x -> %#x", uint64(prev), uint64(cur))
		}
		prev = cur
	}
}

func TestRunRequiresSchedule(t *testing.T) {
	k := smallKernel(t)
	p, err := k.CreateProcess(kernel.ProcessOpts{Home: 0})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 1)
	if _, err := Run(env, NewGUPS(), 10); err == nil {
		t.Error("Run succeeded without scheduling")
	}
}
