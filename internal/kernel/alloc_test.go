package kernel

import (
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// TestMprotectZeroAlloc pins that mprotect collects the pages it rewrites
// in the kernel's reused buffer, as munmap does: toggling the write bit of
// a populated 1,024-page VMA allocates nothing once the buffer has grown,
// natively and in a VM.
func TestMprotectZeroAlloc(t *testing.T) {
	for _, vm := range []bool{false, true} {
		name := "native"
		if vm {
			name = "vm"
		}
		t.Run(name, func(t *testing.T) {
			k := New(Config{Topology: numa.NewTopology(2, 2), FramesPerNode: 1 << 15})
			opts := ProcessOpts{Name: "mprotect", Home: 0}
			if vm {
				v, err := k.CreateVM(0)
				if err != nil {
					t.Fatal(err)
				}
				opts.VM = v
			}
			p := newProc(t, k, opts)
			if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
				t.Fatal(err)
			}
			base, err := k.Mmap(p, 1024<<12, MmapOpts{Writable: true, Populate: true})
			if err != nil {
				t.Fatal(err)
			}
			writable := false
			allocs := testing.AllocsPerRun(20, func() {
				if err := k.Mprotect(p, base, writable); err != nil {
					t.Fatal(err)
				}
				writable = !writable
			})
			if allocs != 0 {
				t.Errorf("mprotect of 1,024 pages allocates %.1f times a call, want 0", allocs)
			}
		})
	}
}

// TestVMPolicyTickZeroAlloc pins that a VM process's replication-policy
// tick reads its replica nodes into the engine's buffer, as a native
// process's does: ondemand over 16 MB in a VM on a 2 x 2 machine ticks
// without allocating.
func TestVMPolicyTickZeroAlloc(t *testing.T) {
	k := New(Config{Topology: numa.NewTopology(2, 2), FramesPerNode: 1 << 15})
	vm, err := k.CreateVM(0)
	if err != nil {
		t.Fatal(err)
	}
	p := newProc(t, k, ProcessOpts{Name: "guest", Home: 0, VM: vm})
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 16<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	pol, err := k.NewPolicy("ondemand")
	if err != nil {
		t.Fatal(err)
	}
	e := k.AttachPolicy(p, pol, PolicyEngineConfig{})
	e.RunStart()
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		round++
		if err := e.Tick(round); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("VM policy tick allocates %.1f times a tick, want 0", allocs)
	}
	if log := e.ActionLog(); len(log) != 0 {
		t.Fatalf("ondemand acted without walks: %v", log)
	}
}
