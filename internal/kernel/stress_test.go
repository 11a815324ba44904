package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
)

// TestKernelStressRandomSyscalls drives the whole stack — mmap, munmap,
// mprotect, faults, replication-mask changes, process and page-table
// migration, AutoNUMA scans, THP splits — with random sequences and checks
// the global invariants after every run: all replicas translate every
// mapped page identically, no frame is leaked after teardown, and every
// mapped page is accessible while unmapped pages fault.
func TestKernelStressRandomSyscalls(t *testing.T) {
	core.Debug = true
	defer func() { core.Debug = false }()
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := New(Config{
			Topology:        numa.NewTopology(4, 2),
			FramesPerNode:   32768,
			THP:             r.Intn(2) == 0,
			PageCacheTarget: 16,
		})
		// The leak baseline counts the boot reservation: teardown drains
		// the pool before comparing.
		var before [4]uint64
		for n := 0; n < 4; n++ {
			before[n] = k.pm.FreeFrames(numa.NodeID(n)) + uint64(k.cache.Cached(numa.NodeID(n)))
		}

		p, err := k.CreateProcess(ProcessOpts{
			Name: "stress",
			Home: numa.SocketID(r.Intn(4)),
		})
		if err != nil {
			t.Log(err)
			return false
		}
		if err := k.RunOnSocket(p, p.home); err != nil {
			t.Log(err)
			return false
		}

		type region struct {
			base pt.VirtAddr
			size uint64
		}
		var regions []region

		for op := 0; op < 60; op++ {
			switch r.Intn(11) {
			case 0, 1, 2: // mmap
				size := uint64(r.Intn(63)+1) * 4096 * uint64(r.Intn(8)+1)
				base, err := k.Mmap(p, size, MmapOpts{
					Writable: true,
					THP:      r.Intn(2) == 0,
					Populate: r.Intn(2) == 0,
				})
				if err != nil {
					t.Logf("mmap: %v", err)
					return false
				}
				regions = append(regions, region{base, roundUp(size, 4096)})
			case 3: // munmap
				if len(regions) == 0 {
					continue
				}
				i := r.Intn(len(regions))
				if err := k.Munmap(p, regions[i].base); err != nil {
					t.Logf("munmap: %v", err)
					return false
				}
				regions = append(regions[:i], regions[i+1:]...)
			case 4: // mprotect round-trip
				if len(regions) == 0 {
					continue
				}
				v := regions[r.Intn(len(regions))]
				if err := k.Mprotect(p, v.base, false); err != nil {
					t.Logf("mprotect: %v", err)
					return false
				}
				if err := k.Mprotect(p, v.base, true); err != nil {
					t.Logf("mprotect back: %v", err)
					return false
				}
			case 5, 6: // faulting accesses
				if len(regions) == 0 {
					continue
				}
				v := regions[r.Intn(len(regions))]
				for i := 0; i < 8; i++ {
					va := v.base + pt.VirtAddr(uint64(r.Intn(int(v.size/4096)))*4096)
					if err := hwtest.Access(k.machine, p.Cores()[0], va, r.Intn(2) == 0); err != nil {
						t.Logf("access: %v", err)
						return false
					}
				}
			case 7: // replication mask change
				var nodes []numa.NodeID
				for n := numa.NodeID(0); n < 4; n++ {
					if r.Intn(2) == 0 {
						nodes = append(nodes, n)
					}
				}
				if err := p.SetReplicationMask(nodes); err != nil {
					t.Logf("setmask: %v", err)
					return false
				}
			case 8: // process migration
				target := numa.SocketID(r.Intn(4))
				if err := k.MigrateProcess(p, target, MigrateOpts{
					Data:       r.Intn(2) == 0,
					PageTables: r.Intn(2) == 0,
					KeepOrigin: r.Intn(2) == 0,
				}); err != nil {
					t.Logf("migrate: %v", err)
					return false
				}
			case 9: // page-table migration only
				if err := k.MigratePT(p, numa.NodeID(r.Intn(4)), r.Intn(2) == 0); err != nil {
					t.Logf("migratePT: %v", err)
					return false
				}
			case 10: // AutoNUMA scan
				k.AutoNUMAScan(p, DefaultAutoNUMAConfig())
			}
		}

		// Invariant: all replicas translate all mapped pages identically.
		roots := map[numa.NodeID]*pt.Table{}
		for s := numa.SocketID(0); s < 4; s++ {
			root := p.Space().RootFor(s)
			roots[k.pm.NodeOf(root)] = pt.NewTable(k.pm, root, k.levels)
		}
		primary := p.Table()
		for _, v := range regions {
			for off := uint64(0); off < v.size; off += 4096 {
				va := v.base + pt.VirtAddr(off)
				pe, _, pok := pttest.Lookup(primary, va)
				for _, tbl := range roots {
					e, _, ok := pttest.Lookup(tbl, va)
					if ok != pok || (ok && e.Frame() != pe.Frame()) {
						t.Logf("replica divergence at %#x", uint64(va))
						return false
					}
				}
			}
		}

		// Teardown leaks nothing.
		k.DestroyProcess(p)
		k.cacheDrainForTest()
		for n := 0; n < 4; n++ {
			if got := k.pm.FreeFrames(numa.NodeID(n)); got != before[n] {
				t.Logf("node %d: %d frames leaked (seed %d)", n, before[n]-got, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// cacheDrainForTest empties the page-cache reservation so leak accounting
// sees every frame.
func (k *Kernel) cacheDrainForTest() { k.cache.Drain() }
