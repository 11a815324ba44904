package kernel

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw/hwtest"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
)

// TestStressSeedReproducer replays a failing stress seed with per-op
// divergence checks so regressions localize to the responsible operation.
func TestStressSeedReproducer(t *testing.T) {
	seed := int64(4152681440998811289)
	if s := os.Getenv("STRESS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		seed = v
	}
	core.Debug = true
	defer func() { core.Debug = false }()
	r := rand.New(rand.NewSource(seed))
	k := New(Config{Topology: numa.NewTopology(4, 2), FramesPerNode: 32768, THP: r.Intn(2) == 0, PageCacheTarget: 16})

	p, err := k.CreateProcess(ProcessOpts{Name: "stress", Home: numa.SocketID(r.Intn(4))})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunOnSocket(p, p.home); err != nil {
		t.Fatal(err)
	}

	type region struct {
		base pt.VirtAddr
		size uint64
	}
	var regions []region

	check := func(op int, what string) {
		t.Helper()
		// Structural validation: every interior entry of every replica tree
		// must point at a page-table frame (no dangling pointers into
		// freed/reused frames).
		for s := numa.SocketID(0); s < 4; s++ {
			root := p.Space().RootFor(s)
			tbl := pt.NewTable(k.pm, root, k.levels)
			tbl.Visit(func(level uint8, ref pt.EntryRef, e pt.PTE) bool {
				if level > 1 && !e.Huge() {
					meta := k.pm.Meta(e.Frame())
					if meta.Kind != mem.KindPageTable || meta.PTLevel != level-1 {
						t.Fatalf("op %d (%s): socket %d: L%d entry frame=%d idx=%d -> frame %d kind=%v ptlevel=%d (dangling)",
							op, what, s, level, ref.Frame, ref.Index, e.Frame(), meta.Kind, meta.PTLevel)
					}
				}
				return true
			})
		}
		primary := p.Table()
		for s := numa.SocketID(0); s < 4; s++ {
			root := p.Space().RootFor(s)
			tbl := pt.NewTable(k.pm, root, k.levels)
			for _, v := range regions {
				for off := uint64(0); off < v.size; off += 4096 {
					va := v.base + pt.VirtAddr(off)
					pe, _, pok := pttest.Lookup(primary, va)
					e, _, ok := pttest.Lookup(tbl, va)
					if ok != pok || (ok && e.Frame() != pe.Frame()) {
						forensics(t, k, p, va, s)
						t.Fatalf("op %d (%s): divergence at %#x on socket %d (primary ok=%v, replica ok=%v)",
							op, what, uint64(va), s, pok, ok)
					}
				}
			}
		}
	}

	for op := 0; op < 60; op++ {
		var what string
		switch r.Intn(11) {
		case 0, 1, 2:
			what = "mmap"
			size := uint64(r.Intn(63)+1) * 4096 * uint64(r.Intn(8)+1)
			base, err := k.Mmap(p, size, MmapOpts{Writable: true, THP: r.Intn(2) == 0, Populate: r.Intn(2) == 0})
			if err != nil {
				t.Fatal(err)
			}
			regions = append(regions, region{base, roundUp(size, 4096)})
		case 3:
			what = "munmap"
			if len(regions) == 0 {
				continue
			}
			i := r.Intn(len(regions))
			if err := k.Munmap(p, regions[i].base); err != nil {
				t.Fatal(err)
			}
			regions = append(regions[:i], regions[i+1:]...)
		case 4:
			what = "mprotect"
			if len(regions) == 0 {
				continue
			}
			v := regions[r.Intn(len(regions))]
			if err := k.Mprotect(p, v.base, false); err != nil {
				t.Fatal(err)
			}
			if err := k.Mprotect(p, v.base, true); err != nil {
				t.Fatal(err)
			}
		case 5, 6:
			what = "access"
			if len(regions) == 0 {
				continue
			}
			v := regions[r.Intn(len(regions))]
			for i := 0; i < 8; i++ {
				va := v.base + pt.VirtAddr(uint64(r.Intn(int(v.size/4096)))*4096)
				if err := hwtest.Access(k.machine, p.Cores()[0], va, r.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
			}
		case 7:
			what = "setmask"
			var nodes []numa.NodeID
			for n := numa.NodeID(0); n < 4; n++ {
				if r.Intn(2) == 0 {
					nodes = append(nodes, n)
				}
			}
			if err := p.SetReplicationMask(nodes); err != nil {
				t.Fatal(err)
			}
		case 8:
			what = "migrate-proc"
			target := numa.SocketID(r.Intn(4))
			if err := k.MigrateProcess(p, target, MigrateOpts{
				Data: r.Intn(2) == 0, PageTables: r.Intn(2) == 0, KeepOrigin: r.Intn(2) == 0,
			}); err != nil {
				t.Fatal(err)
			}
		case 9:
			what = "migrate-pt"
			if err := k.MigratePT(p, numa.NodeID(r.Intn(4)), r.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		case 10:
			what = "autonuma"
			k.AutoNUMAScan(p, DefaultAutoNUMAConfig())
		}
		t.Logf("op %d: %s (mask=%v primary=%d)", op, what, p.Space().Mask(), p.Space().PrimaryNode())
		check(op, what)
	}
}

// forensics dumps the walk of the diverging VA on both trees.
func forensics(t *testing.T, k *Kernel, p *Process, va pt.VirtAddr, s numa.SocketID) {
	t.Helper()
	dump := func(label string, root mem.FrameID) {
		steps, ok := refWalk(pt.NewTable(k.pm, root, k.levels), va)
		t.Logf("%s root=%d(node %d): steps=%d ok=%v", label, root, k.pm.NodeOf(root), len(steps), ok)
		for _, st := range steps {
			ring := ""
			cur := st.ref.Frame
			for j := 0; j < 8; j++ {
				ring += fmt.Sprintf("%d(n%d) ", cur, k.pm.NodeOf(cur))
				nxt := k.pm.ReplicaNext(cur)
				if nxt == mem.NilFrame || nxt == st.ref.Frame {
					break
				}
				cur = nxt
			}
			t.Logf("  L%d frame=%d idx=%d entry=%v ring=[%s]", st.level, st.ref.Frame, st.ref.Index, st.entry, ring)
		}
	}
	dump("primary", p.mapper.Root())
	dump("replica", p.Space().RootFor(s))
}
