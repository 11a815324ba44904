package hw

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pt/pttest"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/pvops/pvopstest"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// refAccess is inline Access as it was before it became a batch of one:
// the op charges the core's counters directly, each line its store walk
// took exclusively is dropped from every other socket's LLC at once
// through the locked path, and its AutoNUMA sample folds straight away,
// with atomics outside the single-writer bracket.
func (m *Machine) refAccess(core numa.CoreID, va pt.VirtAddr, write bool) error {
	c := m.core(core)
	if c.tctx.CR3 == mem.NilFrame {
		return ErrNoContext
	}
	socket := c.tctx.Socket
	armed := m.pm.PoisonCount() > 0
	c.busy.Store(1)
	err := m.accessOne(c, core, socket, c.tctx.Home, va, write, armed)
	c.busy.Store(0)
	for _, line := range c.pending {
		m.refInvalidateOthers(socket, line)
	}
	c.pending = c.pending[:0]
	if m.singleWriter {
		m.FoldSampling([]numa.CoreID{core})
	} else {
		m.refFoldAtomic(c, socket)
	}
	return err
}

// refAccessBatch is AccessBatch as it was: every store walk buffered its
// leaf line, a repeat of the line buffered last included, and outside the
// single-writer bracket the batch folded its own samples at its end, with
// atomics. Each op runs as a batch of one on an emptied buffer, so no walk
// sees a line to skip, and its lines join the ones held back.
func (m *Machine) refAccessBatch(core numa.CoreID, ops []AccessOp) error {
	c := m.core(core)
	var err error
	for i := range ops {
		held := c.pending
		c.pending = nil
		err = m.AccessBatch(core, ops[i:i+1])
		c.pending = append(held, c.pending...)
		if err != nil {
			break
		}
	}
	if !m.singleWriter {
		m.refFoldAtomic(c, m.topo.SocketOf(core))
	}
	return err
}

// refDrainCoherence is DrainCoherence as it was: core by core, each
// buffered line dropped from every other socket's LLC through the locked
// path, then the cores' samples folded in the same order.
func (m *Machine) refDrainCoherence(cores []numa.CoreID) {
	for _, core := range cores {
		c := m.core(core)
		for _, line := range c.pending {
			m.refInvalidateOthers(m.topo.SocketOf(core), line)
		}
		c.pending = c.pending[:0]
	}
	m.FoldSampling(cores)
}

func (m *Machine) refInvalidateOthers(owner numa.SocketID, line mmucache.LineID) {
	for s := range m.llcs {
		if numa.SocketID(s) != owner {
			m.llcs[s].Invalidate(line)
		}
	}
}

func (m *Machine) refFoldAtomic(c *coreState, socket numa.SocketID) {
	for _, s := range c.samples {
		meta := m.pm.Meta(s.Frame)
		atomic.StoreInt32(&meta.AccessSocket, int32(socket))
		if s.Local {
			atomic.AddUint32(&meta.LocalAccesses, s.Count)
		} else {
			atomic.AddUint32(&meta.RemoteAccesses, s.Count)
		}
	}
	c.samples = c.samples[:0]
}

// Where the reference stream's pages live: hugeBase starts a region of
// 2 MB pages, sparseBase one 4 KB page in each of several leaf tables, and
// the dense 4 KB pages start at denseBase, eight to a page-table line.
const (
	denseBase  = pt.VirtAddr(0x10000000)
	denseN     = 192
	sparseBase = pt.VirtAddr(0x40000000)
	sparseN    = 24
	hugeBase   = pt.VirtAddr(0x80000000)
	hugeN      = 6
)

// refRig is one of the twin machines the reference test drives: every
// core runs one address space whose pages fault in on first touch, 4 KB
// or 2 MB by region, with data and page tables on the toucher's node.
type refRig struct {
	m   *Machine
	pm  *mem.PhysMem
	mp  *pvops.Mapper
	ctx *pvops.OpCtx
}

func newRefRig(t *testing.T, sockets int) *refRig {
	t.Helper()
	topo := numa.NewTopology(sockets, 2)
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 1 << 14})
	cost := numa.NewCostModel(topo, numa.DefaultCostParams())
	spec := translate.Spec{Backend: os.Getenv("MITOSIS_TEST_BACKEND")}
	m := New(Config{Topology: topo, Cost: cost, Mem: pm, Backend: newBackend(t, spec, topo, cost, pm)})
	ctx := &pvops.OpCtx{}
	levels := m.Backend().Levels()
	mp, err := pvops.NewMapper(ctx, pm, pvopstest.NewNative(pm, cost), levels, pvops.PTPlacement{Primary: 0})
	if err != nil {
		t.Fatal(err)
	}
	r := &refRig{m: m, pm: pm, mp: mp, ctx: ctx}
	m.SetFaultHandler(r)
	for c := 0; c < topo.Cores(); c++ {
		m.LoadContext(numa.CoreID(c), mp.Root(), levels)
	}
	return r
}

// HandleFault maps the faulting page on the faulting core's node.
func (r *refRig) HandleFault(core numa.CoreID, va pt.VirtAddr, _ bool) (numa.Cycles, error) {
	topo := r.m.Topology()
	node := topo.NodeOf(topo.SocketOf(core))
	size, alloc := pt.Size4K, r.pm.AllocData
	if va >= hugeBase {
		size, alloc = pt.Size2M, r.pm.AllocHuge
	}
	f, err := alloc(node)
	if err != nil {
		return 0, err
	}
	place := pvops.PTPlacement{Primary: node}
	if err := r.mp.Map(r.ctx, pt.PageBase(va, size), size, f, pt.FlagWrite|pt.FlagUser, place); err != nil {
		return 0, err
	}
	return 3000, nil
}

// frameOf is the data frame an access to va samples (NilFrame while the
// page is unmapped).
func (r *refRig) frameOf(va pt.VirtAddr) mem.FrameID {
	leaf, size, ok := pttest.Lookup(r.mp.Table(), va)
	if !ok {
		return mem.NilFrame
	}
	e := tlb.Entry{Leaf: leaf, Size: size}
	return e.Frame(va)
}

// refVA draws one address of the reference stream: mostly dense pages, so
// cores of different sockets share leaf lines, some in their own leaf
// tables, some in 2 MB pages.
func refVA(rng *rand.Rand) pt.VirtAddr {
	off := pt.VirtAddr(rng.Intn(64) * 64)
	switch r := rng.Intn(10); {
	case r < 6:
		return denseBase + pt.VirtAddr(rng.Intn(denseN))<<pt.PageShift4K + off
	case r < 8:
		return sparseBase + pt.VirtAddr(uint64(rng.Intn(sparseN))*pt.Size2M.Bytes()) + off
	default:
		return hugeBase + pt.VirtAddr(uint64(rng.Intn(hugeN))*pt.Size2M.Bytes()) + pt.VirtAddr(rng.Intn(512))<<pt.PageShift4K + off
	}
}

// compareRigs fails unless the twins' counters, TLB statistics, LLC
// contents and the frame metadata of the given addresses' frames are
// equal.
func compareRigs(t *testing.T, step int, ref, got *refRig, vas []pt.VirtAddr) {
	t.Helper()
	topo := ref.m.Topology()
	for c := numa.CoreID(0); int(c) < topo.Cores(); c++ {
		if a, b := ref.m.Stats(c), got.m.Stats(c); a != b {
			t.Fatalf("step %d: core %d counters differ:\n ref %+v\n got %+v", step, c, a, b)
		}
		if a, b := ref.m.TLBStats(c), got.m.TLBStats(c); a != b {
			t.Fatalf("step %d: core %d TLB stats differ:\n ref %+v\n got %+v", step, c, a, b)
		}
	}
	if s := llcDiff(ref.m, got.m); s >= 0 {
		t.Fatalf("step %d: socket %d LLC differs: holds %d lines, reference %d", step, s, got.m.llcs[s].Resident(), ref.m.llcs[s].Resident())
	}
	for _, va := range vas {
		f := ref.frameOf(va)
		if g := got.frameOf(va); g != f {
			t.Fatalf("step %d: va %#x maps frame %d, reference %d", step, uint64(va), g, f)
		}
		if f == mem.NilFrame {
			continue
		}
		if a, b := *ref.pm.Meta(f), *got.pm.Meta(f); a != b {
			t.Fatalf("step %d: frame %d metadata differs:\n ref %+v\n got %+v", step, f, a, b)
		}
	}
}

// residentLines is the number of lines all of a machine's LLCs hold.
func residentLines(m *Machine) (n int) {
	for _, l := range m.llcs {
		n += l.Resident()
	}
	return n
}

// TestAccessAndDrainMatchReference drives the old inline Access and
// per-core DrainCoherence (the references above) and the new ones on twin
// machines with one seeded stream: single loads and stores on random
// cores, batches on random core subsets followed by a drain of those
// cores, and occasional TLB flushes so walks recur. Pages are shared
// across sockets and fault in on first touch, some as 2 MB pages. After
// every step the twins must agree on every counter and TLB statistic, the
// LLCs' contents and the touched frames' metadata. It runs on two and four
// sockets, outside and inside the single-writer bracket, under the
// backend MITOSIS_TEST_BACKEND names.
func TestAccessAndDrainMatchReference(t *testing.T) {
	for _, sockets := range []int{2, 4} {
		for _, owned := range []bool{false, true} {
			name := "locked"
			if owned {
				name = "owned"
			}
			t.Run(fmt.Sprintf("%s/%dsockets", name, sockets), func(t *testing.T) {
				ref, got := newRefRig(t, sockets), newRefRig(t, sockets)
				if owned {
					ref.m.BeginSingleWriter()
					got.m.BeginSingleWriter()
				}
				cores := ref.m.Topology().Cores()
				rng := rand.New(rand.NewSource(int64(7 + sockets)))
				var vas []pt.VirtAddr
				var faults uint64
				invalidated := 0 // lines the batch drains took out of got's LLCs
				for step := 0; step < 4000; step++ {
					vas = vas[:0]
					switch r := rng.Intn(20); {
					case r == 0:
						c := numa.CoreID(rng.Intn(cores))
						ref.m.FlushAll(c)
						got.m.FlushAll(c)
					case r < 15:
						c := numa.CoreID(rng.Intn(cores))
						va, write := refVA(rng), rng.Intn(2) == 0
						vas = append(vas, va)
						errRef := ref.m.refAccess(c, va, write)
						errGot := got.m.Access(c, va, write)
						if errRef != nil || errGot != nil {
							t.Fatalf("step %d: access errors: ref %v, got %v", step, errRef, errGot)
						}
					default:
						var batch []numa.CoreID
						for _, i := range rng.Perm(cores) {
							if rng.Intn(2) == 0 {
								batch = append(batch, numa.CoreID(i))
							}
						}
						for _, c := range batch {
							ops := make([]AccessOp, 1+rng.Intn(16))
							for i := range ops {
								ops[i] = AccessOp{VA: refVA(rng), Write: rng.Intn(2) == 0}
								vas = append(vas, ops[i].VA)
							}
							errRef := ref.m.refAccessBatch(c, ops)
							errGot := got.m.AccessBatch(c, ops)
							if errRef != nil || errGot != nil {
								t.Fatalf("step %d: batch errors: ref %v, got %v", step, errRef, errGot)
							}
						}
						held := residentLines(got.m)
						ref.m.refDrainCoherence(batch)
						got.m.DrainCoherence(batch)
						invalidated += held - residentLines(got.m)
					}
					compareRigs(t, step, ref, got, vas)
				}
				for c := numa.CoreID(0); int(c) < cores; c++ {
					faults += got.m.Stats(c).Faults
				}
				if faults == 0 || invalidated == 0 {
					t.Fatalf("stream took %d faults and %d LLC invalidations at batch drains; want both", faults, invalidated)
				}
			})
		}
	}
}
