package mem

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// frameModel is the reference state of one frame: what its metadata, its
// page-table payload and its replica link should read. The zero value with
// next NilFrame is a free frame; the model keeps only the others.
type frameModel struct {
	kind       Kind
	level      uint8
	head, tail bool
	next       FrameID
	payload    bool
}

// layoutRef drives a PhysMem and its PageCache next to a map-based model
// of every frame's state and checks, after each operation, that the two
// agree frame by frame.
type layoutRef struct {
	t     *testing.T
	rng   *rand.Rand
	pm    *PhysMem
	pc    *PageCache
	model map[FrameID]frameModel
	// The live frames an operation may pick: 4KB data frames, frames
	// holding a table (from AllocPageTable or AllocPT), and huge bases.
	data, tables, huge []FrameID
}

func (r *layoutRef) set(f FrameID, fm frameModel) {
	if fm == (frameModel{next: NilFrame}) {
		delete(r.model, f)
		return
	}
	r.model[f] = fm
}

func (r *layoutRef) get(f FrameID) frameModel {
	if fm, ok := r.model[f]; ok {
		return fm
	}
	return frameModel{next: NilFrame}
}

// attached checks that a payload just attached to f is zero, then dirties
// all of it, so a later reuse that skips zeroing shows.
func (r *layoutRef) attached(op string, f FrameID) {
	tbl := r.pm.Table(f)
	for i, e := range tbl {
		if e != 0 {
			r.t.Fatalf("%s: frame %d payload entry %d = %#x, want a zeroed table", op, f, i, e)
		}
	}
	for i := range tbl {
		tbl[i] = uint64(f)<<9 | uint64(i) | 1
	}
}

// park records the pool's frames as reserved: page tables at level 0
// without a payload.
func (r *layoutRef) park() {
	for _, pool := range r.pc.pools {
		for _, f := range pool {
			r.set(f, frameModel{kind: KindPageTable, next: NilFrame})
		}
	}
}

// check compares every frame of every group that has a chunk with the
// model (a group without one must be free in it), and each node's counters
// with the model's counts.
func (r *layoutRef) check(op string) {
	r.t.Helper()
	for f, fm := range r.model {
		if r.pm.chunks[uint64(f)/HugeFrames] == nil {
			r.t.Fatalf("%s: frame %d is %+v in the model, but its group has no chunk", op, f, fm)
		}
	}
	per := r.pm.framesPerNode
	used := make([][2]uint64, len(r.pm.nodes)) // data, page table
	for g, c := range r.pm.chunks {
		if c == nil {
			continue
		}
		for i := range HugeFrames {
			f := FrameID(g*HugeFrames + i)
			want, m := r.get(f), c.meta[i]
			got := frameModel{
				kind: m.Kind, level: m.PTLevel, head: m.HugeHead, tail: m.HugeTail,
				next:    r.pm.ReplicaNext(f),
				payload: r.pm.block(f).tables[f%blockFrames] != nil,
			}
			if got != want {
				r.t.Fatalf("%s: frame %d reads %+v, model %+v", op, f, got, want)
			}
			switch m.Kind {
			case KindData:
				used[uint64(f)/per][0]++
			case KindPageTable:
				used[uint64(f)/per][1]++
			}
		}
	}
	for n := range r.pm.nodes {
		id := numa.NodeID(n)
		if d, p, free := r.pm.AllocatedData(id), r.pm.AllocatedPT(id), r.pm.FreeFrames(id); d != used[n][0] || p != used[n][1] || free != per-d-p {
			r.t.Fatalf("%s: node %d counts %d data, %d tables, %d free; frames read %d data, %d tables", op, n, d, p, free, used[n][0], used[n][1])
		}
	}
}

// pick removes and returns a random element of *s.
func (r *layoutRef) pick(s *[]FrameID) FrameID {
	i := r.rng.Intn(len(*s))
	f := (*s)[i]
	(*s)[i] = (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return f
}

// TestLayoutMatchesModel drives one seeded random sequence of data, huge,
// table and guest-table allocations, frees, pool Refill/AllocPT/FreePT/
// Drain, ring links and Resets through a small machine and a reference
// model of every frame's kind, level, huge marks, replica link and payload,
// checking after every step that they agree, that every payload handed out
// is zero, and that each Reset and Refill reproduces the boot pool.
func TestLayoutMatchesModel(t *testing.T) {
	const nodes = 4
	pm := New(Config{Topology: numa.NewTopology(nodes, 1), FramesPerNode: 4 * HugeFrames})
	r := &layoutRef{t: t, rng: rand.New(rand.NewSource(28)), pm: pm, pc: NewPageCache(pm, 8), model: map[FrameID]frameModel{}}
	r.pc.Refill()
	r.park()
	boot := make([][]FrameID, nodes)
	for n := range boot {
		boot[n] = slices.Clone(r.pc.pools[n])
	}
	r.check("boot")
	counts := map[string]int{}
	for step := range 3000 {
		node := numa.NodeID(r.rng.Intn(nodes))
		level := uint8(1 + r.rng.Intn(5))
		var op string
		switch k := r.rng.Intn(100); {
		case k < 14:
			op = "AllocData"
			if f, err := pm.AllocData(node); err == nil {
				r.set(f, frameModel{kind: KindData, next: NilFrame})
				r.data = append(r.data, f)
			}
		case k < 18:
			op = "AllocHuge"
			if base, err := pm.AllocHuge(node); err == nil {
				for i := range FrameID(HugeFrames) {
					r.set(base+i, frameModel{kind: KindData, head: i == 0, tail: i != 0, next: NilFrame})
				}
				r.huge = append(r.huge, base)
			}
		case k < 30:
			op = "AllocPageTable"
			if f, err := pm.AllocPageTable(node, level); err == nil {
				r.attached(op, f)
				r.set(f, frameModel{kind: KindPageTable, level: level, next: NilFrame, payload: true})
				r.tables = append(r.tables, f)
			}
		case k < 36:
			op = "ProvisionTable"
			var f FrameID
			switch {
			case len(r.huge) > 0 && r.rng.Intn(2) == 0:
				f = r.huge[r.rng.Intn(len(r.huge))] + FrameID(r.rng.Intn(HugeFrames))
			case len(r.data) > 0:
				f = r.data[r.rng.Intn(len(r.data))]
			default:
				continue
			}
			fm := r.get(f)
			pm.ProvisionTable(f)
			if !fm.payload {
				r.attached(op, f)
				fm.payload = true
				r.set(f, fm)
			}
		case k < 50:
			op = "AllocPT"
			if f, err := r.pc.AllocPT(node, level); err == nil {
				r.attached(op, f)
				r.set(f, frameModel{kind: KindPageTable, level: level, next: NilFrame, payload: true})
				r.tables = append(r.tables, f)
			}
		case k < 58:
			op = "Free"
			var f FrameID
			switch {
			case len(r.tables) > 0 && r.rng.Intn(2) == 0:
				f = r.pick(&r.tables) // linked or not
			case len(r.data) > 0:
				f = r.pick(&r.data)
			default:
				continue
			}
			pm.Free(f)
			r.set(f, frameModel{next: NilFrame})
		case k < 68:
			op = "FreePT"
			if len(r.tables) == 0 {
				continue
			}
			f := r.pick(&r.tables)
			pm.SetReplicaNext(f, NilFrame)
			r.pc.FreePT(f)
			if slices.Contains(r.pc.pools[pm.NodeOf(f)], f) {
				r.set(f, frameModel{kind: KindPageTable, next: NilFrame})
			} else {
				r.set(f, frameModel{next: NilFrame})
			}
		case k < 72:
			op = "FreeHuge"
			if len(r.huge) == 0 {
				continue
			}
			base := r.pick(&r.huge)
			pm.FreeHuge(base)
			for i := range FrameID(HugeFrames) {
				r.set(base+i, frameModel{next: NilFrame})
			}
		case k < 88:
			op = "SetReplicaNext"
			if len(r.tables) == 0 {
				continue
			}
			a, b := r.tables[r.rng.Intn(len(r.tables))], r.tables[r.rng.Intn(len(r.tables))]
			if r.rng.Intn(4) == 0 {
				b = NilFrame
			}
			pm.SetReplicaNext(a, b)
			fm := r.get(a)
			fm.next = b
			r.set(a, fm)
		case k < 93:
			op = "Refill"
			r.pc.Refill()
			r.park()
		case k < 98:
			op = "Drain"
			for _, pool := range r.pc.pools {
				for _, f := range pool {
					r.set(f, frameModel{next: NilFrame})
				}
			}
			r.pc.Drain()
		default:
			op = "Reset"
			r.pc.Reset()
			pm.Reset()
			r.pc.Refill()
			clear(r.model)
			r.data, r.tables, r.huge = r.data[:0], r.tables[:0], r.huge[:0]
			r.park()
			for n := range boot {
				if !slices.Equal(r.pc.pools[n], boot[n]) {
					t.Fatalf("step %d: node %d pool after Reset and Refill = %v, boot pool %v", step, n, r.pc.pools[n], boot[n])
				}
			}
		}
		counts[op]++
		r.check(op)
	}
	t.Logf("operations: %v", counts)
	for _, op := range []string{"AllocData", "AllocHuge", "AllocPageTable", "ProvisionTable", "AllocPT", "Free", "FreePT", "FreeHuge", "SetReplicaNext", "Refill", "Drain", "Reset"} {
		if counts[op] < 20 {
			t.Errorf("%s ran %d times, want at least 20", op, counts[op])
		}
	}
}
