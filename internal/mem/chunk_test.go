package mem

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// chunksCreated counts the 2MB groups whose metadata chunk exists.
func chunksCreated(pm *PhysMem) int {
	n := 0
	for _, c := range pm.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestChunksFollowAllocation pins the footprint contract: a fresh machine
// holds no per-frame metadata, each allocation creates at most its own
// group's chunk, and Reset keeps the chunks it wipes.
func TestChunksFollowAllocation(t *testing.T) {
	pm := newTestMem(t, 1<<15) // 64 groups a node
	if got := chunksCreated(pm); got != 0 {
		t.Fatalf("fresh machine has %d chunks, want 0", got)
	}
	for i := 0; i < HugeFrames; i++ {
		if _, err := pm.AllocData(2); err != nil {
			t.Fatal(err)
		}
	}
	if got := chunksCreated(pm); got != 1 {
		t.Fatalf("after filling one group: %d chunks, want 1", got)
	}
	if _, err := pm.AllocPageTable(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocHuge(0); err != nil {
		t.Fatal(err)
	}
	if got := chunksCreated(pm); got != 3 {
		t.Fatalf("after a table and a huge page: %d chunks, want 3", got)
	}
	pm.Reset()
	if got := chunksCreated(pm); got != 3 {
		t.Fatalf("after Reset: %d chunks, want the 3 created before", got)
	}
}

// TestMetaOfNeverAllocatedFrame pins that a frame no allocation ever
// reached reads as free and unlinked, that the entry is writable and
// stable, and that reading it as a page table, or reaching beyond memory,
// still panics with the frame named.
func TestMetaOfNeverAllocatedFrame(t *testing.T) {
	pm := newTestMem(t, 1<<12)
	f := FrameID(3<<12 + 700)
	m := pm.Meta(f)
	if *m != (FrameMeta{}) || pm.ReplicaNext(f) != NilFrame {
		t.Fatalf("never-allocated frame meta = %+v, link %d, want free and unlinked", *m, pm.ReplicaNext(f))
	}
	m.PTLevel = 3
	if got := pm.Meta(f); got != m || got.PTLevel != 3 {
		t.Fatalf("Meta(%d) not stable: %p/%+v after write, first %p", f, got, *got, m)
	}
	data, _ := pm.AllocData(1)
	for _, c := range []struct {
		name string
		call func()
		want string
	}{
		{"Table of a never-allocated frame", func() { pm.Table(f) }, "mem: frame 12988 holds free, not a page table"},
		{"Table of a data frame", func() { pm.Table(data) }, "mem: frame 4096 holds data, not a page table"},
		{"Table beyond memory", func() { pm.Table(1 << 14) }, "mem: frame 16384 out of range [0,16384)"},
		{"Meta beyond memory", func() { pm.Meta(1 << 14) }, "mem: frame 16384 out of range [0,16384)"},
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || err.Error() != c.want {
					t.Errorf("%s: panicked with %v, want %q", c.name, err, c.want)
				}
			}()
			c.call()
		}()
	}
}

// TestMetaPointerSurvivesReset pins the documented promise that a Meta
// pointer stays valid for the life of the PhysMem: taken before Reset, it
// addresses the same frame after Reset and the frame's reallocation — also
// when it was taken before the frame was ever allocated.
func TestMetaPointerSurvivesReset(t *testing.T) {
	pm := newTestMem(t, 2048)
	f, err := pm.AllocPageTable(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := pm.Meta(f)
	next := pm.Meta(f + 1) // same group, not yet allocated
	pm.Reset()
	if *m != (FrameMeta{}) {
		t.Fatalf("meta after Reset = %+v, want pristine", *m)
	}
	g, err := pm.AllocPageTable(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatalf("reset machine allocated frame %d, fresh machine allocated %d", g, f)
	}
	if pm.Meta(g) != m || m.Kind != KindPageTable || m.PTLevel != 3 {
		t.Fatalf("pre-Reset pointer reads %+v, want the reallocated level-3 table", *m)
	}
	h, err := pm.AllocData(1)
	if err != nil {
		t.Fatal(err)
	}
	if h != f+1 || pm.Meta(h) != next || next.Kind != KindData {
		t.Fatalf("frame %d: pointer taken before allocation reads %+v, want data", h, *next)
	}
}

// TestConcurrentFirstTouch runs one allocating goroutine per node, as the
// parallel engine's per-socket faults do: each first-touches fresh 2MB
// groups with data, page-table and huge allocations, creating their
// chunks, while reader goroutines keep reading the Meta of frames already
// handed out and the Table and ReplicaNext of those that hold a table. A
// provisioning goroutine gives a guest table to one frame of each 64-frame
// block of every huge page, so it creates page-table blocks in groups
// whose frames the readers are reading. Run under -race: readers must
// never need a lock.
func TestConcurrentFirstTouch(t *testing.T) {
	const nodes, readers = 4, 3
	pm := New(Config{Topology: numa.NewTopology(nodes, 1), FramesPerNode: 1 << 15})
	type handed struct {
		f     FrameID
		table bool // holds a table: KindPageTable at level 1, or a guest table
		guest bool
	}
	// A frame reaches a reader only through this channel, so its
	// allocation (and its table's provisioning) happens before every read
	// of it.
	published := make(chan handed)
	hugePages := make(chan FrameID)
	var allocators, provisioner, done sync.WaitGroup
	for n := range nodes {
		allocators.Add(1)
		go func(node numa.NodeID) {
			defer allocators.Done()
			for range 48 {
				// Each huge allocation claims a fresh group; the singles
				// fill the partial groups they start.
				f, err := pm.AllocHuge(node)
				if err != nil {
					t.Error(err)
					return
				}
				published <- handed{f: f + HugeFrames - 1}
				hugePages <- f
				for j := range 12 {
					d, err := pm.AllocData(node)
					if err != nil {
						t.Error(err)
						return
					}
					tf, err := pm.AllocPageTable(node, 1)
					if err != nil {
						t.Error(err)
						return
					}
					atomic.StoreUint64(&pm.Table(tf)[j], uint64(d))
					published <- handed{f: d}
					published <- handed{f: tf, table: true}
				}
			}
		}(numa.NodeID(n))
	}
	provisioner.Add(1)
	go func() {
		defer provisioner.Done()
		for base := range hugePages {
			for b := range FrameID(HugeFrames / blockFrames) {
				g := base + b*blockFrames + b
				atomic.StoreUint64(&pm.ProvisionTable(g)[b], uint64(base))
				published <- handed{f: g, table: true, guest: true}
			}
		}
	}()
	for range readers {
		done.Add(1)
		go func() {
			defer done.Done()
			var seen []handed
			for h := range published {
				if seen = append(seen, h); len(seen)%16 != 0 {
					continue
				}
				for _, h := range seen {
					m := pm.Meta(h.f)
					switch {
					case (!h.table || h.guest) && m.Kind != KindData:
						t.Errorf("data frame %d kind %v", h.f, m.Kind)
					case h.table && !h.guest && (m.Kind != KindPageTable || m.PTLevel != 1):
						t.Errorf("table frame %d meta %+v", h.f, *m)
					case h.table && pm.ReplicaNext(h.f) != NilFrame:
						t.Errorf("table frame %d linked to %d", h.f, pm.ReplicaNext(h.f))
					case h.table:
						_ = atomic.LoadUint64(&pm.Table(h.f)[0])
					}
				}
			}
		}()
	}
	allocators.Wait()
	close(hugePages)
	provisioner.Wait()
	close(published)
	done.Wait()
	// 48 huge groups a node plus the partial groups the singles filled.
	if got, min := chunksCreated(pm), nodes*48; got < min {
		t.Fatalf("%d chunks created, want at least %d", got, min)
	}
}
