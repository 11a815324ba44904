// Package mem implements the simulated physical memory of a NUMA machine:
// per-node frame allocation, frame metadata (the equivalent of Linux's
// struct page), 2MB-contiguity tracking for transparent huge pages,
// fragmentation injection for aged-system experiments, and the per-socket
// page caches that Mitosis uses to reserve frames for page-table replicas
// (paper §5.1).
//
// Physical memory is divided into 4KB frames. Each NUMA node owns a
// contiguous range of frame numbers, so the owning node of any frame is
// computable without a lookup — mirroring how Linux derives the node of a
// struct page from the physical address.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// FrameID is a global physical frame number (4KB granularity).
type FrameID uint64

// NilFrame is the sentinel "no frame" value. Frame 0 is a valid frame, so
// the all-ones pattern is used instead.
const NilFrame FrameID = ^FrameID(0)

// FrameSize is the size of one physical frame in bytes.
const FrameSize = 4096

// HugeFrames is the number of 4KB frames composing one 2MB huge page.
const HugeFrames = 512

// PTEntries is the number of 8-byte entries in one page-table page.
const PTEntries = 512

// Kind classifies what a frame currently holds.
type Kind uint8

const (
	// KindFree marks an unallocated frame.
	KindFree Kind = iota
	// KindData marks a frame holding application data.
	KindData
	// KindPageTable marks a frame holding a page-table page.
	KindPageTable
	// KindRetired marks a frame permanently removed from service after an
	// uncorrectable ECC error (the hardware page-offline model): it never
	// returns to the free pool.
	KindRetired
)

func (k Kind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindData:
		return "data"
	case KindPageTable:
		return "pagetable"
	case KindRetired:
		return "retired"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrOutOfMemory is returned when an allocation cannot be satisfied on the
// requested node.
var ErrOutOfMemory = errors.New("mem: out of memory on requested node")

// ErrNoContiguous is returned when a huge-page allocation cannot find 512
// contiguous free frames on the requested node (e.g., under fragmentation).
var ErrNoContiguous = errors.New("mem: no contiguous 2MB block available")

// ErrNodeOffline is returned for allocations on a hot-removed node.
var ErrNodeOffline = errors.New("mem: node is offline")

// FrameMeta is the per-frame metadata, the simulator's struct page: 16
// bytes that every frame of a touched 2MB group pays for. The state only
// page-table frames carry, the table payload and the link Mitosis threads
// its circular replica list through (§5.2, Figure 8), lives in a
// page-table block beside it (ReplicaNext, Table), the role Linux's
// struct ptdesc plays next to struct page. The zero FrameMeta is a free,
// never-touched frame.
type FrameMeta struct {
	// Kind says what the frame holds.
	Kind Kind
	// HugeHead is true for the first frame of an allocated 2MB block.
	HugeHead bool
	// HugeTail is true for the 511 non-head frames of a 2MB block.
	HugeTail bool
	// PTLevel records the page-table level (1..5) for page-table frames,
	// 0 otherwise (and for frames parked in the page cache). Used by dumps
	// and by replica maintenance.
	PTLevel uint8
	// AccessSocket is the socket that most recently touched this data
	// frame; sampled by the machine for AutoNUMA-style migration. The
	// machine buffers samples per core and folds them in at quiescent
	// points (round barriers), so the field needs no atomics; read it
	// only at quiescent points (the AutoNUMA scan).
	AccessSocket int32
	// RemoteAccesses counts sampled accesses from non-local sockets since
	// the last AutoNUMA scan. Folded in at quiescent points.
	RemoteAccesses uint32
	// LocalAccesses counts sampled accesses from the local socket since
	// the last AutoNUMA scan. Folded in at quiescent points.
	LocalAccesses uint32
}

// node-local allocator state
type nodeState struct {
	// mu guards all allocator state of this node. Locking is per-node so
	// that concurrent fault paths targeting different nodes do not
	// serialize on a global allocator lock.
	mu        sync.Mutex
	base      FrameID // first frame of this node
	frames    uint64  // total frames
	free      uint64  // currently free frames
	bitmap    []uint64
	groupFree []uint32 // free frames per 512-frame group
	// The three group masks (one bit per 512-frame group) make single-frame
	// allocation O(1) amortized: instead of scanning every group per alloc,
	// allocSingle finds the first candidate group with a find-first-set over
	// a handful of words, and takeFromGroup finds the first free frame with
	// a find-first-zero over the group's 8 bitmap words. The masks are
	// maintained on every groupFree transition, preserving the exact
	// first-fit order of the original full-scan allocator (determinism:
	// identical frame choices, hence identical NUMA costs and counters).
	partialMask []uint64 // groups with 0 < free < HugeFrames
	freeMask    []uint64 // groups with free == HugeFrames
	fragMask    []uint64 // groups excluded from huge allocation (injection)
	nextGroup   int      // next-fit hint for huge-block scan (group index)
	retired     uint64   // frames permanently retired after ECC poison
	// offline marks the node hot-removed: allocations are refused. It is
	// written under mu (SetOffline, Reset) and read atomically, so the
	// fault path's placement check (NodeOffline) takes no lock.
	offline atomic.Bool
	// pressure is the usable-frame floor a fault-injected pressure wave
	// reserves: single-frame allocation fails once free would drop to or
	// below it, forcing the kernel's reclaim ladder to run.
	pressure uint64
	// scanWords counts mask/bitmap words examined by the allocator — a
	// test hook asserting the allocator does not degrade back into
	// whole-node scans under alloc/free churn.
	scanWords uint64
	// tablePool recycles page-table payload arrays freed on this node, so
	// alloc/free churn (and sweep-style run recycling via Reset) reuses
	// zeroed 4KB payloads instead of allocating fresh ones. Capacity is
	// capped; overflow falls back to the garbage collector.
	tablePool []*[PTEntries]uint64
}

// tablePoolCap bounds the per-node payload free list (1024 payloads = 4MB
// per node, enough to cover a process teardown burst).
const tablePoolCap = 1024

// recycleTable parks a payload for reuse; caller holds ns.mu.
func (ns *nodeState) recycleTable(t *[PTEntries]uint64) {
	if len(ns.tablePool) < tablePoolCap {
		ns.tablePool = append(ns.tablePool, t)
	}
}

// takeTable returns a zeroed payload, reusing a recycled one when
// available; caller holds ns.mu.
func (ns *nodeState) takeTable() *[PTEntries]uint64 {
	if n := len(ns.tablePool); n > 0 {
		t := ns.tablePool[n-1]
		ns.tablePool[n-1] = nil
		ns.tablePool = ns.tablePool[:n-1]
		*t = [PTEntries]uint64{}
		return t
	}
	return new([PTEntries]uint64)
}

func maskSet(m []uint64, g int)   { m[g>>6] |= 1 << (uint(g) & 63) }
func maskClear(m []uint64, g int) { m[g>>6] &^= 1 << (uint(g) & 63) }

// PhysMem is the machine's physical memory: a per-node frame allocator plus
// global frame metadata and page-table page payloads.
type PhysMem struct {
	topo          *numa.Topology
	framesPerNode uint64
	// nodeShift is log2(framesPerNode) when framesPerNode is a power of
	// two (the common configuration), letting NodeOf shift instead of
	// divide on the access hot path; -1 otherwise.
	nodeShift int
	nodes     []nodeState
	// chunks holds the frame metadata and page-table blocks of each 2MB
	// group, indexed by global group number (frame / HugeFrames); nil for
	// a group none of whose frames was ever handed out. A group's entry is
	// written once, under its node's mutex, before the allocator returns
	// the group's first frame, and is never cleared; each of the chunk's
	// block pointers changes once, from emptyBlock to a block of its own,
	// when the block's first table arrives. Concurrent page walkers read
	// both without a lock: a walker reaches a frame only
	// through the atomic PTE store that linked it into a parent entry
	// (release/acquire via pt.WriteEntryRaw / pt.ReadEntry), and that store
	// follows the chunk's and the block's creation and the payload store
	// into the block. Distinct payload slots never alias.
	chunks []*groupChunk
	// poison is a machine-wide bitmap of frames carrying an uncorrectable
	// ECC error (one bit per frame, atomic word ops): injection marks a
	// bit, recovery clears it when the frame is retired. Accessed lock-free
	// from the machine's access guard, so it lives outside the per-node
	// mutexes.
	poison []uint64
	// poisonCount tracks set poison bits. The access guard reads it once
	// per batch to stay zero-cost when no fault is in flight.
	poisonCount atomic.Int64
}

// groupChunk holds the metadata of the HugeFrames frames of one 2MB group
// and the pointers to its page-table blocks, emptyBlock until a frame of
// the block holds a table. Chunks are created when the allocator first
// hands out a frame of their group, so host memory follows the frames a
// run touches, not the machine's capacity; they are never freed, which
// keeps every Meta pointer valid for the life of the PhysMem. The block
// pointers come first so the garbage collector's scan of a chunk ends
// where the pointer-free metadata begins. A chunk is 8,256 bytes, which
// the Go allocator rounds up to 9,472; DESIGN.md says why the pointers
// still live here.
type groupChunk struct {
	blocks [HugeFrames / blockFrames]*ptBlock
	meta   [HugeFrames]FrameMeta
}

// blockFrames is the number of consecutive frames a page-table block
// covers.
const blockFrames = 64

// ptBlock holds the page-table state of blockFrames consecutive frames:
// each frame's 512-entry payload while it holds a table, and its link in a
// replica ring (NilFrame outside one). It is 1 KB, created the first time a
// frame in it holds a table and never freed, so host memory pays for it
// only where tables have lived. The payload pointers come first so the
// garbage collector's scan of a block ends where the links begin.
type ptBlock struct {
	tables [blockFrames]*[PTEntries]uint64
	next   [blockFrames]FrameID
}

// newBlock returns a block with no payloads and no links.
func newBlock() *ptBlock {
	b := new(ptBlock)
	for i := range b.next {
		b.next[i] = NilFrame
	}
	return b
}

// emptyBlock stands in for every block no table has lived in yet: it holds
// no payload and no link, and nothing writes it, so Table and ReplicaNext
// read through it without a branch.
var emptyBlock = newBlock()

// Config configures a PhysMem.
type Config struct {
	// Topology of the machine; one memory node per socket.
	Topology *numa.Topology
	// FramesPerNode is the per-node capacity in 4KB frames. Must be a
	// multiple of HugeFrames so the node divides evenly into 2MB groups.
	FramesPerNode uint64
}

// New creates the physical memory. It panics on configuration errors.
func New(cfg Config) *PhysMem {
	if cfg.Topology == nil {
		panic("mem: Config.Topology is required")
	}
	if cfg.FramesPerNode == 0 || cfg.FramesPerNode%HugeFrames != 0 {
		panic(fmt.Sprintf("mem: FramesPerNode (%d) must be a positive multiple of %d", cfg.FramesPerNode, HugeFrames))
	}
	n := cfg.Topology.Nodes()
	pm := &PhysMem{
		topo:          cfg.Topology,
		framesPerNode: cfg.FramesPerNode,
		nodes:         make([]nodeState, n),
		chunks:        make([]*groupChunk, cfg.FramesPerNode/HugeFrames*uint64(n)),
		poison:        make([]uint64, (cfg.FramesPerNode*uint64(n)+63)/64),
	}
	pm.nodeShift = -1
	if cfg.FramesPerNode&(cfg.FramesPerNode-1) == 0 {
		pm.nodeShift = bits.TrailingZeros64(cfg.FramesPerNode)
	}
	groups := cfg.FramesPerNode / HugeFrames
	maskWords := (groups + 63) / 64
	for i := range pm.nodes {
		pm.nodes[i] = nodeState{
			base:        FrameID(uint64(i) * cfg.FramesPerNode),
			frames:      cfg.FramesPerNode,
			free:        cfg.FramesPerNode,
			bitmap:      make([]uint64, (cfg.FramesPerNode+63)/64),
			groupFree:   make([]uint32, groups),
			partialMask: make([]uint64, maskWords),
			freeMask:    make([]uint64, maskWords),
			fragMask:    make([]uint64, maskWords),
		}
		for g := range pm.nodes[i].groupFree {
			pm.nodes[i].groupFree[g] = HugeFrames
			maskSet(pm.nodes[i].freeMask, g)
		}
	}
	return pm
}

// Topology returns the topology this memory was built for.
func (pm *PhysMem) Topology() *numa.Topology { return pm.topo }

// TotalFrames returns the machine-wide frame count.
func (pm *PhysMem) TotalFrames() uint64 {
	return pm.framesPerNode * uint64(pm.topo.Nodes())
}

// NodeOf returns the NUMA node owning frame f.
func (pm *PhysMem) NodeOf(f FrameID) numa.NodeID {
	pm.checkFrame(f)
	if pm.nodeShift >= 0 {
		return numa.NodeID(uint64(f) >> uint(pm.nodeShift))
	}
	return numa.NodeID(uint64(f) / pm.framesPerNode)
}

// NodeOfRange returns the node owning the whole range [f, f+frames) when
// the range lies fully inside one node's memory, and numa.InvalidNode when
// it spans nodes or exceeds physical memory. The TLB caches this per
// mapping so the access path skips the frame->node computation.
func (pm *PhysMem) NodeOfRange(f FrameID, frames uint64) numa.NodeID {
	last := uint64(f) + frames - 1
	if frames == 0 || last >= pm.TotalFrames() {
		return numa.InvalidNode
	}
	n := pm.NodeOf(f)
	if pm.NodeOf(FrameID(last)) != n {
		return numa.InvalidNode
	}
	return n
}

// Meta returns the metadata for frame f. The pointer stays valid for the
// lifetime of the PhysMem. A frame that was never allocated reads as free;
// the first Meta call on one creates its group's chunk.
func (pm *PhysMem) Meta(f FrameID) *FrameMeta {
	c := pm.chunk(f)
	if c == nil {
		c = pm.touch(f)
	}
	return &c.meta[f%HugeFrames]
}

// Table returns the 512-entry payload of page-table frame f. It panics if f
// does not hold a page table: reading a data frame as a page table is a
// simulator bug, not a runtime condition. The nil check (rather than a Kind
// check) keeps this hot-path lookup free of the metadata the allocator
// mutates, so concurrent walkers only touch the published table pointer.
// Small enough to inline: pt.ReadEntry on the walk path makes no call.
func (pm *PhysMem) Table(f FrameID) *[PTEntries]uint64 {
	if t := pm.block(f).tables[f%blockFrames]; t != nil {
		return t
	}
	panic(frameError{pm, f})
}

// ReplicaNext returns the frame after page-table frame f in its replica
// ring, or NilFrame when f is in none (as every frame without a table).
// Like Table it takes no lock, so a caller running beside allocations may
// pass only a frame that holds a table: the block of any other frame may
// be being created.
func (pm *PhysMem) ReplicaNext(f FrameID) FrameID {
	return pm.block(f).next[f%blockFrames]
}

// SetReplicaNext links page-table frame f to next in its replica ring;
// NilFrame takes f out of it. It panics if f holds no table: only page
// tables are replicated. Free and Reset unlink the frames they release.
func (pm *PhysMem) SetReplicaNext(f, next FrameID) {
	b := pm.block(f)
	if b.tables[f%blockFrames] == nil {
		panic(frameError{pm, f})
	}
	b.next[f%blockFrames] = next
}

// chunk returns the chunk of frame f's group, nil if no frame of the group
// was ever allocated. Small enough to inline: Meta pays one load for it.
func (pm *PhysMem) chunk(f FrameID) *groupChunk {
	g := uint64(f) / HugeFrames
	if g >= uint64(len(pm.chunks)) {
		panic(frameError{pm, f})
	}
	return pm.chunks[g]
}

// block returns the page-table block of frame f, emptyBlock if no table
// has lived in it yet. Frame f's group must have its chunk, as every frame
// an allocation or Meta reached does.
func (pm *PhysMem) block(f FrameID) *ptBlock {
	return pm.chunk(f).blocks[f%HugeFrames/blockFrames]
}

// touch returns the chunk of frame f's group, creating it if no frame of
// the group was ever allocated.
func (pm *PhysMem) touch(f FrameID) *groupChunk {
	ns := pm.node(pm.NodeOf(f))
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return pm.ensureChunk(uint64(f) / HugeFrames)
}

// ensureChunk returns the chunk of global group g, creating it on first
// use; the caller holds the owning node's mutex.
func (pm *PhysMem) ensureChunk(g uint64) *groupChunk {
	c := pm.chunks[g]
	if c == nil {
		c = new(groupChunk)
		for i := range c.blocks {
			c.blocks[i] = emptyBlock
		}
		pm.chunks[g] = c
	}
	return c
}

// ensureBlock returns frame f's page-table block, creating it when no
// table has lived in it yet; the caller holds the owning node's mutex.
func (pm *PhysMem) ensureBlock(f FrameID) *ptBlock {
	b := &pm.chunk(f).blocks[f%HugeFrames/blockFrames]
	if *b == emptyBlock {
		*b = newBlock()
	}
	return *b
}

// dropTable parks frame f's payload, if it has one, in ns's pool and takes
// f out of its replica ring; the caller holds ns.mu. A frame in a ring
// always holds a table, so a frame without one has nothing to reset, and
// emptyBlock is never written.
func (pm *PhysMem) dropTable(ns *nodeState, f FrameID) {
	b, i := pm.block(f), f%blockFrames
	if t := b.tables[i]; t != nil {
		ns.recycleTable(t)
		b.tables[i] = nil
		b.next[i] = NilFrame
	}
}

// releaseGroup parks the payloads of every table in global group g and
// unlinks its frames, leaving its blocks as newBlock made them; the caller
// holds the owning node's mutex.
func (pm *PhysMem) releaseGroup(ns *nodeState, g uint64) {
	for _, b := range pm.chunks[g].blocks {
		if b == emptyBlock {
			continue
		}
		for i, t := range b.tables {
			if t != nil {
				ns.recycleTable(t)
				b.tables[i] = nil
			}
			b.next[i] = NilFrame
		}
	}
}

// frameError is the panic value of a frame number beyond physical memory,
// or of a frame read as a page table that holds none. It formats only
// when printed, so the checks that raise it stay cheap enough to inline.
type frameError struct {
	pm *PhysMem
	f  FrameID
}

func (e frameError) Error() string {
	if total := e.pm.TotalFrames(); uint64(e.f) >= total {
		return fmt.Sprintf("mem: frame %d out of range [0,%d)", e.f, total)
	}
	kind := KindFree
	if c := e.pm.chunks[uint64(e.f)/HugeFrames]; c != nil {
		kind = c.meta[e.f%HugeFrames].Kind
	}
	if kind == KindPageTable {
		return fmt.Sprintf("mem: frame %d is a reserved page-table frame without a table", e.f)
	}
	return fmt.Sprintf("mem: frame %d holds %v, not a page table", e.f, kind)
}

// ProvisionTable attaches 512-entry table storage to an allocated data
// frame. Guest page-table pages live in guest *data* frames (the guest
// kernel allocates them from guest-physical memory), yet concurrent
// hardware walkers must read them through the same published-pointer
// discipline as host page-table pages: the caller provisions the storage
// before atomically linking the page into a parent guest entry.
// Idempotent; panics on a free frame.
func (pm *PhysMem) ProvisionTable(f FrameID) *[PTEntries]uint64 {
	pm.checkFrame(f)
	ns := pm.node(pm.NodeOf(f))
	ns.mu.Lock()
	defer ns.mu.Unlock()
	c := pm.chunk(f)
	if c == nil || c.meta[f%HugeFrames].Kind == KindFree {
		panic(fmt.Sprintf("mem: provisioning table storage on free frame %d", f))
	}
	t := &pm.ensureBlock(f).tables[f%blockFrames]
	if *t == nil {
		*t = ns.takeTable()
	}
	return *t
}

// SampleAccess records n data accesses to frame f from the given socket
// for the AutoNUMA balancer. Call it only at quiescent points: the machine
// buffers per-core samples during execution and folds them here (in
// canonical core order) at round barriers, so FrameMeta sees no concurrent
// mutation and the fold needs no atomics.
func (pm *PhysMem) SampleAccess(f FrameID, socket numa.SocketID, local bool, n uint32) {
	m := pm.Meta(f)
	m.AccessSocket = int32(socket)
	if local {
		m.LocalAccesses += n
	} else {
		m.RemoteAccesses += n
	}
}

// FreeFrames returns the number of free frames on node n.
func (pm *PhysMem) FreeFrames(n numa.NodeID) uint64 {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.free
}

// SetPoison marks frame f as carrying an uncorrectable ECC error. The
// mark is advisory until recovery acts on it: the machine's access guard
// raises an MCE if a walk or load touches the frame first.
func (pm *PhysMem) SetPoison(f FrameID) {
	pm.checkFrame(f)
	w, b := uint64(f)>>6, uint64(1)<<(uint64(f)&63)
	// A plain CAS loop, not atomic.OrUint64: poison flips are rare (one
	// per injected fault) and the value-returning or/and intrinsics
	// miscompile on some amd64 toolchains.
	for {
		old := atomic.LoadUint64(&pm.poison[w])
		if old&b != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(&pm.poison[w], old, old|b) {
			pm.poisonCount.Add(1)
			return
		}
	}
}

// ClearPoison removes the poison mark from frame f (recovery has retired
// or rebuilt it).
func (pm *PhysMem) ClearPoison(f FrameID) {
	pm.checkFrame(f)
	w, b := uint64(f)>>6, uint64(1)<<(uint64(f)&63)
	for {
		old := atomic.LoadUint64(&pm.poison[w])
		if old&b == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(&pm.poison[w], old, old&^b) {
			pm.poisonCount.Add(-1)
			return
		}
	}
}

// Poisoned reports whether frame f carries a poison mark. Lock-free.
func (pm *PhysMem) Poisoned(f FrameID) bool {
	pm.checkFrame(f)
	return atomic.LoadUint64(&pm.poison[uint64(f)>>6])&(1<<(uint64(f)&63)) != 0
}

// PoisonCount returns the number of currently poisoned frames. The
// machine's access guard polls this once per batch: zero means no poison
// checks on the per-op path.
func (pm *PhysMem) PoisonCount() int64 { return pm.poisonCount.Load() }

// Retired returns the number of frames permanently retired on node n.
func (pm *PhysMem) Retired(n numa.NodeID) uint64 {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.retired
}

// SetOffline marks node n as hot-removed (or restores it): an offline
// node refuses all new allocations. Draining existing allocations is the
// kernel's job.
func (pm *PhysMem) SetOffline(n numa.NodeID, off bool) {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.offline.Store(off)
}

// NodeOffline reports whether node n is hot-removed. It reads the flag
// without the node's mutex: the flag changes only at quiescent points.
func (pm *PhysMem) NodeOffline(n numa.NodeID) bool {
	return pm.node(n).offline.Load()
}

// SetPressure reserves a usable-frame floor on node n: single-frame
// allocation fails once free frames would drop to or below the floor,
// and huge allocation once the whole block no longer fits above it.
// Zero clears the wave.
func (pm *PhysMem) SetPressure(n numa.NodeID, frames uint64) {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.pressure = frames
}

// PressureFrames returns the reserved floor on node n.
func (pm *PhysMem) PressureFrames(n numa.NodeID) uint64 {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.pressure
}

// AllocData allocates one 4KB data frame on node n.
func (pm *PhysMem) AllocData(n numa.NodeID) (FrameID, error) {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, err := pm.allocSingle(ns)
	if err != nil {
		return NilFrame, err
	}
	pm.chunk(f).meta[f%HugeFrames].Kind = KindData
	return f, nil
}

// AllocPageTable allocates one 4KB frame on node n to hold a page-table page
// of the given level (1 = leaf .. 5 = root of 5-level paging) with a zeroed
// payload.
func (pm *PhysMem) AllocPageTable(n numa.NodeID, level uint8) (FrameID, error) {
	f, err := pm.reserveTableFrame(n)
	if err == nil {
		pm.attach(f, level)
	}
	return f, err
}

// reserveTableFrame allocates one 4KB frame on node n for a page table, at
// level 0 and without a payload: the page cache parks such frames until
// AllocPT hands one out through attach.
func (pm *PhysMem) reserveTableFrame(n numa.NodeID) (FrameID, error) {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, err := pm.allocSingle(ns)
	if err != nil {
		return NilFrame, err
	}
	pm.chunk(f).meta[f%HugeFrames].Kind = KindPageTable
	return f, nil
}

// attach gives page-table frame f a zeroed payload at the given level.
func (pm *PhysMem) attach(f FrameID, level uint8) {
	if level < 1 || level > 5 {
		panic(fmt.Sprintf("mem: page-table level %d out of range [1,5]", level))
	}
	ns := pm.node(pm.NodeOf(f))
	ns.mu.Lock()
	defer ns.mu.Unlock()
	pm.chunk(f).meta[f%HugeFrames].PTLevel = level
	pm.ensureBlock(f).tables[f%blockFrames] = ns.takeTable()
}

// park returns page-table frame f to the state reserveTableFrame hands
// out, level 0 without a payload, and reports whether it did: it refuses
// a poisoned frame and a frame of an offline node, which must not be
// handed out again.
func (pm *PhysMem) park(f FrameID) bool {
	ns := pm.node(pm.NodeOf(f))
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.offline.Load() || pm.Poisoned(f) {
		return false
	}
	pm.dropTable(ns, f)
	pm.chunk(f).meta[f%HugeFrames].PTLevel = 0
	return true
}

// AllocHuge allocates a 2MB block (512 contiguous frames) on node n and
// returns the base frame. The block is excluded from groups marked as
// fragmented.
func (pm *PhysMem) AllocHuge(n numa.NodeID) (FrameID, error) {
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.offline.Load() {
		return NilFrame, ErrNodeOffline
	}
	if ns.pressure > 0 && ns.free < ns.pressure+HugeFrames {
		return NilFrame, ErrOutOfMemory
	}
	groups := len(ns.groupFree)
	if groups == 0 {
		return NilFrame, ErrNoContiguous
	}
	// Next-fit over fully-free, non-fragmented groups: first set bit of
	// (freeMask &^ fragMask) at or after nextGroup, wrapping.
	g := ns.firstGroupFrom(ns.nextGroup, func(free, frag uint64) uint64 { return free &^ frag })
	if g < 0 {
		return NilFrame, ErrNoContiguous
	}
	ns.nextGroup = (g + 1) % groups
	base := ns.base + FrameID(uint64(g)*HugeFrames)
	c := pm.ensureChunk(uint64(base) / HugeFrames)
	words := ns.groupWords(g)
	for i, w := range words {
		if w != 0 {
			panic(fmt.Sprintf("mem: free group %d holds allocated frames", g))
		}
		words[i] = ^uint64(0)
	}
	for off := range c.meta {
		m := &c.meta[off]
		m.Kind = KindData
		m.HugeTail = off != 0
	}
	c.meta[0].HugeHead = true
	ns.groupFree[g] = 0
	maskClear(ns.freeMask, g)
	ns.free -= HugeFrames
	return base, nil
}

// Free releases a single data or page-table frame. Freeing a huge-page head
// or tail through Free is a bug; use FreeHuge.
func (pm *PhysMem) Free(f FrameID) {
	ns := pm.node(pm.NodeOf(f))
	ns.mu.Lock()
	defer ns.mu.Unlock()
	pm.free(ns, f)
}

// FreeAll releases every frame of frames as Free would, taking a node's
// mutex once per run of consecutive frames on that node instead of once per
// frame. The outcome equals Free's called in any order: each free clears
// its own bitmap bit and adds one to counters, and a group's masks follow
// its free count alone; a poisoned frame is retired, as Free retires it.
func (pm *PhysMem) FreeAll(frames []FrameID) {
	for len(frames) > 0 {
		frames = frames[pm.freeRun(frames):]
	}
}

// freeRun frees the leading run of frames that share the first frame's
// node, under one acquisition of its mutex, and returns the run's length.
func (pm *PhysMem) freeRun(frames []FrameID) int {
	n := pm.NodeOf(frames[0])
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	i := 0
	for ; i < len(frames) && pm.NodeOf(frames[i]) == n; i++ {
		pm.free(ns, frames[i])
	}
	return i
}

// free releases frame f of node ns, whose mutex the caller holds.
func (pm *PhysMem) free(ns *nodeState, f FrameID) {
	c := pm.chunk(f)
	if c == nil || c.meta[f%HugeFrames].Kind == KindFree {
		panic(fmt.Sprintf("mem: double free of frame %d", f))
	}
	m := &c.meta[f%HugeFrames]
	if m.HugeHead || m.HugeTail {
		panic(fmt.Sprintf("mem: frame %d belongs to a huge page; use FreeHuge", f))
	}
	// Data frames may carry provisioned guest-table storage; drop it so a
	// reused frame never exposes a stale payload.
	pm.dropTable(ns, f)
	if pm.Poisoned(f) {
		// ECC page-offline: a poisoned frame never returns to the free
		// pool. The bitmap bit stays set so the allocator can never hand
		// it out again; the poison mark clears because the hardware error
		// is now contained.
		*m = FrameMeta{Kind: KindRetired}
		pm.ClearPoison(f)
		ns.retired++
		return
	}
	*m = FrameMeta{}
	pm.clearBit(ns, uint64(f-ns.base))
	ns.free++
	g := int((f - ns.base) / HugeFrames)
	ns.groupFree[g]++
	switch ns.groupFree[g] {
	case 1:
		maskSet(ns.partialMask, g)
	case HugeFrames:
		maskClear(ns.partialMask, g)
		maskSet(ns.freeMask, g)
	}
}

// FreeHuge releases the 2MB block whose head frame is base.
func (pm *PhysMem) FreeHuge(base FrameID) {
	pm.checkFrame(base)
	n := pm.NodeOf(base)
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	c := pm.chunk(base)
	if c == nil || base%HugeFrames != 0 || !c.meta[0].HugeHead {
		panic(fmt.Sprintf("mem: frame %d is not a huge-page head", base))
	}
	pm.releaseGroup(ns, uint64(base)/HugeFrames)
	g := int((base - ns.base) / HugeFrames)
	c.meta = [HugeFrames]FrameMeta{}
	retired := uint64(0)
	words := ns.groupWords(g)
	for i, w := range words {
		if w != ^uint64(0) {
			panic(fmt.Sprintf("mem: huge block at frame %d holds free frames", base))
		}
		// A poisoned member retires in place, its bitmap bit left set; the
		// rest of the block returns to the pool as 4KB frames.
		poisoned := atomic.LoadUint64(&pm.poison[uint64(base)/64+uint64(i)])
		words[i] = poisoned
		for ; poisoned != 0; poisoned &= poisoned - 1 {
			off := i*64 + bits.TrailingZeros64(poisoned)
			c.meta[off] = FrameMeta{Kind: KindRetired}
			pm.ClearPoison(base + FrameID(off))
			retired++
		}
	}
	ns.groupFree[g] = HugeFrames - uint32(retired)
	if retired == 0 {
		maskSet(ns.freeMask, g)
	} else if ns.groupFree[g] > 0 {
		maskSet(ns.partialMask, g)
	}
	ns.free += HugeFrames - retired
	ns.retired += retired
}

// Fragment marks approximately fraction of node n's 2MB groups as
// fragmented, excluding them from huge-page allocation. This injects the
// "aged system" condition of the paper's Figure 11 experiment. The rng makes
// the selection reproducible.
func (pm *PhysMem) Fragment(n numa.NodeID, fraction float64, r *rand.Rand) {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("mem: fragmentation fraction %v out of [0,1]", fraction))
	}
	ns := pm.node(n)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for g := range ns.groupFree {
		if r.Float64() < fraction {
			maskSet(ns.fragMask, g)
		}
	}
}

// allocSingle finds one free 4KB frame on node ns, whose mutex the caller
// holds. It prefers groups that are already partially used so that
// fully-free 2MB groups are preserved for huge-page allocation (a
// simplified buddy-allocator anti-fragmentation heuristic). Group selection
// is a find-first-set over the group masks — O(1) amortized instead of the
// original three whole-node scans — while choosing exactly the same frame
// the scans would have chosen (lowest-index candidate group, lowest free
// frame within it).
func (pm *PhysMem) allocSingle(ns *nodeState) (FrameID, error) {
	if ns.offline.Load() {
		return NilFrame, ErrNodeOffline
	}
	if ns.free == 0 || ns.free <= ns.pressure {
		return NilFrame, ErrOutOfMemory
	}
	// A partially-used, non-full group first; then a fragmented fully-free
	// group (useless for huge pages anyway); then any fully-free group.
	g := ns.firstGroup(func(partial, free, frag uint64) uint64 { return partial })
	if g < 0 {
		g = ns.firstGroup(func(partial, free, frag uint64) uint64 { return free & frag })
	}
	if g < 0 {
		g = ns.firstGroup(func(partial, free, frag uint64) uint64 { return free })
	}
	if g < 0 {
		return NilFrame, ErrOutOfMemory
	}
	return pm.takeFromGroup(ns, g), nil
}

// firstGroup returns the lowest group index whose bit is set in the mask
// composed by pick from the node's three group masks, or -1.
func (ns *nodeState) firstGroup(pick func(partial, free, frag uint64) uint64) int {
	for i := range ns.partialMask {
		ns.scanWords++
		if w := pick(ns.partialMask[i], ns.freeMask[i], ns.fragMask[i]); w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// firstGroupFrom returns the first group at or after start (wrapping) whose
// bit is set in the mask composed by pick from (freeMask, fragMask), or -1.
// This preserves AllocHuge's next-fit rotation exactly.
func (ns *nodeState) firstGroupFrom(start int, pick func(free, frag uint64) uint64) int {
	groups := len(ns.groupFree)
	words := len(ns.freeMask)
	scan := func(wi int, low uint64) int {
		ns.scanWords++
		w := pick(ns.freeMask[wi], ns.fragMask[wi]) &^ low
		if w == 0 {
			return -1
		}
		g := wi*64 + bits.TrailingZeros64(w)
		if g >= groups {
			return -1
		}
		return g
	}
	startW := start >> 6
	// The start word, masking off bits below start.
	if g := scan(startW, (1<<(uint(start)&63))-1); g >= 0 {
		return g
	}
	for wi := startW + 1; wi < words; wi++ {
		if g := scan(wi, 0); g >= 0 {
			return g
		}
	}
	for wi := 0; wi <= startW; wi++ {
		if g := scan(wi, 0); g >= 0 {
			return g
		}
	}
	return -1
}

// takeFromGroup hands out the lowest free frame of node-local group g,
// creating the group's chunk on its first allocation.
func (pm *PhysMem) takeFromGroup(ns *nodeState, g int) FrameID {
	base := uint64(g) * HugeFrames
	wbase := base / 64
	for wi := uint64(0); wi < HugeFrames/64; wi++ {
		ns.scanWords++
		if w := ns.bitmap[wbase+wi]; w != ^uint64(0) {
			idx := base + wi*64 + uint64(bits.TrailingZeros64(^w))
			pm.setBit(ns, idx)
			wasFull := ns.groupFree[g] == HugeFrames
			ns.groupFree[g]--
			ns.free--
			if wasFull {
				// A group that never held an allocation is whole, so
				// only this transition can meet it without a chunk.
				pm.ensureChunk(uint64(ns.base)/HugeFrames + uint64(g))
				maskClear(ns.freeMask, g)
				maskSet(ns.partialMask, g)
			}
			if ns.groupFree[g] == 0 {
				maskClear(ns.partialMask, g)
			}
			return ns.base + FrameID(idx)
		}
	}
	panic(fmt.Sprintf("mem: group %d reported free frames but none found", g))
}

// Reset returns the whole physical memory to its just-built state: every
// frame free, metadata pristine, fragmentation marks cleared, allocator
// cursors rewound. It is the reuse path for recycling a machine between
// independent runs; callers must be quiescent (no concurrent walkers or
// allocations).
//
// Free and FreeHuge fully restore the metadata, payload slot and ring link
// of every frame they release, so a 2MB group whose frames were never
// allocated — or were all freed — is already pristine. Reset therefore
// only wipes groups with live allocations, making its cost proportional to
// the run's peak footprint rather than to machine size. It keeps every
// chunk and block it wipes.
func (pm *PhysMem) Reset() {
	for i := range pm.nodes {
		ns := &pm.nodes[i]
		ns.mu.Lock()
		for g := range ns.groupFree {
			if ns.groupFree[g] == HugeFrames {
				continue
			}
			base := uint64(g) * HugeFrames
			for w := base / 64; w < base/64+HugeFrames/64; w++ {
				ns.bitmap[w] = 0
			}
			global := uint64(ns.base)/HugeFrames + uint64(g)
			pm.releaseGroup(ns, global)
			pm.chunks[global].meta = [HugeFrames]FrameMeta{}
			ns.groupFree[g] = HugeFrames
		}
		for w := range ns.partialMask {
			ns.partialMask[w] = 0
			ns.freeMask[w] = 0
			ns.fragMask[w] = 0
		}
		for g := range ns.groupFree {
			maskSet(ns.freeMask, g)
		}
		ns.free = ns.frames
		ns.retired = 0
		ns.offline.Store(false)
		ns.pressure = 0
		ns.nextGroup = 0
		ns.scanWords = 0
		ns.mu.Unlock()
	}
	// Fault state is machine-global: clear any still-pending poison marks
	// (retired frames already cleared theirs on the free path).
	if pm.poisonCount.Load() != 0 {
		for i := range pm.poison {
			atomic.StoreUint64(&pm.poison[i], 0)
		}
		pm.poisonCount.Store(0)
	}
}

func (pm *PhysMem) node(n numa.NodeID) *nodeState {
	if n < 0 || int(n) >= len(pm.nodes) {
		panic(fmt.Sprintf("mem: node %d out of range [0,%d)", n, len(pm.nodes)))
	}
	return &pm.nodes[n]
}

func (pm *PhysMem) checkFrame(f FrameID) {
	if uint64(f)/HugeFrames >= uint64(len(pm.chunks)) {
		panic(frameError{pm, f})
	}
}

// groupWords returns the HugeFrames/64 bitmap words of node-local group g.
func (ns *nodeState) groupWords(g int) []uint64 {
	return ns.bitmap[g*HugeFrames/64 : (g+1)*HugeFrames/64]
}

func (pm *PhysMem) testBit(ns *nodeState, i uint64) bool {
	return ns.bitmap[i/64]&(1<<(i%64)) != 0
}

func (pm *PhysMem) setBit(ns *nodeState, i uint64) {
	if pm.testBit(ns, i) {
		panic(fmt.Sprintf("mem: frame offset %d already allocated", i))
	}
	ns.bitmap[i/64] |= 1 << (i % 64)
}

func (pm *PhysMem) clearBit(ns *nodeState, i uint64) {
	if !pm.testBit(ns, i) {
		panic(fmt.Sprintf("mem: frame offset %d already free", i))
	}
	ns.bitmap[i/64] &^= 1 << (i % 64)
}
