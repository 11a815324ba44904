package mmucache

import (
	"math/rand"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// The benchmarks below time the PSC's and the LLC's host cost per
// operation on the default geometry, each over two streams:
//
//   - mru: a resident working set whose every probe hits the MRU way of
//     its set or row;
//   - random: uniformly random keys of a footprint far beyond the
//     cache's capacity, so most probes miss.
//
// Run them with: go test -run '^$' -bench . ./internal/mmucache

const benchStreamLen = 1 << 14

const benchMask = benchStreamLen - 1

// pscStreams returns VA streams for the PSC: mru VAs are 4 KB pages of
// one of the 2 MB regions warmPSC caches; random VAs span a 512 GB region
// outside every cached prefix.
func pscStreams() map[string][]pt.VirtAddr {
	r := rand.New(rand.NewSource(1))
	mru := make([]pt.VirtAddr, benchStreamLen)
	for i := range mru {
		mru[i] = pt.VirtAddr(2<<21 | uint64(i%512)<<12)
	}
	random := make([]pt.VirtAddr, benchStreamLen)
	for i := range random {
		random[i] = pt.VirtAddr(1<<39 + uint64(r.Int63n(1<<39))&^(1<<12-1))
	}
	return map[string][]pt.VirtAddr{"mru": mru, "random": random}
}

// warmPSC returns a default PSC whose rows cache the walks of the first
// 32 2 MB regions, which fill its PDE row.
func warmPSC() *PSC {
	p := NewPSC(DefaultPSCConfig())
	for region := uint64(0); region < 32; region++ {
		for l := uint8(4); l >= 2; l-- {
			p.Insert(pt.VirtAddr(region<<21), l, mem.FrameID(region>>(9*(l-2))))
		}
	}
	return p
}

var sinkOK bool

// BenchmarkPSCLookup times a four-level Lookup on a warm default PSC:
// the mru stream hits the PDE row's MRU way, the random stream misses
// every row.
func BenchmarkPSCLookup(b *testing.B) {
	streams := pscStreams()
	for _, name := range []string{"mru", "random"} {
		vas := streams[name]
		b.Run(name, func(b *testing.B) {
			p := warmPSC()
			i := 0
			for b.Loop() {
				_, _, sinkOK = p.Lookup(vas[i&benchMask], 4)
				i++
			}
		})
	}
}

// llcStreams returns line streams for the LLC: mru lines are eight
// page-table lines, one in each set of the default cache, each used eight
// times in a row; random lines span 4,096 other pages.
func llcStreams() map[string][]LineID {
	r := rand.New(rand.NewSource(1))
	mru := make([]LineID, benchStreamLen)
	for i := range mru {
		mru[i] = LineOf(0, i/8%8*8)
	}
	random := make([]LineID, benchStreamLen)
	for i := range random {
		random[i] = LineOf(mem.FrameID(64+r.Intn(4096)), r.Intn(512))
	}
	return map[string][]LineID{"mru": mru, "random": random}
}

// BenchmarkLLCAccess times the walk's LLC lookup-or-fill on the owned
// (single-writer) path against the locked path.
func BenchmarkLLCAccess(b *testing.B) {
	streams := llcStreams()
	for _, path := range []string{"owned", "locked"} {
		for _, name := range []string{"mru", "random"} {
			ids := streams[name]
			b.Run(path+"/"+name, func(b *testing.B) {
				l := NewLLC(DefaultLLCConfig())
				access := l.AccessOwned
				if path == "locked" {
					access = l.Access
				}
				i := 0
				for b.Loop() {
					sinkOK = access(ids[i&benchMask])
					i++
				}
			})
		}
	}
}

// BenchmarkLLCInvalidateOwned times a barrier's invalidation on an empty
// and on a full default LLC. The full cache holds the mru lines, each its
// set's MRU, over seven lines per set no stream uses. There the mru
// stream's lines are resident, and each op re-inserts the line it
// invalidated; the random stream's lines are absent.
func BenchmarkLLCInvalidateOwned(b *testing.B) {
	streams := llcStreams()
	for _, state := range []string{"empty", "full"} {
		for _, name := range []string{"mru", "random"} {
			ids := streams[name]
			b.Run(state+"/"+name, func(b *testing.B) {
				l := NewLLC(DefaultLLCConfig())
				if state == "full" {
					for f := 0; f < 56; f++ {
						l.AccessOwned(LineOf(mem.FrameID(1<<20+f/8), f%8*8))
					}
					for _, id := range streams["mru"][:8*8] {
						l.AccessOwned(id)
					}
				}
				refill := state == "full" && name == "mru"
				i := 0
				for b.Loop() {
					id := ids[i&benchMask]
					l.InvalidateOwned(id)
					if refill {
						l.InsertOwned(id)
					}
					i++
				}
			})
		}
	}
}
