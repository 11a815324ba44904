package tlb

import (
	"math/rand"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// The benchmarks below time the TLB's host cost per operation on the
// default geometry, each over two VA streams:
//
//   - mru: four resident 4 KB pages, one in each set of the L1 4 KB
//     array, each touched eight times in a row, so every lookup hits the
//     MRU way of its set;
//   - random: uniformly random pages of a 64 MB footprint, far beyond the
//     TLB's reach, so most lookups miss.
//
// Run them with: go test -run '^$' -bench . ./internal/tlb

const benchStreamLen = 1 << 14

// benchStreams returns the mru and random VA streams.
func benchStreams() map[string][]pt.VirtAddr {
	r := rand.New(rand.NewSource(1))
	mru := make([]pt.VirtAddr, benchStreamLen)
	for i := range mru {
		mru[i] = pt.VirtAddr(uint64(i/8%4)<<pt.PageShift4K | uint64(i%8)<<9)
	}
	random := make([]pt.VirtAddr, benchStreamLen)
	for i := range random {
		random[i] = pt.VirtAddr(uint64(r.Intn(1<<14)) << pt.PageShift4K)
	}
	return map[string][]pt.VirtAddr{"mru": mru, "random": random}
}

// warmTLB returns a default TLB holding the mru stream's pages.
func warmTLB(mru []pt.VirtAddr) *TLB {
	tl := New(DefaultConfig())
	for _, va := range mru[:4*8] {
		fill(tl, va)
	}
	return tl
}

// fill is the hardware's probe-then-fill: a lookup, and on a miss a 4 KB
// fill.
func fill(tl *TLB, va pt.VirtAddr) {
	if _, hit := tl.Lookup(va); hit == Miss {
		tl.InsertMapped(va, pt.NewPTE(mem.FrameID(uint64(va)>>pt.PageShift4K), pt.FlagPresent), pt.Size4K, 0)
	}
}

var sinkHit HitLevel

// BenchmarkLookup times Lookup alone on a warm TLB: the mru stream's
// lookups hit at the MRU way, the random stream's miss.
func BenchmarkLookup(b *testing.B) {
	streams := benchStreams()
	for _, name := range []string{"mru", "random"} {
		vas := streams[name]
		b.Run(name, func(b *testing.B) {
			tl := warmTLB(streams["mru"])
			i := 0
			for b.Loop() {
				_, sinkHit = tl.Lookup(vas[i&(benchStreamLen-1)])
				i++
			}
		})
	}
}

// BenchmarkFill times the probe-then-fill path: a lookup, and a 4 KB
// InsertMapped on each miss.
func BenchmarkFill(b *testing.B) {
	streams := benchStreams()
	for _, name := range []string{"mru", "random"} {
		vas := streams[name]
		b.Run(name, func(b *testing.B) {
			tl := warmTLB(streams["mru"])
			i := 0
			for b.Loop() {
				fill(tl, vas[i&(benchStreamLen-1)])
				i++
			}
		})
	}
}

// BenchmarkInvalidatePage times InvalidatePage, each followed by the
// probe-then-fill of an mru page: the mru stream's shootdowns hit a
// resident page, which the fill restores; the random stream's mostly
// miss.
func BenchmarkInvalidatePage(b *testing.B) {
	streams := benchStreams()
	mru := streams["mru"]
	for _, name := range []string{"mru", "random"} {
		vas := streams[name]
		b.Run(name, func(b *testing.B) {
			tl := warmTLB(mru)
			i := 0
			for b.Loop() {
				j := i & (benchStreamLen - 1)
				tl.InvalidatePage(vas[j])
				fill(tl, mru[j])
				i++
			}
		})
	}
}
