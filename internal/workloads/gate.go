package workloads

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// gateSpin is how long a gate's waiter spins before it parks. A round's
// compute takes tens of microseconds, so the signal usually lands within
// the spin and neither side pays a scheduler wakeup.
const gateSpin = 200 * time.Microsecond

// gateClockEvery is the number of spin iterations between clock reads.
// Each read also yields the P, so a waiter that spins through a round
// does not keep the runtime's GC workers and other goroutines off its CPU.
const gateClockEvery = 256

// gateMaxBackoff caps the number of waits a gate parks at once after its
// spins ran out.
const gateMaxBackoff = 1023

// gateStop is the round a gate signals to tell its waiter to exit.
const gateStop = math.MaxUint64

// gate hands increasing round numbers from one signalling goroutine to one
// waiting goroutine. The waiter spins on the atomic round for about
// gateSpin, then parks on a one-slot channel behind a sleeping flag. A bare
// channel handoff would queue the woken goroutine on the sender's P, so
// the two sides would mostly take turns on one CPU; spinning keeps each on
// its own. The atomic round is the happens-before edge: whatever the
// signaller wrote before signal(r) is visible once wait(r) returns.
type gate struct {
	round    atomic.Uint64
	sleeping atomic.Bool
	wake     chan struct{}
	// backoff is the number of waits left that park without spinning. A
	// spin that runs out suggests the signaller could not run meanwhile:
	// the OS may keep both threads on one CPU, and spinning then only
	// delays it. Each such spin sets backoff to penalty, which grows 1, 3,
	// 7, ... while spins keep running out, up to gateMaxBackoff; a spin
	// that catches its round resets it. Both are the waiter's alone.
	backoff, penalty int
}

func newGate() *gate { return &gate{wake: make(chan struct{}, 1)} }

// signal publishes round r, which must exceed every earlier signal, and
// wakes the waiter if it parked.
func (g *gate) signal(r uint64) {
	g.round.Store(r)
	// Sequentially consistent atomics close the lost-wakeup window: either
	// this load sees the waiter's sleeping flag, or the waiter's recheck
	// after setting it sees r.
	if g.sleeping.Load() {
		select {
		case g.wake <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
}

// wait blocks until round r or a later one has been signalled and returns
// the latest signalled round (gateStop once the signaller stopped).
func (g *gate) wait(r uint64) uint64 {
	if v := g.round.Load(); v >= r {
		return v
	}
	if g.backoff > 0 {
		g.backoff--
	} else {
		deadline := time.Now().Add(gateSpin)
		for i := 1; ; i++ {
			if v := g.round.Load(); v >= r {
				g.penalty = 0
				return v
			}
			if i%gateClockEvery == 0 {
				if !time.Now().Before(deadline) {
					break
				}
				runtime.Gosched()
			}
		}
		g.penalty = min(2*g.penalty+1, gateMaxBackoff)
		g.backoff = g.penalty
	}
	for {
		g.sleeping.Store(true)
		if v := g.round.Load(); v >= r {
			g.sleeping.Store(false)
			return v
		}
		// A wakeup left over from an earlier round only costs one more
		// pass of this loop.
		<-g.wake
	}
}
