package workloads

import (
	"runtime"
	"testing"
)

// parkedWait starts a waiter for round r and returns once its spin has run
// out and it has raised the sleeping flag.
func parkedWait(g *gate, r uint64) <-chan uint64 {
	got := make(chan uint64, 1)
	go func() { got <- g.wait(r) }()
	for !g.sleeping.Load() {
		runtime.Gosched()
	}
	return got
}

func TestGateSignalBeforeWait(t *testing.T) {
	g := newGate()
	g.signal(1)
	if got := g.wait(1); got != 1 {
		t.Fatalf("wait(1) = %d, want 1", got)
	}
	// A later round satisfies an earlier wait.
	g.signal(3)
	if got := g.wait(2); got != 3 {
		t.Fatalf("wait(2) after signal(3) = %d, want 3", got)
	}
}

func TestGateWaitThenSignal(t *testing.T) {
	g := newGate()
	got := make(chan uint64, 1)
	go func() { got <- g.wait(1) }()
	g.signal(1)
	if v := <-got; v != 1 {
		t.Fatalf("wait(1) = %d, want 1", v)
	}
}

func TestGateParkThenWake(t *testing.T) {
	g := newGate()
	got := parkedWait(g, 1)
	g.signal(1)
	if v := <-got; v != 1 {
		t.Fatalf("wait(1) = %d, want 1", v)
	}
	if g.sleeping.Load() {
		t.Fatal("sleeping flag still set after the waiter returned")
	}
	// The next round parks and wakes the same way, whatever wakeup the
	// first one left behind.
	got = parkedWait(g, 2)
	g.signal(2)
	if v := <-got; v != 2 {
		t.Fatalf("wait(2) = %d, want 2", v)
	}
}

// TestGateBackoff: a spin that runs out makes the next waits park without
// spinning, for 1, 3, 7, ... waits while spins keep running out, and a
// round signalled before the wait leaves that state alone. (The reset by a
// spin that catches its round needs both goroutines really running at
// once, which the OS does not promise a test.)
func TestGateBackoff(t *testing.T) {
	g := newGate()
	r := uint64(0)
	parkOnce := func() {
		r++
		got := parkedWait(g, r)
		g.signal(r)
		<-got
	}
	for i, want := range []struct{ backoff, penalty int }{
		{1, 1}, {0, 1}, {3, 3}, {2, 3}, {1, 3}, {0, 3}, {7, 7},
	} {
		parkOnce()
		if g.backoff != want.backoff || g.penalty != want.penalty {
			t.Fatalf("after parked wait %d: backoff %d penalty %d, want %d and %d",
				i+1, g.backoff, g.penalty, want.backoff, want.penalty)
		}
	}
	for g.backoff > 0 {
		parkOnce()
	}
	r++
	g.signal(r)
	g.wait(r)
	if g.backoff != 0 || g.penalty != 7 {
		t.Fatalf("a round signalled before the wait changed the state: backoff %d penalty %d", g.backoff, g.penalty)
	}
}

func TestGateStopWhileParked(t *testing.T) {
	g := newGate()
	got := parkedWait(g, 5)
	g.signal(gateStop)
	if v := <-got; v != gateStop {
		t.Fatalf("wait(5) after stop = %d, want gateStop", v)
	}
}

// TestGatePingPong hands a plain counter back and forth for 100k rounds:
// under -race it fails unless each gate orders the accesses on its two
// sides.
func TestGatePingPong(t *testing.T) {
	const rounds = 100_000
	ping, pong := newGate(), newGate()
	shared := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := uint64(1); r <= rounds; r++ {
			ping.wait(r)
			shared++
			pong.signal(r)
		}
	}()
	for r := uint64(1); r <= rounds; r++ {
		shared++
		ping.signal(r)
		pong.wait(r)
	}
	<-done
	if shared != 2*rounds {
		t.Fatalf("shared = %d after %d rounds, want %d", shared, rounds, 2*rounds)
	}
}
