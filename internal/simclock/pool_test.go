package simclock

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count falls back to at most
// want, giving drained actors a moment to exit.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Quiesce, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// A drained clock pins no goroutines: Quiesce releases every parked actor.
func TestPoolDrainedAtQuiesce(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New(epoch)
	for i := 0; i < 50; i++ {
		d := time.Duration(i%5+1) * time.Millisecond
		c.Go(func() { c.Sleep(d) })
	}
	c.Quiesce()
	if n := len(c.parked); n != 0 {
		t.Fatalf("%d actors still parked after Quiesce", n)
	}
	waitGoroutines(t, before)
}

// More concurrent actors than the pool holds all complete; the surplus
// exits instead of parking, and a second wave after the drain completes.
func TestPoolOverflowAndSecondWave(t *testing.T) {
	before := runtime.NumGoroutine()
	c := New(epoch)
	const n = 1000
	var done atomic.Int64
	wave := func() {
		for i := 0; i < n; i++ {
			d := time.Duration(i%7+1) * time.Millisecond
			c.Go(func() {
				c.Sleep(d)
				done.Add(1)
			})
		}
		c.Quiesce()
	}
	wave()
	if got := done.Load(); got != n {
		t.Fatalf("first wave: %d of %d actors completed", got, n)
	}
	wave()
	if got := done.Load(); got != 2*n {
		t.Fatalf("second wave: %d of %d actors completed", got-n, n)
	}
	if s := c.Stats(); s.Spawned != 2*n {
		t.Fatalf("Spawned = %d, want %d", s.Spawned, 2*n)
	}
	waitGoroutines(t, before)
}

// A reused actor keeps its coroutine: it blocks in Sleep and Event.Wait
// and wakes at the right virtual times.
func TestPoolReusedActorSleepsAndWaits(t *testing.T) {
	c := New(epoch)
	c.Go(func() {})
	c.Sleep(time.Second) // the first actor finishes and parks; no drain
	if n := len(c.parked); n != 1 {
		t.Fatalf("%d actors parked, want 1", n)
	}
	reused := c.parked[0]
	ev := c.NewEvent()
	var slept, woke time.Duration
	c.Go(func() {
		c.Sleep(2 * time.Second)
		slept = c.Since(epoch)
		ev.Wait()
		woke = c.Since(epoch)
	})
	if len(c.parked) != 0 || c.ready[c.readyHead] != reused {
		t.Fatal("Go did not reuse the parked actor")
	}
	c.Delay(5*time.Second, ev.Trigger)
	c.Quiesce()
	if slept != 3*time.Second || woke != 6*time.Second {
		t.Fatalf("reused actor woke at %v and %v, want 3s and 6s", slept, woke)
	}
}
