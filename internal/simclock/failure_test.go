package simclock

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// drive runs sim on a fresh goroutine that creates the clock, so that
// goroutine is the driver, and reports how the driver ended: the value it
// panicked with (nil if none) and whether sim returned normally.
func drive(t *testing.T, sim func(c *Clock)) (panicked any, returned bool) {
	t.Helper()
	type end struct {
		panicked any
		returned bool
	}
	done := make(chan end, 1)
	go func() {
		var e end
		defer func() {
			e.panicked = recover()
			done <- e
		}()
		sim(New(epoch))
		e.returned = true
	}()
	select {
	case e := <-done:
		return e.panicked, e.returned
	case <-time.After(5 * time.Second):
		t.Fatal("driver never ended")
		return nil, false
	}
}

// An actor that exits through runtime.Goexit (t.FailNow inside an actor)
// ends the driver's goroutine the same way.
func TestGoexitReachesDriver(t *testing.T) {
	p, returned := drive(t, func(c *Clock) {
		c.Go(runtime.Goexit)
		c.Delay(time.Second, func() {})
		c.Quiesce()
	})
	if returned || p != nil {
		t.Fatalf("driver returned=%v panicked=%v, want a Goexit", returned, p)
	}
}

// An actor's panic propagates out of the driver's blocking call, where the
// driver can recover the original value.
func TestActorPanicReachesDriver(t *testing.T) {
	type boom struct{ at time.Duration }
	p, returned := drive(t, func(c *Clock) {
		c.Delay(time.Second, func() { panic(boom{c.Since(epoch)}) })
		c.Quiesce()
	})
	if returned || p != (boom{time.Second}) {
		t.Fatalf("driver returned=%v panicked=%v, want boom{1s}", returned, p)
	}
}

// When the last actor to block is not the root, the deadlock panic still
// surfaces on the driver.
func TestDeadlockFromActorReachesDriver(t *testing.T) {
	p, returned := drive(t, func(c *Clock) {
		c.Go(func() {
			c.Sleep(time.Millisecond)
			c.NewEvent().Wait() // blocks after the root: nothing can wake either
		})
		c.NewEvent().Wait()
	})
	msg, _ := p.(string)
	if returned || !strings.HasPrefix(msg, "simclock: deadlock") {
		t.Fatalf("driver returned=%v panicked=%v, want a deadlock panic", returned, p)
	}
}
