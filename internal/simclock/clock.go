// Package simclock provides a deterministic virtual clock for
// discrete-event simulation of distributed systems.
//
// The clock tracks a set of goroutines ("actors") and runs them under a
// cooperative single-runnable discipline: exactly one actor executes at a
// time, and the rest wait in a FIFO ready queue or sleep on the timer
// heap. Virtual time advances only when the ready queue is empty and the
// running actor has blocked in Sleep or Event.Wait; at that moment the
// clock jumps to the earliest pending timer and queues the actors
// scheduled there in creation order. Hours of simulated activity
// therefore execute in milliseconds of wall time, and — because the
// interleaving is chosen by the clock, never by the Go runtime — two
// identically-seeded simulations take byte-identical trajectories
// regardless of host load, GC pauses, preemption, or GOMAXPROCS.
//
// Rules for actors:
//
//   - Spawn concurrent simulated work with Clock.Go (never the go statement),
//     so the clock can account for runnable actors.
//   - Block only via Clock.Sleep, Event.Wait, or Group.Wait. Short critical
//     sections guarded by sync.Mutex are fine: the holder keeps the run
//     token and nothing else executes until it blocks on the clock.
//   - The goroutine that calls New is itself tracked and may drive the
//     simulation directly.
//
// If every tracked actor is blocked on an Event that can no longer be
// triggered, the clock panics with a deadlock report rather than hanging.
package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is a virtual clock. Create one with New.
type Clock struct {
	mu        sync.Mutex
	now       time.Time
	running   bool   // one tracked actor currently holds the run token
	cur       *actor // the actor granted the token last
	ready     []*actor
	readyHead int // ready[:readyHead] already granted; pop-front without shifting
	blocked   int // tracked actors blocked on events (not timers)
	timers    timerHeap
	seq       uint64
	idlers    []*actor // Quiesce waiters
	stats     Stats

	// parked holds finished actors for Go to reuse, because event-dense
	// simulations (a million replay operations, each a short-lived actor
	// with a handful of sleeps) otherwise spend their wall clock on
	// goroutine spawns. Parked actors are invisible to the accounting
	// above; the pool is drained whenever the simulation fully quiesces so
	// idle clocks hold no goroutines.
	parked []*actor
}

// actor is one tracked goroutine. It owns a buffered wake channel for its
// whole life: every grant of the run token is one send on it. A parked
// actor only ever receives start grants (fn set) and a busy one only
// resume grants, so the one channel carries both.
type actor struct {
	wake chan struct{}
	fn   func()
}

func newActor() *actor { return &actor{wake: make(chan struct{}, 1)} }

// maxParked bounds the parked-actor pool; beyond it finished actors exit
// instead of parking. It caps idle memory, not concurrency — Go starts
// fresh actors whenever the pool runs dry.
const maxParked = 256

// Stats reports counters about clock activity, useful in tests.
type Stats struct {
	Sleeps   uint64 // number of Sleep calls with positive duration
	Advances uint64 // number of times virtual time moved forward
	Spawned  uint64 // number of actors started via Go
}

// New returns a virtual clock whose time starts at start. The calling
// goroutine is tracked as the first (root) actor and holds the run token.
func New(start time.Time) *Clock {
	return &Clock{now: start, running: true, cur: newActor()}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Stats returns a snapshot of the clock's activity counters.
func (c *Clock) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Sleep blocks the calling actor for d of virtual time. A non-positive d
// returns immediately without yielding.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	a := c.cur
	c.stats.Sleeps++
	c.seq++
	heap.Push(&c.timers, &timer{at: c.now.Add(d), seq: c.seq, a: a})
	c.yieldLocked()
	c.mu.Unlock()
	<-a.wake
}

// Go starts fn as a tracked actor, reusing a parked one when it can. fn
// may freely call Sleep and wait on events; the actor is untracked
// automatically when fn returns. The new actor joins the back of the
// ready queue — it first runs when the actors ahead of it have had their
// turns.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	c.stats.Spawned++
	var a *actor
	if n := len(c.parked); n > 0 {
		a = c.parked[n-1]
		c.parked[n-1] = nil
		c.parked = c.parked[:n-1]
	}
	fresh := a == nil
	if fresh {
		a = newActor()
	}
	a.fn = fn
	c.ready = append(c.ready, a)
	if !c.running {
		c.dispatchLocked()
	}
	c.mu.Unlock()
	if fresh {
		go c.run(a)
	}
}

// GoCall runs fn as a tracked actor.
//
// Deprecated: use Go.
func (c *Clock) GoCall(fn func()) { c.Go(fn) }

// Delay runs fn as a tracked actor after d of virtual time.
func (c *Clock) Delay(d time.Duration, fn func()) {
	c.Go(func() {
		c.Sleep(d)
		fn()
	})
}

// run is an actor goroutine's body: wait for a start grant, run its
// function, then park for reuse or exit. A wake with no function is the
// quiescence drain.
func (c *Clock) run(a *actor) {
	defer func() {
		if a.fn != nil { // fn called runtime.Goexit (t.FailNow): release the token
			c.mu.Lock()
			c.yieldLocked()
			c.mu.Unlock()
		}
	}()
	for {
		<-a.wake
		if a.fn == nil {
			return
		}
		a.fn()
		a.fn = nil
		c.mu.Lock()
		park := len(c.parked) < maxParked
		if park {
			c.parked = append(c.parked, a)
		}
		// Parking and the token release happen under the same lock, so a Go
		// that takes this actor next simply queues on the buffered channel
		// until the loop comes back around.
		c.yieldLocked()
		c.mu.Unlock()
		if !park {
			return
		}
	}
}

// Quiesce blocks the calling actor until every other tracked actor has
// finished and no timers remain; virtual time advances as needed. It is the
// usual way for a test or driver to run the simulation to completion.
func (c *Clock) Quiesce() {
	c.mu.Lock()
	if len(c.ready) == c.readyHead && c.timers.Len() == 0 && c.blocked == 0 {
		c.mu.Unlock()
		return
	}
	a := c.cur
	c.idlers = append(c.idlers, a)
	c.yieldLocked()
	c.mu.Unlock()
	<-a.wake
}

// yieldLocked releases the run token and hands it to the next actor. The
// caller must hold c.mu and, if it queued itself (timer, event waiter,
// idler), must block on its wake channel after releasing the lock.
func (c *Clock) yieldLocked() {
	c.running = false
	c.dispatchLocked()
}

// popReadyLocked removes and returns the front of the ready queue.
func (c *Clock) popReadyLocked() *actor {
	a := c.ready[c.readyHead]
	c.ready[c.readyHead] = nil
	c.readyHead++
	if c.readyHead == len(c.ready) {
		c.ready = c.ready[:0]
		c.readyHead = 0
	} else if c.readyHead > 64 && c.readyHead*2 >= len(c.ready) {
		n := copy(c.ready, c.ready[c.readyHead:])
		clear(c.ready[n:])
		c.ready = c.ready[:n]
		c.readyHead = 0
	}
	return a
}

// dispatchLocked hands the run token to the next ready actor. With the
// queue empty it advances virtual time to the next timer, or wakes
// Quiesce waiters when the simulation is fully drained, or panics on
// deadlock. Ready actors are granted strictly FIFO and due timers are
// queued in creation order, so the schedule is a pure function of the
// simulation — never of the Go runtime.
func (c *Clock) dispatchLocked() {
	for {
		if len(c.ready) > c.readyHead {
			a := c.popReadyLocked()
			c.running = true
			c.cur = a
			a.wake <- struct{}{} // buffered; the actor is parked on the receive
			return
		}
		if c.timers.Len() > 0 {
			c.stats.Advances++
			c.now = c.timers[0].at
			for c.timers.Len() > 0 && !c.timers[0].at.After(c.now) {
				c.ready = append(c.ready, heap.Pop(&c.timers).(*timer).a)
			}
			continue
		}
		if c.blocked > 0 && len(c.idlers) == 0 {
			panic(fmt.Sprintf("simclock: deadlock at %s: %d actor(s) blocked on events with no pending timers",
				c.now.Format(time.RFC3339), c.blocked))
		}
		if len(c.idlers) > 0 {
			// Fully drained (aside from event waiters that can only be woken by
			// the idlers themselves): resume the Quiesce callers and release the
			// parked pool, so a drained clock pins no goroutines.
			for _, a := range c.parked {
				a.wake <- struct{}{} // no fn: the actor exits
			}
			c.parked = nil
			c.ready = append(c.ready, c.idlers...)
			c.idlers = nil
			continue
		}
		return
	}
}

type timer struct {
	at  time.Time
	seq uint64
	a   *actor
}

// timerHeap orders timers by wake time, breaking ties by creation order so
// wake-ups are deterministic.
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
