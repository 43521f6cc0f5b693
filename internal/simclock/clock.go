// Package simclock provides a deterministic virtual clock for
// discrete-event simulation of distributed systems.
//
// The clock runs a set of actors under a cooperative single-runnable
// discipline: exactly one actor executes at a time, and the rest wait in
// a FIFO ready queue, on the timer heap, or on an Event. Virtual time
// advances only when the ready queue is empty; the clock then jumps to the
// earliest pending timer and queues the actors scheduled there in creation
// order. Hours of simulated activity therefore execute in milliseconds of
// wall time, and — because the interleaving is chosen by the clock, never
// by the Go runtime — two identically-seeded simulations take
// byte-identical trajectories regardless of host load, GC pauses,
// preemption, or GOMAXPROCS.
//
// The goroutine that calls New is the root actor, and it is also the
// driver: every other actor is a coroutine that only the driver resumes.
// Blocking (Sleep, Event.Wait, Quiesce) queues the actor where it will be
// found again and yields. A blocked coroutine returns control to the
// driver; a blocked root runs the dispatch loop itself, resuming granted
// coroutines one at a time until the turn comes back to it. Coroutines
// never resume one another, so actor stacks never nest.
//
// Rules for actors:
//
//   - Spawn concurrent simulated work with Clock.Go (never the go statement),
//     so the clock can account for runnable actors.
//   - Block only via Clock.Sleep, Event.Wait, Group.Wait or Clock.Quiesce.
//     Short critical sections guarded by sync.Mutex are fine: the holder
//     keeps the turn and nothing else executes until it blocks on the clock.
//
// Failures surface on the driver. An actor's panic, and runtime.Goexit
// (t.FailNow) called inside one, propagate out of the driver's blocking
// call, where the panic can be recovered. If every actor is blocked on an
// Event that can no longer be triggered, the driver panics with a deadlock
// report rather than hanging, whichever actor blocked last.
package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a virtual clock. Create one with New.
type Clock struct {
	mu        sync.Mutex
	start     time.Time
	now       int64  // virtual nanoseconds since start
	root      *actor // the driver: the goroutine that called New
	cur       *actor // the actor granted the turn last
	ready     []*actor
	readyHead int // ready[:readyHead] already granted; pop-front without shifting
	blocked   int // actors blocked on events (not timers)
	timers    timerHeap
	seq       uint64
	idlers    []*actor // Quiesce waiters
	stats     Stats

	// parked holds finished actors for Go to reuse, because event-dense
	// simulations (a million replay operations, each a short-lived actor
	// with a handful of sleeps) otherwise spend their wall clock on
	// coroutine starts. Parked actors are invisible to the accounting
	// above; the pool is drained whenever the simulation fully quiesces so
	// idle clocks hold no goroutines.
	parked []*actor
}

// actor is one simulated thread of control. The root actor has no
// coroutine; every other actor is one coroutine for its whole life,
// reused across the functions Go hands it.
type actor struct {
	fn     func()
	resume func() (struct{}, bool) // run until the actor yields or its body returns
	stop   func()                  // end a parked actor's body
	yield  func(struct{}) bool     // hand control back to the driver
}

// newActor returns an actor whose coroutine, on its first resume, runs the
// function Go gave it.
func (c *Clock) newActor() *actor {
	a := &actor{}
	a.resume, a.stop = pull(func(yield func(struct{}) bool) {
		a.yield = yield
		for {
			a.fn()
			a.fn = nil
			c.mu.Lock()
			if len(c.parked) >= maxParked {
				c.mu.Unlock()
				return
			}
			c.parked = append(c.parked, a)
			c.mu.Unlock()
			if !yield(struct{}{}) { // stopped by the quiescence drain
				return
			}
		}
	})
	return a
}

// maxParked bounds the parked-actor pool; beyond it finished actors exit
// instead of parking. It caps idle memory, not concurrency — Go starts
// fresh actors whenever the pool runs dry.
const maxParked = 256

// Stats reports counters about clock activity, useful in tests.
type Stats struct {
	Sleeps   uint64 // number of Sleep calls with positive duration
	Advances uint64 // number of times virtual time moved forward
	Spawned  uint64 // number of actors started via Go
	Turns    uint64 // number of turns granted, the root's included
	ReadyMax uint64 // high-water length of the ready queue
}

// New returns a virtual clock whose time starts at start. The calling
// goroutine is the root actor and holds the first turn.
func New(start time.Time) *Clock {
	root := &actor{}
	return &Clock{start: start, root: root, cur: root}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start.Add(time.Duration(c.now))
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
	c.stats.Sleeps++
	c.seq++
	c.timers.push(timer{at: c.now + int64(d), seq: c.seq, a: c.cur})
	c.blockLocked()
}

// Go starts fn as an actor, reusing a parked one when it can. fn may
// freely call Sleep and wait on events; the actor is released
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
	} else {
		a = c.newActor()
	}
	a.fn = fn
	c.pushReadyLocked(a)
	c.mu.Unlock()
}

// GoCall runs fn as an actor.
//
// Deprecated: use Go.
func (c *Clock) GoCall(fn func()) { c.Go(fn) }

// Delay runs fn as an actor after d of virtual time.
func (c *Clock) Delay(d time.Duration, fn func()) {
	c.Go(func() {
		c.Sleep(d)
		fn()
	})
}

// Quiesce blocks the calling actor until every other actor has finished
// and no timers remain; virtual time advances as needed. It is the usual
// way for a test or driver to run the simulation to completion.
func (c *Clock) Quiesce() {
	c.mu.Lock()
	if len(c.ready) == c.readyHead && len(c.timers) == 0 && c.blocked == 0 {
		c.mu.Unlock()
		return
	}
	c.idlers = append(c.idlers, c.cur)
	c.blockLocked()
}

// blockLocked gives up the calling actor's turn and returns, with c.mu
// released, once the actor is granted a turn again. The caller must hold
// c.mu and must already have queued the actor where it will be found (a
// timer, an event's waiters, the idlers). A coroutine just yields to the
// driver. The root is the driver: it runs the dispatch loop, resuming each
// granted coroutine until the loop grants the root itself.
func (c *Clock) blockLocked() {
	if a := c.cur; a != c.root {
		c.mu.Unlock()
		a.yield(struct{}{})
		return
	}
	for {
		a := c.grantLocked()
		c.mu.Unlock()
		if a == c.root {
			return
		}
		a.resume()
		c.mu.Lock()
	}
}

// pushReadyLocked queues a at the back of the ready queue.
func (c *Clock) pushReadyLocked(a *actor) {
	c.ready = append(c.ready, a)
	if n := uint64(len(c.ready) - c.readyHead); n > c.stats.ReadyMax {
		c.stats.ReadyMax = n
	}
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

// grantLocked picks the actor that runs next and makes it current. With
// the ready queue empty it advances virtual time to the next timer, or
// wakes Quiesce waiters when the simulation is fully drained, or panics on
// deadlock. Ready actors are granted strictly FIFO and due timers are
// queued in creation order, so the schedule is a pure function of the
// simulation — never of the Go runtime. Only the driver calls it, while
// the root is blocked, so the root is always queued somewhere.
func (c *Clock) grantLocked() *actor {
	for {
		if len(c.ready) > c.readyHead {
			a := c.popReadyLocked()
			c.stats.Turns++
			c.cur = a
			return a
		}
		if len(c.timers) > 0 {
			c.stats.Advances++
			c.now = c.timers[0].at
			for len(c.timers) > 0 && c.timers[0].at <= c.now {
				c.pushReadyLocked(c.timers.pop())
			}
			continue
		}
		if len(c.idlers) == 0 {
			// Nothing ready, no timers, no Quiesce waiter: the root itself
			// waits on an event, like every other blocked actor.
			msg := fmt.Sprintf("simclock: deadlock at %s: %d actor(s) blocked on events with no pending timers",
				c.start.Add(time.Duration(c.now)).Format(time.RFC3339), c.blocked)
			c.mu.Unlock()
			panic(msg)
		}
		// Fully drained (aside from event waiters that can only be woken by
		// the idlers themselves): end the parked actors, so a drained clock
		// pins no goroutines, and resume the Quiesce callers. A stopped
		// actor's body returns without taking c.mu.
		for _, a := range c.parked {
			a.stop()
		}
		c.parked = nil
		for _, a := range c.idlers {
			c.pushReadyLocked(a)
		}
		c.idlers = nil
	}
}

type timer struct {
	at  int64 // virtual nanoseconds since the clock's start
	seq uint64
	a   *actor
}

// timerHeap is a binary min-heap of timers ordered by wake time, breaking
// ties by creation order so wake-ups are deterministic.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the earliest timer and returns its actor.
func (h *timerHeap) pop() *actor {
	s := *h
	n := len(s) - 1
	a := s[0].a
	s[0] = s[n]
	s[n] = timer{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return a
}
