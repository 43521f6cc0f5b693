package simclock

// Event is a one-shot synchronization point on a virtual clock, analogous
// to a channel that is closed exactly once. Waiting on an Event does not
// consume virtual time.
type Event struct {
	c       *Clock
	done    bool
	waiters []*actor
}

// NewEvent returns an untriggered Event bound to the clock.
func (c *Clock) NewEvent() *Event {
	return &Event{c: c}
}

// Wait blocks the calling actor until the event is triggered. If the event
// has already been triggered, Wait returns immediately.
func (e *Event) Wait() {
	c := e.c
	c.mu.Lock()
	if e.done {
		c.mu.Unlock()
		return
	}
	e.waiters = append(e.waiters, c.cur)
	c.blocked++
	c.blockLocked()
}

// Triggered reports whether the event has been triggered.
func (e *Event) Triggered() bool {
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	return e.done
}

// Trigger fires the event and queues all waiters, in the order they began
// waiting, behind the actors already in the ready queue. Triggering an
// already triggered event is a no-op.
func (e *Event) Trigger() {
	c := e.c
	c.mu.Lock()
	if !e.done {
		e.done = true
		c.blocked -= len(e.waiters)
		for _, a := range e.waiters {
			c.pushReadyLocked(a)
		}
		e.waiters = nil
	}
	c.mu.Unlock()
}

// Group is a counting barrier on a virtual clock, analogous to
// sync.WaitGroup. The zero Group is not usable; create one with NewGroup.
type Group struct {
	c     *Clock
	n     int
	event *Event
}

// NewGroup returns a Group with an initial count of n. A Group whose count
// is already zero is immediately done.
func (c *Clock) NewGroup(n int) *Group {
	g := &Group{c: c, n: n, event: c.NewEvent()}
	if n <= 0 {
		g.event.Trigger()
	}
	return g
}

// Done decrements the count, triggering the group's event at zero.
func (g *Group) Done() {
	g.c.mu.Lock()
	g.n--
	fire := g.n <= 0
	g.c.mu.Unlock()
	if fire {
		g.event.Trigger()
	}
}

// Wait blocks the calling actor until the count reaches zero.
func (g *Group) Wait() { g.event.Wait() }
