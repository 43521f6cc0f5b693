package simclock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTurnOrderPinned drives one fixed scenario and pins the exact sequence
// of actor turns. Every simulated number depends on this interleaving, so a
// change to the dispatcher that reorders turns must fail here first. The
// scenario mixes Go from the root and from inside an actor, Delay, several
// timers due at the same virtual instant, an Event with two waiters, and a
// Group, ending in Quiesce.
func TestTurnOrderPinned(t *testing.T) {
	c := New(epoch)
	var turns []string
	rec := func(name string) {
		turns = append(turns, fmt.Sprintf("%s@%v", name, c.Since(epoch)))
	}
	ev := c.NewEvent()
	g := c.NewGroup(3)

	c.Go(func() {
		rec("A")
		c.Go(func() {
			rec("C")
			g.Done()
		})
		ev.Wait()
		rec("A.woke")
		g.Done()
	})
	c.Go(func() {
		rec("B")
		ev.Wait()
		rec("B.woke")
		g.Done()
	})
	c.Delay(time.Second, func() {
		rec("D")
		ev.Trigger()
		rec("D.triggered")
	})
	for _, name := range []string{"T1", "T2", "T3"} {
		name := name
		c.Go(func() {
			c.Sleep(time.Second)
			rec(name)
		})
	}
	rec("root.spawned")
	g.Wait()
	rec("root.group")
	c.Go(func() { rec("E") })
	c.Delay(time.Second, func() { rec("F") })
	c.Quiesce()
	rec("root.quiesced")

	want := []string{
		"root.spawned@0s",
		"A@0s", "B@0s", "C@0s",
		"D@1s", "D.triggered@1s",
		"T1@1s", "T2@1s", "T3@1s",
		"A.woke@1s", "B.woke@1s",
		"root.group@1s",
		"E@1s", "F@2s",
		"root.quiesced@2s",
	}
	if got, exp := strings.Join(turns, " "), strings.Join(want, " "); got != exp {
		t.Fatalf("turn order changed:\n got  %s\n want %s", got, exp)
	}
}
