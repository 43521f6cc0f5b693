package simclock

import (
	"testing"
	"time"
)

// BenchmarkSleepLone times one Sleep by the root with nothing else to run:
// a timer push, an advance and a pop, with no coroutine switch.
func BenchmarkSleepLone(b *testing.B) {
	c := New(epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Sleep(time.Millisecond)
	}
}

// BenchmarkTurnPingPong times one turn of two actors alternating Sleep:
// each op is a Sleep and a switch to the other actor through the driver.
func BenchmarkTurnPingPong(b *testing.B) {
	c := New(epoch)
	for k := 0; k < 2; k++ {
		n := (b.N + 1 - k) / 2
		c.Go(func() {
			for i := 0; i < n; i++ {
				c.Sleep(time.Millisecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	c.Quiesce()
}

// BenchmarkGoPooled times Go on a warm pool followed by a Sleep that lets
// the new actor run and park again; no Quiesce drains the pool between ops.
func BenchmarkGoPooled(b *testing.B) {
	c := New(epoch)
	fn := func() {}
	c.Go(fn)
	c.Sleep(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Go(fn)
		c.Sleep(time.Millisecond)
	}
}
