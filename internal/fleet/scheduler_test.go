package fleet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestSchedulerAdmissionOrder pins the scheduler's admission order on one
// lane with a single slot, so every pump round admits exactly one
// dispatch: priority class first, then fair share (vruntime grows by
// 1/weight per admission), then the lower rule ID. Each admitted dispatch
// holds the lane's function quota while it runs, and the ledger must end
// balanced.
func TestSchedulerAdmissionOrder(t *testing.T) {
	clk := simclock.New(time.Unix(0, 0))
	lane := LaneID{Provider: "aws", Region: "us-east-1"}
	ledger := NewLedger(clk, nil, QuotaConfig{FaaSConcurrency: 1})
	s := NewScheduler(clk, nil, ledger, SchedConfig{LaneSlots: 1})
	for _, r := range []struct {
		id       string
		weight   float64
		priority int
	}{
		{"r1", 1, 0},
		{"r2", 2, 0},
		{"hi", 1, 1},
	} {
		if err := s.Register(r.id, "dst", lane, r.weight, r.priority); err != nil {
			t.Fatal(err)
		}
	}

	var admitted []string
	submit := func(rule string, n int) {
		for i := 0; i < n; i++ {
			s.Submit(rule, func(done func()) {
				admitted = append(admitted, rule)
				ledger.Acquire(lane)
				clk.Sleep(time.Second)
				ledger.Release(lane)
				done()
			})
		}
	}
	// Low priority first: submission order must not matter.
	submit("r1", 2)
	submit("r2", 4)
	submit("hi", 2)
	clk.Quiesce()

	// hi drains first (priority 1). Then r1 and r2 tie at vruntime 0 and
	// the lower ID wins; r2 (weight 2) then takes two admissions per r1
	// admission, tying again at vruntime 1 where r1 wins by ID.
	want := "hi hi r1 r2 r2 r1 r2 r2"
	if got := strings.Join(admitted, " "); got != want {
		t.Fatalf("admission order = %q, want %q", got, want)
	}
	for _, rs := range s.RuleStats() {
		if rs.Queued != 0 || rs.QuotaWaits != 0 {
			t.Fatalf("rule %s: %+v", rs.Rule, rs)
		}
	}
	if bs := s.BatchStats(); bs.Batches != 8 || bs.Admitted != 8 {
		t.Fatalf("batch stats = %+v, want 8 single-admission batches", bs)
	}

	// Contend for the same quota directly: three actors serialize behind
	// the one slot without a forced admission.
	for i := 0; i < 3; i++ {
		clk.Go(func() {
			ledger.Acquire(lane)
			clk.Sleep(time.Second)
			ledger.Release(lane)
		})
	}
	clk.Quiesce()
	st := ledger.Stats()
	if len(st) != 1 {
		t.Fatalf("ledger has %d lanes, want 1", len(st))
	}
	if ls := st[0]; ls.Lane != lane || ls.Inflight != 0 || ls.Forced != 0 || ls.MaxInflight != 1 {
		t.Fatalf("lane stats = %+v, want 0 inflight, 0 forced, high-water 1", ls)
	}
}
