package main

import (
	"fmt"
	"runtime"
	"time"

	areplica "repro"
	"repro/internal/cloud"
	"repro/internal/faas"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/objstore"
	"repro/internal/planner"
	"repro/internal/pricing"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// probeBudget is the wall time each primitive probe runs for.
const probeBudget = 60 * time.Millisecond

// probe times direct calls of fn and returns ns/op and allocs/op. It
// runs fn in chunks until probeBudget has passed.
func probe(fn func(i int)) (nsPerOp, allocsPerOp float64) {
	fn(0) // first-use set-up is not the primitive's cost
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < probeBudget {
		for j := 0; j < 16; j++ {
			n++
			fn(n)
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probes measures the cost of each layer's primitives, called directly
// on fresh substrates outside any workload. Every probe reports
// "<layer>.<op>_ns" and "<layer>.<op>_allocs".
func probes() (map[string]float64, error) {
	out := make(map[string]float64)
	record := func(name string, fn func(i int)) {
		ns, allocs := probe(fn)
		out[name+"_ns"] = ns
		out[name+"_allocs"] = allocs
	}

	region := cloud.MustLookup("aws:us-east-1")
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

	// simclock: a lone actor's timed sleep, and a pooled actor turn.
	clock := simclock.New(epoch)
	record("simclock.sleep", func(int) { clock.Sleep(time.Millisecond) })
	record("simclock.gocall", func(int) {
		clock.GoCall(func() {})
		clock.Quiesce()
	})

	// objstore: PUT and HEAD of a 1 KB object, 64 keys.
	meter := pricing.NewMeter()
	obj := objstore.New(clock, region, meter)
	if err := obj.CreateBucket("probe", false); err != nil {
		return nil, err
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		if _, err := obj.Put("probe", keys[i], objstore.BlobOfSize(1024, uint64(i))); err != nil {
			return nil, err
		}
	}
	record("objstore.put", func(i int) {
		_, _ = obj.Put("probe", keys[i%len(keys)], objstore.BlobOfSize(1024, uint64(i))) // no faults are armed
	})
	record("objstore.head", func(i int) { _, _ = obj.Head("probe", keys[i%len(keys)]) })

	// kvstore: read-modify-write of a small item and of an item shaped
	// like a 128-part pool record; an atomic counter increment.
	kv := kvstore.New(clock, region, meter)
	kv.Put("probe", "small", kvstore.Item{"owner": "probe", "n": int64(0)})
	pool := kvstore.Item{"etag": "e", "total": int64(128), "next": int64(0), "done": int64(0),
		"epoch": int64(1), "bitmap": string(make([]byte, 128)), "reclaimed": ""}
	for i := 0; i < 128; i++ {
		pool[fmt.Sprintf("lease-%d", i)] = "owner|1|0"
	}
	kv.Put("probe", "pool", pool)
	record("kvstore.update_small", func(i int) {
		kv.Update("probe", "small", func(cur kvstore.Item, _ bool) (kvstore.Item, bool) {
			cur["n"] = int64(i)
			return cur, true
		})
	})
	record("kvstore.update_pool", func(i int) {
		kv.Update("probe", "pool", func(cur kvstore.Item, _ bool) (kvstore.Item, bool) {
			cur["next"] = int64(i % 128)
			return cur, true
		})
	})
	record("kvstore.increment", func(int) { kv.Increment("probe", "ctr", "n", 1) })

	// faas: one warm invocation of an empty handler, run to completion.
	fn := faas.New(clock, region, netsim.New(), meter, faas.DefaultConfig(region.Provider))
	record("faas.invoke", func(int) {
		fn.Invoke(1, func(*faas.Ctx) {})
		clock.Quiesce()
	})

	// planner: the fastest plan for a memoized size, and for sizes it has
	// not seen, on a profiled cross-cloud pair.
	pl, err := probePlanner()
	if err != nil {
		return nil, err
	}
	src, dst := cloud.RegionID("aws:us-east-1"), cloud.RegionID("gcp:asia-northeast1")
	record("planner.plan_hit", func(int) { _, _ = pl.PlanWith(src, dst, 256<<20, 0, 0.99, planner.PlanOpts{}) })
	record("planner.plan_miss", func(i int) { _, _ = pl.PlanWith(src, dst, 256<<20+int64(i), 0, 0.99, planner.PlanOpts{}) })

	// telemetry: a counter add, a histogram observation, and one root
	// span started and ended with the tracer on and off.
	reg := telemetry.NewRegistry()
	ctr, hist := reg.Counter("probe.count"), reg.Histogram("probe.seconds")
	record("telemetry.counter_add", func(int) { ctr.Add(1) })
	record("telemetry.observe", func(i int) { hist.Observe(float64(i%100) / 100) })
	ids := make([]string, 1<<14)
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%05d", i)
	}
	on := telemetry.NewTracer(clock.Now)
	on.Enable()
	record("telemetry.span_on", func(i int) {
		if i%len(ids) == 0 {
			on.Reset()
		}
		on.StartTrace(ids[i%len(ids)], "probe").End()
	})
	off := telemetry.NewTracer(clock.Now)
	record("telemetry.span_off", func(i int) { off.StartTrace(ids[i%len(ids)], "probe").End() })
	return out, nil
}

// probePlanner returns the planner of a deployed rule, so its
// performance model is profiled for the probed pair.
func probePlanner() (*planner.Planner, error) {
	sim := areplica.NewSim()
	rep, err := deployPair(sim,
		bucketRef{"aws:us-east-1", "probe"}, bucketRef{"gcp:asia-northeast1", "probe-replica"},
		areplica.Rule{})
	if err != nil {
		return nil, err
	}
	return rep.Service().Planner, nil
}
