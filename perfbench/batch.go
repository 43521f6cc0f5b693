package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	areplica "repro"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/objstore"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// modelled is a batch's outcome in the modelled system's own units. It
// is a pure function of the batch's inputs: two runs of one batch must
// produce equal values, traced or not.
type modelled struct {
	Replicas int64 // replica writes landed on destination buckets
	Bytes    int64 // bytes of those writes
	CostUSD  float64
	KVOps    int64
	Delays   []float64 // virtual replication delays, seconds, sorted
	GenLag   float64   // latest a source PUT landed after its due time, seconds

	Audited     int
	Diverged    int
	DLQ         int
	Pending     int
	Dups        int
	PutFailures int
	Unclean     int // rules whose final scrub found no clean round
}

// failures counts the batch's failed replica operations.
func (m *modelled) failures() int {
	return m.Diverged + m.DLQ + m.Pending + m.Dups + m.PutFailures + m.Unclean
}

// attempts counts the batch's replica operations: writes landed plus
// those that never landed.
func (m *modelled) attempts() int64 {
	return m.Replicas + int64(m.Diverged+m.DLQ+m.Pending+m.PutFailures)
}

// batchResult is one batch: its modelled outcome, the host cost of
// simulating it, and the layer counters it moved.
type batchResult struct {
	modelled modelled

	setup   time.Duration // NewSim + deploy
	replay  time.Duration
	drain   time.Duration // Wait + bounded redrive
	scrub   time.Duration
	mallocs uint64 // heap allocations in the window (replay+drain+scrub)
	gcs     uint32
	heap    uint64 // HeapAlloc after the drain and a forced GC

	layers     layerCounts
	quantiles  map[string]float64
	backlogMax float64
	// critpath is virtual seconds per critical-path category over the
	// batch's retained traces (nil unless batchOpts.critpath was set).
	critpath map[string]float64
}

// window is the measured span: replay, drain and scrub.
func (b *batchResult) window() time.Duration { return b.replay + b.drain + b.scrub }

// replicasPerSec is replica writes landed per wall-second of the window.
func (b *batchResult) replicasPerSec() float64 {
	return float64(b.modelled.Replicas) / b.window().Seconds()
}

// batchOpts selects what a batch records beyond the timed figures.
type batchOpts struct {
	spans    *recorder // bench spans (nil: off)
	critpath bool      // trace the program and attribute critical paths
}

// dstWatcher counts replica writes and duplicate final writes on one
// destination bucket: a later version whose ETag equals the one already
// durable is a duplicate.
type dstWatcher struct {
	mu    sync.Mutex
	puts  int64
	bytes int64
	dups  int
	last  map[string]watchedVer
}

type watchedVer struct {
	seq  uint64
	etag uint64
}

func (w *dstWatcher) observe(ev objstore.Event) {
	if ev.Type != objstore.EventPut {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if ev.Origin != "" {
		w.puts++
		w.bytes += ev.Size
	}
	cur := w.last[ev.Key]
	if ev.Seq > cur.seq {
		h := fnv.New64a()
		h.Write([]byte(ev.ETag))
		etag := h.Sum64()
		if ev.ETag != "" && cur.etag == etag {
			w.dups++
		}
		w.last[ev.Key] = watchedVer{seq: ev.Seq, etag: etag}
	}
}

// setUp builds a fresh Sim and deploys the workload on it. It starts
// from a collected heap, so the time does not depend on the garbage the
// previous batch left.
func setUp(w *workload, seed int64, batch int) (*areplica.Sim, *deployment, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	sim := areplica.NewSim()
	d, err := w.deploy(sim, seed, batch)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: deploy: %w", w.name, err)
	}
	return sim, d, time.Since(start), nil
}

// runBatch sets the workload up on a fresh Sim, replays ops open-loop in
// virtual time, drains, and audits the result.
func runBatch(w *workload, seed int64, batch int, ops []trace.Op, o batchOpts) (*batchResult, error) {
	rec := o.spans
	root := rec.start(fmt.Sprintf("batch %s/%d/%d", w.name, seed, batch), 0)
	defer rec.end(root)

	sp := rec.start("deploy", root)
	sim, d, setup, err := setUp(w, seed, batch)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	world := sim.World()
	if o.critpath && !world.Tracer.Enabled() {
		world.Tracer.SetPolicy(&telemetry.RetentionPolicy{HeadSampleN: w.traceSample})
		world.Tracer.Enable()
	}
	watchers := make([]*dstWatcher, len(d.dsts))
	for i, b := range d.dsts {
		watchers[i] = &dstWatcher{last: make(map[string]watchedVer)}
		rid, err := cloud.ParseRegionID(b.region)
		if err != nil {
			return nil, err
		}
		if err := world.Region(rid).Obj.Subscribe(b.bucket, watchers[i].observe); err != nil {
			return nil, err
		}
	}

	res := &batchResult{setup: setup}
	before := readLayers(sim, d)
	costBefore := sim.CostTotal()
	runtime.GC()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	// Replay: each operation is issued at its trace time whatever the
	// system's progress (open loop in virtual time).
	start := time.Now()
	replaySpan := rec.start("replay", root)
	var mu sync.Mutex
	var genLag time.Duration
	putFailures := 0
	clock := world.Clock
	virtStart := clock.Now()
	trace.Replay(clock, ops, func(op trace.Op) {
		e := d.entries[d.route(op.Key)]
		key := e.prefix + op.Key
		due := virtStart.Add(op.At)
		if op.Type == trace.OpDelete {
			s := rec.start("delete", replaySpan)
			_ = sim.DeleteObject(e.region, e.bucket, key) // a refused delete leaves the key at the source; the audit compares against it
			rec.end(s)
			return
		}
		s := rec.start("put", replaySpan)
		err := putObject(sim, d.retryPuts, e, key, op.Size)
		rec.end(s)
		lag := clock.Now().Sub(due)
		mu.Lock()
		if err != nil {
			putFailures++
		}
		genLag = max(genLag, lag)
		mu.Unlock()
		if d.pollMonitors {
			for _, r := range d.reps {
				r.PollMonitor()
			}
		}
	})
	rec.end(replaySpan)
	res.replay = time.Since(start)

	// Drain: run to quiescence, then redrive dead letters a bounded
	// number of times. The periodic scrub loop is stopped first: it ends
	// only after consecutive clean rounds, which persistent injected
	// faults can postpone indefinitely; the driver-paced scrub below is
	// bounded.
	start = time.Now()
	sp = rec.start("wait", root)
	d.stopScrubs()
	sim.Wait()
	rec.end(sp)
	for i := 0; i < 3 && dlqTotal(d) > 0; i++ {
		sp = rec.start("redrive", root)
		redrive(d)
		sim.Wait()
		rec.end(sp)
	}
	res.drain = time.Since(start)

	if d.scrub {
		start = time.Now()
		sp = rec.start("scrub", root)
		for _, r := range d.reps {
			// An error here means no clean round within the scrub's bound;
			// the pending and audit counts below say why.
			if _, err := r.ScrubUntilClean(); err != nil {
				res.modelled.Unclean++
			}
		}
		sim.Wait()
		rec.end(sp)
		res.scrub = time.Since(start)
	}

	runtime.ReadMemStats(&memAfter)
	res.mallocs = memAfter.Mallocs - memBefore.Mallocs
	res.gcs = memAfter.NumGC - memBefore.NumGC
	runtime.GC()
	runtime.ReadMemStats(&memAfter)
	res.heap = memAfter.HeapAlloc
	res.layers = readLayers(sim, d).minus(before)
	res.quantiles = layerQuantiles(sim)
	res.backlogMax = float64(world.Metrics.Gauge("engine.lag.backlog").Max())
	if o.critpath {
		res.critpath = make(map[string]float64)
		for _, s := range telemetry.Aggregate(world.Tracer.CriticalPaths()).Shares {
			res.critpath[string(s.Category)] = s.Seconds
		}
	}

	m := &res.modelled
	m.CostUSD = sim.CostTotal() - costBefore
	m.KVOps = int64(res.layers["kvstore.reads"] + res.layers["kvstore.writes"])
	m.GenLag = simclock.ToSeconds(genLag)
	m.PutFailures = putFailures
	for _, wt := range watchers {
		wt.mu.Lock()
		m.Replicas += wt.puts
		m.Bytes += wt.bytes
		m.Dups += wt.dups
		wt.mu.Unlock()
	}
	for _, r := range d.reps {
		m.Pending += r.Pending()
		m.DLQ += r.DLQSize()
		for _, rec := range r.Records() {
			m.Delays = append(m.Delays, simclock.ToSeconds(rec.Delay))
		}
	}
	sort.Float64s(m.Delays)

	// Audit: every source key must be at its destination with the same
	// ETag. Faults are disarmed first: the audit reads, it is not part of
	// the workload.
	world.SetChaos(chaos.Profile{})
	sp = rec.start("audit", root)
	m.Audited, m.Diverged, err = audit(sim, d)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: audit: %w", w.name, err)
	}
	runtime.KeepAlive(sim)
	return res, nil
}

// putObject writes one source object. Under injected storage faults a
// refused PUT is retried with exponential backoff, as a client would.
func putObject(sim *areplica.Sim, retry bool, e entry, key string, size int64) error {
	var err error
	attempts := 1
	if retry {
		attempts = 8
	}
	for a := 0; a < attempts; a++ {
		if a > 0 {
			sim.Sleep(250 * time.Millisecond << uint(a-1))
		}
		if _, err = sim.PutObject(e.region, e.bucket, key, size); err == nil {
			return nil
		}
	}
	return err
}

// stopScrubs makes every periodic scrub loop exit after its round.
func (d *deployment) stopScrubs() {
	for _, r := range d.reps {
		r.StopScrub()
	}
}

func dlqTotal(d *deployment) int {
	if d.fleet != nil {
		return d.fleet.DLQTotal()
	}
	n := 0
	for _, r := range d.reps {
		n += r.DLQSize()
	}
	return n
}

// redrive re-enqueues every dead-lettered event.
func redrive(d *deployment) {
	if d.fleet != nil {
		d.fleet.RedriveAll()
		return
	}
	for _, r := range d.reps {
		r.RedriveDLQ()
	}
}

// audit returns the keys audited and those diverged: a fleet audits with
// Fleet.Diverged; single rules compare source and destination listings,
// which also catches replicas of objects deleted at the source.
func audit(sim *areplica.Sim, d *deployment) (audited, diverged int, err error) {
	if d.fleet != nil {
		diverged, audited, err = d.fleet.Diverged()
		return audited, diverged, err
	}
	for _, p := range d.pairs {
		src, err := list(sim, p.src)
		if err != nil {
			return 0, 0, err
		}
		dst, err := list(sim, p.dst)
		if err != nil {
			return 0, 0, err
		}
		for k, etag := range src {
			audited++
			if got, ok := dst[k]; !ok || got != etag {
				diverged++
			}
			delete(dst, k)
		}
		diverged += len(dst)
	}
	return audited, diverged, nil
}

func list(sim *areplica.Sim, b bucketRef) (map[string]string, error) {
	rid, err := cloud.ParseRegionID(b.region)
	if err != nil {
		return nil, err
	}
	metas, err := sim.World().Region(rid).Obj.List(b.bucket)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(metas))
	for _, m := range metas {
		out[m.Key] = m.ETag
	}
	return out, nil
}

func sortOps(ops []trace.Op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
