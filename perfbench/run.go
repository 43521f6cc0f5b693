package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/trace"
)

// minSetups is the least number of set-ups a run times; setup_s is
// their median.
const minSetups = 15

// spansDir is where a traced run writes the benchmark's spans.
const spansDir = ".bench_build/spans"

// report is a run's verdict and metrics.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count folds a batch's correctness into the report.
func (r *report) count(label string, b *batchResult) {
	m := &b.modelled
	r.attempted += m.attempts()
	r.failed += int64(m.failures())
	if m.failures() > 0 {
		r.fail("%s: %d diverged of %d audited, %d DLQ, %d pending, %d duplicate final writes, %d source PUTs refused, %d scrubs never clean",
			label, m.Diverged, m.Audited, m.DLQ, m.Pending, m.Dups, m.PutFailures, m.Unclean)
	}
	if m.Replicas == 0 {
		r.fail("%s: no replica writes landed", label)
	}
}

// same checks that a rerun of a batch reproduced its modelled outcome.
func (r *report) same(label string, want, got *batchResult) {
	if !reflect.DeepEqual(want.modelled, got.modelled) {
		r.fail("%s: modelled outcome differs from the first run of the batch", label)
	}
}

// generateInputs makes every seeded batch's operations.
func generateInputs(w *workload, seed int64) [][]trace.Op {
	inputs := make([][]trace.Op, w.batches)
	for i := range inputs {
		inputs[i] = w.generate(seed, i)
	}
	return inputs
}

// run measures one workload at one seed. The timed phase runs the
// seeded batches, then repeats them until the measuring time is spent;
// every repeat must reproduce its batch exactly. A traced run then
// reruns the seeded batches under a CPU profile and the benchmark's own
// spans, attributes critical paths with the program's tracer on, and
// probes each layer's primitives.
func run(w *workload, seed int64, seconds time.Duration, traced bool) (*report, error) {
	rep := &report{correct: true, metrics: make(map[string]float64)}
	inputs := generateInputs(w, seed)

	timed, setups, err := timedPhase(w, seed, inputs, seconds, rep)
	if err != nil {
		return nil, err
	}
	e2e := endToEndMetrics(timed[:w.batches], timed, setups)
	if !traced {
		rep.metrics = e2e
		return rep, nil
	}
	if err := tracedPhase(w, seed, inputs, timed, e2e, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// timedPhase runs the seeded batches, repeats them until seconds have
// passed, and times extra set-ups up to minSetups.
func timedPhase(w *workload, seed int64, inputs [][]trace.Op, seconds time.Duration, rep *report) ([]*batchResult, []float64, error) {
	var results []*batchResult
	var setups []float64
	start := time.Now()
	for i := 0; i < w.batches || time.Since(start) < seconds; i++ {
		b := i % w.batches
		res, err := runBatch(w, seed, b, inputs[b], batchOpts{})
		if err != nil {
			return nil, nil, err
		}
		label := fmt.Sprintf("batch %d (run %d)", b, i)
		rep.count(label, res)
		if i >= w.batches {
			rep.same(label, results[b], res)
		}
		results = append(results, res)
		setups = append(setups, res.setup.Seconds())
		fmt.Fprintf(os.Stderr, "  %s: %d replicas in %.3fs (%.0f/s), setup %.4fs, heap %.1f MB\n",
			label, res.modelled.Replicas, res.window().Seconds(), res.replicasPerSec(), res.setup.Seconds(), float64(res.heap)/(1<<20))
	}
	for i := len(setups); i < minSetups; i++ {
		sim, d, took, err := setUp(w, seed, i%w.batches)
		if err != nil {
			return nil, nil, err
		}
		d.stopScrubs()
		sim.Wait() // let deploy-time actors finish
		setups = append(setups, took.Seconds())
	}
	return results, setups, nil
}

// endToEndMetrics computes the timed run's metrics. Modelled metrics,
// allocations and heap pool the seeded batches (the heap is their mean);
// the rate is a median over every batch run, and setup_s the median
// set-up.
func endToEndMetrics(seeded, all []*batchResult, setups []float64) map[string]float64 {
	var rates []float64
	for _, b := range all {
		rates = append(rates, b.replicasPerSec())
	}
	var replicas, bytes, kvOps int64
	var mallocs, heap uint64
	var cost float64
	for _, b := range seeded {
		replicas += b.modelled.Replicas
		bytes += b.modelled.Bytes
		kvOps += b.modelled.KVOps
		cost += b.modelled.CostUSD
		mallocs += b.mallocs
		heap += b.heap
	}
	delays := pooledDelays(seeded)
	return map[string]float64{
		"replicas_per_s":     median(rates),
		"setup_s":            median(setups),
		"allocs_per_replica": float64(mallocs) / float64(max(replicas, 1)),
		"live_heap_mb":       float64(heap) / float64(len(seeded)) / (1 << 20),
		"delay_p50_s":        percentile(delays, 50),
		"delay_p99_s":        percentile(delays, 99),
		"cost_usd_per_gb":    cost / (float64(bytes) / (1 << 30)),
		"kv_ops_per_replica": float64(kvOps) / float64(max(replicas, 1)),
	}
}

func pooledDelays(batches []*batchResult) []float64 {
	var out []float64
	for _, b := range batches {
		out = append(out, b.modelled.Delays...)
	}
	sort.Float64s(out)
	return out
}

// tracedPhase produces the per-layer metrics.
func tracedPhase(w *workload, seed int64, inputs [][]trace.Op, timed []*batchResult, e2e map[string]float64, rep *report) error {
	rec := newRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var traced []*batchResult
	var rates []float64
	for b := 0; b < w.batches; b++ {
		res, err := runBatch(w, seed, b, inputs[b], batchOpts{spans: rec})
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		label := fmt.Sprintf("traced batch %d", b)
		rep.count(label, res)
		rep.same(label, timed[b], res)
		traced = append(traced, res)
		rates = append(rates, res.replicasPerSec())
	}
	pprof.StopCPUProfile()
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	if err := rec.writeJSONL(filepath.Join(spansDir, w.name+".jsonl")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}

	// Critical paths need the program's tracer: one more pass over the
	// first batch with it on.
	crit, err := runBatch(w, seed, 0, inputs[0], batchOpts{critpath: true})
	if err != nil {
		return err
	}
	rep.count("critical-path batch 0", crit)
	rep.same("critical-path batch 0", timed[0], crit)

	probed, err := probes()
	if err != nil {
		return err
	}

	m := rep.metrics
	for k, v := range shares {
		m[k] = v
	}
	for k, v := range probed {
		m[k] = v
	}
	layerMetrics(m, traced)
	critpathMetrics(m, crit)

	n := float64(len(traced))
	m["bench.setup_s"] = rec.seconds("deploy") / n
	m["bench.replay_s"] = rec.seconds("replay") / n
	m["bench.drain_s"] = (rec.seconds("wait") + rec.seconds("redrive")) / n
	m["bench.scrub_s"] = rec.seconds("scrub") / n
	m["bench.audit_s"] = rec.seconds("audit") / n
	m["bench.trace_overhead_pct"] = 100 * (e2e["replicas_per_s"] - median(rates)) / e2e["replicas_per_s"]
	delays := pooledDelays(traced)
	m["bench.delay_samples"] = float64(len(delays))
	m["bench.delay_p999_s"] = 0 // reported only with at least 10 samples beyond it
	if len(delays) >= 10000 {
		m["bench.delay_p999_s"] = percentile(delays, 99.9)
	}
	m["bench.error_rate"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	return nil
}

// layerMetrics sums the traced batches' layer counters and derives the
// per-layer ratios.
func layerMetrics(m map[string]float64, batches []*batchResult) {
	sum := layerCounts{}
	var replicas int64
	var gcs uint32
	quant := make(map[string][]float64)
	for _, b := range batches {
		sum.add(b.layers)
		replicas += b.modelled.Replicas
		gcs += b.gcs
		for k, v := range b.quantiles {
			quant[k] = append(quant[k], v)
		}
		m["engine.backlog_max"] = math.Max(m["engine.backlog_max"], b.backlogMax)
		m["bench.gen_lag_max_s"] = math.Max(m["bench.gen_lag_max_s"], b.modelled.GenLag)
	}
	for _, name := range []string{
		"simclock.sleeps", "simclock.spawned", "simclock.advances",
		"fleet.admits", "fleet.defers", "fleet.batches", "fleet.quota_waits", "fleet.forced", "fleet.starved",
		"engine.tasks_ok", "engine.tasks_failed", "engine.retries", "engine.parts_hedged",
		"engine.events_deduped", "engine.dlq_redriven",
		"faas.invocations", "faas.cold_starts", "faas.crashes", "faas.startup_s", "faas.postpone_s",
		"kvstore.reads", "kvstore.writes", "kvstore.throttled",
		"objstore.puts", "objstore.gets", "objstore.failures",
		"netsim.bytes", "netsim.legs", "netsim.partition_stall_s",
		"antientropy.rounds", "antientropy.digest_bytes", "antientropy.divergent_keys", "antientropy.repairs_dispatched",
		"telemetry.spans_started", "telemetry.spans_retained",
	} {
		m[name] = sum[name]
	}
	for k, vs := range quant {
		m[k] = median(vs)
	}
	m["runtime.gc_cycles"] = float64(gcs)
	m["simclock.turns_per_replica"] = (sum["simclock.sleeps"] + sum["simclock.spawned"]) / float64(max(replicas, 1))
	m["fleet.batch_mean_size"] = ratio(sum["fleet.batch_admitted"], sum["fleet.batches"])
	m["faas.warm_ratio"] = ratio(sum["faas.invocations"]-sum["faas.cold_starts"], sum["faas.invocations"])
	m["antientropy.repair_yield"] = ratio(sum["antientropy.repairs_dispatched"], sum["antientropy.divergent_keys"])
	m["telemetry.retained_ratio"] = ratio(sum["telemetry.spans_retained"], sum["telemetry.spans_started"])
}

// critpathCategories are the program's critical-path delay categories.
var critpathCategories = []string{
	"notify", "invoke", "queued", "startup", "postpone", "setup", "transfer", "stall",
	"objstore", "kv", "changelog", "backoff", "hedge", "scrub", "idle",
}

// critpathMetrics reports each category's share of the summed critical
// paths of a batch's retained traces.
func critpathMetrics(m map[string]float64, b *batchResult) {
	var total float64
	for _, s := range b.critpath {
		total += s
	}
	for _, c := range critpathCategories {
		m["engine.critpath."+c] = ratio(b.critpath[c], total)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
