package main

import (
	areplica "repro"
	"repro/internal/cloud"
)

// layerCounts holds monotone per-layer counters and virtual-time sums,
// keyed by per-layer metric name.
type layerCounts map[string]float64

// minus returns c - base, key by key.
func (c layerCounts) minus(base layerCounts) layerCounts {
	out := make(layerCounts, len(c))
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// add accumulates o into c.
func (c layerCounts) add(o layerCounts) {
	for k, v := range o {
		c[k] += v
	}
}

// readLayers snapshots every monotone layer counter the program exposes
// through its public accessors: the clock's stats, the world's metric
// registry, the tracer's self-counters, the function platforms' stats
// and the fleet's scheduler, quota and batch accounts.
func readLayers(sim *areplica.Sim, d *deployment) layerCounts {
	w := sim.World()
	m := w.Metrics
	cs := w.Clock.Stats()
	ts := w.Tracer.Stats()
	c := layerCounts{
		"simclock.sleeps":   float64(cs.Sleeps),
		"simclock.spawned":  float64(cs.Spawned),
		"simclock.advances": float64(cs.Advances),

		"engine.tasks_ok":       float64(m.Counter("engine.tasks.ok").Value()),
		"engine.tasks_failed":   float64(m.Counter("engine.tasks.dlq").Value()),
		"engine.retries":        float64(m.Counter("engine.retries").Value()),
		"engine.parts_hedged":   float64(m.Counter("engine.parts.hedged").Value()),
		"engine.events_deduped": float64(m.Counter("engine.events.deduped").Value()),
		"engine.dlq_redriven":   float64(m.Counter("engine.dlq.redriven").Value()),

		"faas.crashes":    float64(m.Counter("faas.crashes").Value()),
		"faas.startup_s":  m.Histogram("faas.startup.seconds").Sum(),
		"faas.postpone_s": m.Histogram("faas.postpone.seconds").Sum(),

		"kvstore.reads":     float64(m.Counter("kvstore.reads").Value()),
		"kvstore.writes":    float64(m.Counter("kvstore.writes").Value()),
		"kvstore.throttled": float64(m.Counter("kvstore.throttled").Value()),

		"objstore.puts":     float64(m.Histogram("objstore.put.seconds").Count()),
		"objstore.gets":     float64(m.Histogram("objstore.get.seconds").Count()),
		"objstore.failures": float64(m.Counter("objstore.failures").Value()),

		"netsim.bytes":             float64(m.Counter("net.leg.bytes").Value()),
		"netsim.legs":              float64(m.Histogram("net.leg.seconds").Count()),
		"netsim.partition_stall_s": m.Histogram("net.partition.stall.seconds").Sum(),

		"antientropy.rounds":             float64(m.Counter("antientropy.rounds").Value()),
		"antientropy.digest_bytes":       float64(m.Counter("antientropy.digest.bytes").Value()),
		"antientropy.divergent_keys":     float64(m.Counter("antientropy.divergent_keys").Value()),
		"antientropy.repairs_dispatched": float64(m.Counter("antientropy.repair.dispatched").Value()),

		"telemetry.spans_started":  float64(ts.SpansStarted),
		"telemetry.spans_retained": float64(ts.SpansRetained),
	}
	for _, r := range cloud.AllRegions() {
		st := w.Region(r.ID()).Fn.Stats()
		c["faas.invocations"] += float64(st.Invocations)
		c["faas.cold_starts"] += float64(st.ColdStarts)
	}
	if fl := d.fleet; fl != nil {
		for _, st := range fl.SchedStats() {
			c["fleet.admits"] += float64(st.Admits)
			c["fleet.defers"] += float64(st.Defers)
			c["fleet.starved"] += float64(st.Starved)
			c["fleet.quota_waits"] += float64(st.QuotaWaits)
		}
		for _, st := range fl.QuotaStats() {
			c["fleet.forced"] += float64(st.Forced)
		}
		bs := fl.BatchStats()
		c["fleet.batches"] = float64(bs.Batches)
		c["fleet.batch_admitted"] = float64(bs.Admitted)
	}
	return c
}

// layerQuantiles reads the per-layer virtual-time percentiles from the
// world's histograms (over the Sim's whole life, deploy included).
func layerQuantiles(sim *areplica.Sim) map[string]float64 {
	m := sim.World().Metrics
	return map[string]float64{
		"objstore.notify_p99_s":            m.Histogram("objstore.notify.seconds").Quantile(0.99),
		"netsim.leg_p99_s":                 m.Histogram("net.leg.seconds").Quantile(0.99),
		"antientropy.divergence_age_p99_s": m.Histogram("antientropy.divergence.age.seconds").Quantile(0.99),
	}
}
