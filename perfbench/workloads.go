package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	areplica "repro"
	"repro/internal/chaos"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// entry is one place the generator writes: a source bucket (and, for
// mesh members, a key prefix).
type entry struct{ region, bucket, prefix string }

// workload is one named benchmark input: how to generate a batch's
// operations from a seed, and how to build and configure the system
// they run against.
type workload struct {
	name string
	// batches is the number of seeded batches a run pools its modelled
	// metrics over. Batch i replays inputs generated from (seed, i).
	batches int
	// generate makes one batch's operations, in virtual-time order.
	generate func(seed int64, batch int) []trace.Op
	// deploy builds the system under test on a fresh Sim.
	deploy func(sim *areplica.Sim, seed int64, batch int) (*deployment, error)
	// traceSample keeps 1 in traceSample clean traces (anomalies always)
	// when a traced run turns the program's tracer on to attribute
	// critical paths; it bounds the traced run's memory.
	traceSample int
}

// deployment is a workload deployed on one Sim.
type deployment struct {
	entries []entry
	// route maps an operation's key to its entry index.
	route func(key string) int
	fleet *areplica.Fleet
	reps  []*areplica.Replication
	// pairs are the (source, destination) bucket pairs of single-rule
	// workloads, audited by a listing compare. Fleets audit with
	// Fleet.Diverged instead.
	pairs []bucketPair
	// dsts are the destination buckets whose writes are watched.
	dsts []bucketRef
	// retryPuts retries source PUTs refused by injected storage faults.
	retryPuts bool
	// scrub runs anti-entropy to a clean round after the drain.
	scrub bool
	// pollMonitors polls each rule's SLO monitor after every source PUT.
	pollMonitors bool
}

type bucketRef struct{ region, bucket string }

type bucketPair struct{ src, dst bucketRef }

var workloads = map[string]*workload{
	"fleet-day":   fleetDay,
	"bulk-large":  bulkLarge,
	"scrub-trace": scrubTrace,
	"chaos-scrub": chaosScrub,
}

// gatedWorkloads are the workloads BENCHMARK.json lists, in its order:
// each passes its correctness gate. chaos-scrub is runnable by name but
// not listed: at the time it was written it failed its gate on every
// seed tried (README.md).
var gatedWorkloads = []string{"fleet-day", "bulk-large", "scrub-trace"}

// workloadNames lists every runnable workload.
func workloadNames() []string {
	return append(slices.Clone(gatedWorkloads), "chaos-scrub")
}

// subSeed derives a string seed for batch inputs.
func subSeed(workload string, seed int64, batch int) string {
	return fmt.Sprintf("%s/%d/%d", workload, seed, batch)
}

// rngFor returns a deterministic random source for batch inputs.
func rngFor(workload string, seed int64, batch int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(subSeed(workload, seed, batch)))
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// firstOps generates a trace and keeps its first n operations, so every
// batch has the same input size whatever the trace's bursts and drift.
// The trace spans three times what n operations take at the base rate:
// even at the rate walk's 0.4x floor it holds 1.2n operations.
func firstOps(cfg trace.Config, n int) []trace.Op {
	cfg.Duration = time.Duration(3*float64(n)/cfg.BaseRatePerMin) * time.Minute
	ops := trace.Generate(cfg)
	return ops[:min(n, len(ops))]
}

// keyShard maps a key to one of n entries; a key always writes through
// the same entry.
func keyShard(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// ---- fleet-day ----

const (
	fleetDayRules  = 1000
	fleetDayOps    = 16000 // trace operations per batch
	fleetDayRate   = 100   // mean trace operations per virtual minute
	fleetDayMaxObj = 4 << 20
)

var fleetDayRegions = []string{"aws:us-east-1", "azure:eastus", "gcp:us-east1"}

// fleetDay replays the bursty IBM-COS-like trace across the
// thousand-rule topology under shared quotas.
var fleetDay = &workload{
	name:        "fleet-day",
	batches:     4,
	traceSample: 16,
	generate: func(seed int64, batch int) []trace.Op {
		cfg := trace.DefaultConfig(0, fleetDayRate)
		cfg.Seed = subSeed("fleet-day", seed, batch)
		cfg.Keys = fleetDayOps / 8
		ops := firstOps(cfg, fleetDayOps)
		for i := range ops {
			ops[i].Size = quantizeSize(ops[i].Size, fleetDayMaxObj)
		}
		return ops
	},
	deploy: func(sim *areplica.Sim, _ int64, _ int) (*deployment, error) {
		rules, entries, err := fleetDayTopology(fleetDayRules)
		if err != nil {
			return nil, err
		}
		fl, err := sim.DeployFleet(rules, areplica.FleetOptions{
			FaaSConcurrency: 256,
			KVOpsPerSec:     20000,
			LaneSlots:       64,
			ProfileRounds:   6,
		})
		if err != nil {
			return nil, err
		}
		d := &deployment{
			entries: entries,
			route:   func(key string) int { return keyShard(key, len(entries)) },
			fleet:   fl,
			reps:    fl.Replications(),
		}
		seen := make(map[bucketRef]bool)
		for _, r := range rules {
			b := bucketRef{r.DstRegion, r.DstBucket}
			if !seen[b] {
				seen[b] = true
				d.dsts = append(d.dsts, b)
			}
		}
		return d, nil
	},
}

// fleetDayTopology builds the thousand-rule mix: 16-way fan-out groups on
// three quarters of the budget (the first group weight 2), two 3-hop
// chains, one 3-region mesh at priority 1, and direct rules over the
// ordered region pairs filling the rest.
func fleetDayTopology(n int) ([]areplica.FleetRule, []entry, error) {
	regions := fleetDayRegions
	var rules []areplica.FleetRule
	var entries []entry

	const fanWidth = 16
	for g := 0; g < max(1, n*3/4/fanWidth); g++ {
		src := regions[g%3]
		bucket := fmt.Sprintf("day-fan-%03d", g)
		var dsts []areplica.FleetDst
		for i := 0; i < fanWidth; i++ {
			dsts = append(dsts, areplica.FleetDst{
				Region: regions[(g+1+i%2)%3],
				Bucket: fmt.Sprintf("%s-dst-%02d", bucket, i),
			})
		}
		fan, err := areplica.FanOut(src, bucket, dsts...)
		if err != nil {
			return nil, nil, err
		}
		if g == 0 {
			for i := range fan {
				fan[i].Weight = 2
			}
		}
		rules = append(rules, fan...)
		entries = append(entries, entry{region: src, bucket: bucket})
	}

	for ci, order := range [][]string{
		{regions[0], regions[1], regions[2]},
		{regions[1], regions[2], regions[0]},
	} {
		bucket := fmt.Sprintf("day-chain-%c", 'a'+ci)
		hops := make([]areplica.FleetHop, len(order))
		for i, r := range order {
			hops[i] = areplica.FleetHop{Region: r, Bucket: bucket}
		}
		chain, err := areplica.Chain(hops...)
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, chain...)
		entries = append(entries, entry{region: order[0], bucket: bucket})
	}

	mesh, err := areplica.FullMesh("day-mesh", regions...)
	if err != nil {
		return nil, nil, err
	}
	for i := range mesh {
		mesh[i].Priority = 1
	}
	rules = append(rules, mesh...)
	for i, r := range regions {
		entries = append(entries, entry{region: r, bucket: "day-mesh", prefix: fmt.Sprintf("site%d/", i)})
	}

	var pairs [][2]string
	for _, s := range regions {
		for _, d := range regions {
			if s != d {
				pairs = append(pairs, [2]string{s, d})
			}
		}
	}
	for i := 0; len(rules) < n; i++ {
		p := pairs[i%len(pairs)]
		bucket := fmt.Sprintf("day-dir-%03d", i)
		rules = append(rules, areplica.FleetRule{
			SrcRegion: p[0], SrcBucket: bucket,
			DstRegion: p[1], DstBucket: bucket + "-replica",
		})
		entries = append(entries, entry{region: p[0], bucket: bucket})
	}
	return rules, entries, nil
}

// quantizeSize rounds a size up to the next power of two, floor 64 KB,
// clamped to max: a handful of distinct sizes, so the planner's memo hits.
func quantizeSize(size, max int64) int64 {
	q := int64(64 << 10)
	for q < size && q < max {
		q <<= 1
	}
	return min(q, max)
}

// ---- bulk-large ----

const (
	bulkObjects      = 120              // per rule per batch
	bulkInterarrival = 30 * time.Second // mean, per rule
	bulkMinSize      = 64 << 20
	bulkMaxSize      = 1 << 30
)

// bulkRules are three cross-cloud pairs, one per source provider.
var bulkRules = [][2]string{
	{"aws:us-east-1", "gcp:asia-northeast1"},
	{"azure:eastus", "gcp:europe-west6"},
	{"gcp:us-east1", "aws:eu-west-1"},
}

// bulkLarge sends 64 MB–1 GB objects as independent Poisson arrivals to
// three single rules. Each rule's batch holds the same sizes — the
// log-uniform distribution's quantiles, in seeded order — so seeds vary
// arrival times and order, not how many gigabytes a batch moves.
var bulkLarge = &workload{
	name:        "bulk-large",
	batches:     8,
	traceSample: 1,
	generate: func(seed int64, batch int) []trace.Op {
		rng := rngFor("bulk-large", seed, batch)
		lo, hi := math.Log(bulkMinSize>>20), math.Log(bulkMaxSize>>20)
		var ops []trace.Op
		for r := range bulkRules {
			order := rng.Perm(bulkObjects)
			at := time.Duration(0)
			for n, q := range order {
				at += time.Duration(rng.ExpFloat64() * float64(bulkInterarrival))
				mb := math.Exp(lo + (float64(q)+0.5)/bulkObjects*(hi-lo))
				ops = append(ops, trace.Op{
					At:   at,
					Type: trace.OpPut,
					Key:  fmt.Sprintf("r%d/obj-%05d", r, n),
					Size: int64(math.Round(mb)) << 20,
				})
			}
		}
		sortOps(ops)
		return ops
	},
	deploy: func(sim *areplica.Sim, _ int64, _ int) (*deployment, error) {
		d := &deployment{route: func(key string) int {
			i, _ := strconv.Atoi(strings.TrimPrefix(key[:strings.IndexByte(key, '/')], "r"))
			return i
		}}
		for i, p := range bulkRules {
			src := bucketRef{p[0], fmt.Sprintf("bulk-%d", i)}
			dst := bucketRef{p[1], fmt.Sprintf("bulk-%d-replica", i)}
			rep, err := deployPair(sim, src, dst, areplica.Rule{})
			if err != nil {
				return nil, err
			}
			d.entries = append(d.entries, entry{region: src.region, bucket: src.bucket})
			d.reps = append(d.reps, rep)
			d.pairs = append(d.pairs, bucketPair{src, dst})
			d.dsts = append(d.dsts, dst)
		}
		return d, nil
	},
}

// ---- scrub-trace and chaos-scrub ----

const (
	scrubOps     = 1800 // trace operations per batch
	scrubRate    = 120  // mean trace operations per virtual minute
	scrubCadence = 30 * time.Second
)

// scrubTrace replays the raw trace, deletes included, into one rule with
// anti-entropy scrubbing and tail-based trace retention on.
var scrubTrace = replayScrub("scrub-trace", "")

// chaosScrub is scrubTrace under the mixed fault profile (object-store
// failures, function crashes, a partition), reseeded per batch.
var chaosScrub = replayScrub("chaos-scrub", "mixed")

func replayScrub(name, faults string) *workload {
	return &workload{
		name:        name,
		batches:     16,
		traceSample: 16,
		generate: func(seed int64, batch int) []trace.Op {
			cfg := trace.DefaultConfig(0, scrubRate)
			cfg.Seed = subSeed(name, seed, batch)
			return firstOps(cfg, scrubOps)
		},
		deploy: func(sim *areplica.Sim, seed int64, batch int) (*deployment, error) {
			src := bucketRef{"aws:us-east-1", "data"}
			dst := bucketRef{"azure:eastus", "data-replica"}
			rep, err := deployPair(sim, src, dst, areplica.Rule{
				Scrub: true, ScrubCadence: scrubCadence, Monitor: true,
			})
			if err != nil {
				return nil, err
			}
			w := sim.World()
			w.Tracer.SetPolicy(telemetry.NewSampledPolicy(uint64(seed), 16))
			w.Tracer.Enable()
			if faults != "" {
				prof, err := chaos.Parse(faults + "@" + subSeed(name, seed, batch))
				if err != nil {
					return nil, err
				}
				w.SetChaos(prof)
			}
			if err := rep.StartScrub(); err != nil {
				return nil, err
			}
			return &deployment{
				entries:      []entry{{region: src.region, bucket: src.bucket}},
				route:        func(string) int { return 0 },
				reps:         []*areplica.Replication{rep},
				pairs:        []bucketPair{{src, dst}},
				dsts:         []bucketRef{dst},
				retryPuts:    faults != "",
				scrub:        true,
				pollMonitors: true,
			}, nil
		},
	}
}

// deployPair creates both buckets and deploys one rule between them.
func deployPair(sim *areplica.Sim, src, dst bucketRef, r areplica.Rule) (*areplica.Replication, error) {
	if err := sim.CreateBucket(src.region, src.bucket); err != nil {
		return nil, err
	}
	if err := sim.CreateBucket(dst.region, dst.bucket); err != nil {
		return nil, err
	}
	r.SrcRegion, r.SrcBucket = src.region, src.bucket
	r.DstRegion, r.DstBucket = dst.region, dst.bucket
	return sim.Deploy(r)
}
