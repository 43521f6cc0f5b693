package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"testing"
)

// devSeed is a seed used while writing the benchmark; heldOutSeed is
// kept for checking later claims (see README.md).
const (
	devSeed     = 1
	heldOutSeed = 7919
)

// TestSameSeedSameRun checks that a seed fixes a workload's inputs and
// its modelled outcome.
func TestSameSeedSameRun(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			a, b := w.generate(devSeed, 0), w.generate(devSeed, 0)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed generated different inputs")
			}
			r1, err := runBatch(w, devSeed, 0, a, batchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := runBatch(w, devSeed, 0, b, batchOpts{spans: newRecorder()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1.modelled, r2.modelled) {
				t.Fatalf("same seed, different modelled outcome:\n%+v\n%+v", summary(r1), summary(r2))
			}
			if n := r1.modelled.failures(); n != 0 {
				if !slices.Contains(gatedWorkloads, name) {
					t.Skipf("not gated: %d failed replica operations: %+v", n, summary(r1))
				}
				t.Fatalf("%d failed replica operations: %+v", n, summary(r1))
			}
		})
	}
}

// TestHeldOutSeed checks that another seed gives other inputs and the
// same verdict: every replica operation succeeds.
func TestHeldOutSeed(t *testing.T) {
	for _, name := range gatedWorkloads {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			dev, held := w.generate(devSeed, 0), w.generate(heldOutSeed, 0)
			if reflect.DeepEqual(dev, held) {
				t.Fatal("held-out seed generated the development seed's inputs")
			}
			r, err := runBatch(w, heldOutSeed, 0, held, batchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if n := r.modelled.failures(); n != 0 || r.modelled.Replicas == 0 {
				t.Fatalf("held-out seed: %d failed replica operations: %+v", n, summary(r))
			}
		})
	}
}

// summary is a batch's modelled outcome without the delay samples.
func summary(r *batchResult) modelled {
	m := r.modelled
	m.Delays = nil
	return m
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, gatedWorkloads) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, gatedWorkloads)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, benchmark prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %v, benchmark %v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %v, benchmark %v", i, m, d)
		}
	}
}

// TestCPUSharesSumToOne profiles a busy loop and checks that the
// attribution parses the profile and accounts for every sample.
func TestCPUSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for i := 0; i < 200_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	pprof.StopCPUProfile()
	sink = x
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if shares["bench.cpu_share"] < 0.5 {
		t.Fatalf("busy loop in this package got bench.cpu_share %v", shares["bench.cpu_share"])
	}
}

var sink float64
