// Command perfbench is the repository's benchmark. It runs one named
// workload against the replication simulator from a seed, checks that
// the replication outcome is correct, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	perfbench --workload fleet-day --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of a timed run; --trace 1
// adds a traced pass, writes its spans to .bench_build/spans/, and
// prints the per-layer metrics instead. The exit status is 0 only when
// every replication check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "wall seconds to keep repeating the seeded batches for")
		traced  = flag.Int("trace", 0, "1: add a traced pass and print per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	start := time.Now()
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fatal(err)
	}

	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	out := resultOut{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", d.name))
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	summarize(w.name, *seed, out, time.Since(start))
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}

// summarize prints the metrics as a table on standard error.
func summarize(workload string, seed int64, out resultOut, took time.Duration) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d (%.1fs)\n",
		workload, seed, out.Correct, out.Attempted, out.Failed, took.Seconds())
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
