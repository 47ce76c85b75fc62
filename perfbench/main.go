// Command perfbench is the repository benchmark: it runs one workload
// in-process, checks every output against its oracle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": ..., "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it first.
// README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

const (
	// setups is how often a run sets its workload up; setup_s is the
	// median.
	setups = 9
	// minRounds is the fewest timed rounds a run makes, whatever
	// --seconds says, so every median has at least three samples.
	minRounds = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"workload.build_s", "s"},
	{"workload.builds_per_instance", "count"},
	{"hypergraph.partition_s", "s"},
	{"hypergraph.repeat_share", "share"},
	{"sched.pack_s", "s"},
	{"sched.init_other_s", "s"},
	{"sched.pop_s", "s"},
	{"sched.pop_calls", "count"},
	{"sched.pop_empty_share", "share"},
	{"sched.notify_s", "s"},
	{"memory.victim_s", "s"},
	{"memory.victim_calls", "count"},
	{"memory.notify_s", "s"},
	{"sim.events", "count"},
	{"sim.self_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"fleet.submit_p50_ms", "ms"},
	{"fleet.dispatch_p50_ms", "ms"},
	{"fleet.dispatch_p99_ms", "ms"},
	{"fleet.dispatches_per_job", "count"},
	{"serve.handler_p50_ms", "ms"},
	{"fleet.hit_latency_p50_ms", "ms"},
	{"fleet.miss_latency_p50_ms", "ms"},
	{"fleet.miss_latency_p99_ms", "ms"},
	{"fleet.cache_hit_share", "share"},
	{"fleet.repeat_share", "share"},
	{"fleet.hedges_per_job", "count"},
	{"fleet.redispatches_per_job", "count"},
	{"journal.records_per_job", "count"},
	{"journal.bytes_per_job", "B"},
	{"journal.submit_p50_ms", "ms"},
	{"journal.latency_p50_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_share", "share"},
}

// workloads names the benchmark's workloads in the order README.md
// describes them.
var workloads = []string{"sweep-static", "sweep-dynamic", "fleet-nojournal"}

func main() {
	workload := flag.String("workload", "", "workload: sweep-static, sweep-dynamic or fleet-nojournal")
	seed := flag.Int64("seed", 1, "seed of the fleet traffic mix (sweep cells keep the paper-figure seeds)")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	res, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fail(err)
	}
	if res.Attempted < 1 {
		fail(fmt.Errorf("no operation attempted"))
	}
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if m.Value != m.Value {
			fail(fmt.Errorf("metric %s is NaN", n))
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func run(workload string, seed int64, seconds float64, trace bool) (*result, error) {
	logf("%s: seed %d, %.0f s, trace %v, GOMAXPROCS %d", workload, seed, seconds, trace, runtime.GOMAXPROCS(0))
	switch workload {
	case "sweep-static", "sweep-dynamic":
		sr, err := runSweep(workload, ".", seconds, trace)
		if err != nil {
			return nil, err
		}
		return sweepReport(sr, trace)
	case "fleet-nojournal":
		fr, err := runFleet(".bench_build", seed, seconds, trace)
		if err != nil {
			return nil, err
		}
		return fleetReport(fr, trace)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

// endToEnd assembles the end-to-end metrics shared by every workload:
// one round's median wall and CPU time, jobs per second at that wall
// time, the median set-up, peak RSS, and exact job-latency percentiles.
func endToEnd(walls, cpus, setup, latencies []float64, jobsPerRound int, peakRSS float64) (map[string]metric, error) {
	wall := median(walls)
	p90, err := tailQuantile("latency_p90_ms", latencies, 0.9)
	if err != nil {
		return nil, err
	}
	logf("%d rounds of %d jobs; %d latency samples; round wall s %.3f; round cpu s %.3f",
		len(walls), jobsPerRound, len(latencies), walls, cpus)
	return map[string]metric{
		"wall_s":         {wall, "s"},
		"cpu_s":          {median(cpus), "s"},
		"jobs_per_s":     {float64(jobsPerRound) / wall, "1/s"},
		"latency_p50_ms": {median(latencies), "ms"},
		"latency_p90_ms": {p90, "ms"},
		"setup_s":        {median(setup), "s"},
		"peak_rss_mb":    {peakRSS, "MB"},
	}, nil
}

// withAllLayers fills every per-layer metric the workload did not
// measure with 0.
func withAllLayers(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{0, l.unit}
	}
	for n, v := range m {
		out[n] = v
	}
	return out
}

func sweepReport(sr *sweepResult, trace bool) (*result, error) {
	res := &result{Attempted: sr.attempted, Failed: sr.failed}
	if trace {
		res.Metrics = withAllLayers(sr.layers)
	} else {
		m, err := endToEnd(sr.walls, sr.cpus, sr.setup, sr.latencies, sr.cellsPerRound, sr.peakRSS)
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func fleetReport(fr *fleetResult, trace bool) (*result, error) {
	failed, err := verifyFleet(fr.outcomes)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(fr.outcomes), Failed: failed}
	if fr.snapshotErr != nil {
		logf("router counters: %v", fr.snapshotErr)
	}
	if trace {
		res.Metrics = withAllLayers(fr.layers)
	} else {
		lat := make([]float64, len(fr.timed))
		for i, o := range fr.timed {
			lat[i] = o.latency
		}
		m, err := endToEnd(fr.walls, fr.cpus, fr.setup, lat, fleetClients*roundPerClient, fr.peakRSS)
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	}
	res.Correct = res.Failed == 0 && fr.snapshotErr == nil
	return res, nil
}
