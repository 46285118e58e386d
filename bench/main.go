// Command bench is the repository's socket-to-kernel serving benchmark. It
// builds the C-RAN data-center stack in-process from the public constructors
// (fronthaul.Server -> router -> sched + qos -> backend -> core ->
// reduction/embedding/anneal), serves it on loopback TCP, and drives it with
// fronthaul.Client connections from the same process, un-paced.
//
//	go run . -workload headline_bpsk48 -seed 1            # end-to-end run
//	go run . -workload headline_bpsk48 -seed 1 -trace 1   # per-layer run
//	go run . -workload cells_mixed_qos -curve             # latency vs offered load
//	go run . -aa 3                                        # repeatability table
//
// Every run generates its inputs from -seed (trace.GenerateMultiUser plus
// bits, modulation and AWGN added here), sets the server up, saturates it in
// a closed loop, paces it in an open loop whose requests are timed from the
// instant they were due, checks every answer, prints every metric by name
// with its unit, and ends with one JSON line. It exits non-zero when any
// check fails. README.md defines the workloads, the metrics and how the
// per-layer numbers are expected to move the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// endToEnd and perLayer are the metric names of BENCHMARK.json: an untraced
// run reports exactly the first list on its JSON line, a traced run exactly
// the second. Later issues cite these names verbatim.
var endToEnd = []string{
	"setup_s", "sat_decodes_per_s", "allocs_per_decode",
}

var perLayer = []string{
	"loadgen.cpu_ms_per_decode", "loadgen.lag_p99_ms", "loadgen.lat_p50_ms", "loadgen.lat_p90_ms", "loadgen.lat_p99_ms",
	"loadgen.paced_valid", "loadgen.deadline_met_share", "loadgen.sent", "loadgen.ok", "loadgen.failed", "loadgen.shed",
	"loadgen.failed_share", "loadgen.ber", "loadgen.gen_s", "loadgen.peak_rss_mb",
	"fronthaul.self_us", "fronthaul.roundtrip_keyed_us", "fronthaul.roundtrip_full8_us",
	"fronthaul.roundtrip_full48_us", "fronthaul.roundtrip_soft_us", "fronthaul.roundtrip_precode_us",
	"fronthaul.register_us", "fronthaul.allocs_per_roundtrip", "fronthaul.bytes_per_decode",
	"fronthaul.stale_handle_retries",
	"router.self_us", "router.sheds", "router.shard_imbalance",
	"sched.self_us", "sched.noop_dispatch_us", "sched.batch_size_mean", "sched.slot_occupancy",
	"sched.fallback_share", "sched.planner_classical_share", "sched.deadline_miss_share",
	"qos.plan_us", "qos.estimate_snr_us", "qos.reads_planned_mean",
	"backend.solve_us", "backend.busy_share", "backend.fallback_solve_us",
	"core.cache_hit_share", "core.cache_evictions", "core.compile_miss_us", "core.decode_compiled_us",
	"core.decode_recompile_us", "core.shared_run_us_per_item", "core.soft_overhead_share",
	"reduction.compile_us", "reduction.biases_us",
	"embedding.embed_template_us", "embedding.embed_ising_us", "embedding.unembed_us_per_read",
	"anneal.prepare_us", "anneal.run_us_per_read", "anneal.ns_per_spin_update", "anneal.allocs_per_run",
	"detector.sa_decode_us",
	"softout.llr_us", "precoding.compile_us", "precoding.problem_us", "precoding.gamma_ratio",
	"ladder.coverage", "ladder.sum_vs_e2e", "trace.overhead_share",
}

// jsonMetric and jsonResult are the run's last line of standard output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result selects the named metrics for the JSON line. A name the run did not
// produce, or a value that is not finite, is a violation.
func (r *report) result(names []string) jsonResult {
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, name := range names {
		found := false
		for _, m := range r.metrics {
			if m.name != name {
				continue
			}
			found = true
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				r.violate("metric %s is not finite", name)
				break
			}
			out.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		if !found {
			r.violate("metric %s was not measured", name)
		}
	}
	out.Correct = len(r.violations) == 0 && r.failed == 0 && r.attempted > 0
	return out
}

// print writes the human-readable report: what was measured, then every
// metric by name with its unit and, for segment medians, its min–max.
func (r *report) print() {
	for _, line := range r.headline {
		fmt.Println("#", line)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-34s %14.6g %-6s", m.name, m.value, m.unit)
		if m.spread {
			line += fmt.Sprintf(" segments %.6g..%.6g", m.lo, m.hi)
		}
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("requests attempted %d, failed %d; correctness violations %d\n", r.attempted, r.failed, len(r.violations))
	for _, v := range r.violations {
		fmt.Println("VIOLATION:", v)
	}
}

func defaultOutDir() string {
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		return "bench/out"
	}
	return "out"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md); required except with -aa")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 24, "measuring time, split 70/30 between the sat and paced phases")
		traced  = flag.Int("trace", 0, "1 = per-layer run with span wrappers and the ladder; 0 = end-to-end run")
		outDir  = flag.String("out", defaultOutDir(), "directory for span files")
		aa      = flag.Int("aa", 0, "run N full sets of every workload back to back and print the repeatability table")
		curve   = flag.Bool("curve", false, "print the latency-vs-offered-load curve of -workload instead of the benchmark run")
	)
	flag.Parse()
	err := func() error {
		if *aa > 0 {
			return runAA(*aa, *seed, *seconds)
		}
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		if *seconds <= 0 {
			return fmt.Errorf("-seconds must be positive")
		}
		o := &options{w: w, seed: *seed, seconds: *seconds, warmups: defaultWarmups, outDir: *outDir}
		if *curve {
			return runCurve(o)
		}
		return run(o, *traced != 0)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run does one benchmark run and prints its report and JSON line.
func run(o *options, traced bool) error {
	names, measure := endToEnd, runUntraced
	if traced {
		names, measure = perLayer, runTraced
	}
	r, err := measure(o)
	if err != nil {
		return err
	}
	res := r.result(names)
	r.print()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run incorrect: %d violations, %d of %d requests failed", len(r.violations), r.failed, r.attempted)
	}
	return nil
}
