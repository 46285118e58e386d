// Command benchjson runs the repository's root-package benchmarks and writes
// a machine-readable JSON summary. The default selection covers the
// coherence-window and precode-window benchmarks and the decode-path
// micro-benchmarks they amortize; -bench overrides it with any `go test
// -bench` regular expression.
//
// Run it from the repository root:
//
//	go run ./tools/benchjson -out BENCH.json
//
// Every benchmark line is parsed into its name, iteration count and metric
// map (ns/op, B/op, custom metrics like symbols/s), preserving exactly what
// the testing package reported.
//
// benchjson records; it does not judge. README.md ("Testing and CI gates")
// says what gates performance: the socket-crossing harness under bench/.
//
// With -traces, benchjson ingests a telemetry trace dump (the JSON written
// by quamax-serve/examples/tracedriven -trace-out) instead of running
// benchmarks, and emits one row per stage, wire and deadline-slack histogram
// of the dump's sample set with p50/p95/p99/mean/max latency columns, plus one
// TraceExemplar row per pinned worst-slack trace:
//
//	go run ./tools/benchjson -traces dump.json -out TRACES.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"quamax/internal/telemetry"
)

// defaultBench selects the benchmarks recorded by default: the two
// compile/execute benchmarks (uplink coherence windows, downlink precode
// windows), the serving benchmarks, and the micro-benchmarks of the stages
// they amortize.
const defaultBench = "BenchmarkCoherenceWindow|BenchmarkPrecodeWindow|BenchmarkSoftDecode|BenchmarkSchedulerPlanner|BenchmarkShardedServe|BenchmarkCostAwareDispatch|BenchmarkHealthGatedServe|BenchmarkReduceToIsing$|BenchmarkEmbedIsing$|BenchmarkAnneal48BPSK$|BenchmarkDecodeEndToEnd$"

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the file benchjson writes.
type Report struct {
	GoVersion string   `json:"go_version"`
	GoOS      string   `json:"goos"`
	GoArch    string   `json:"goarch"`
	Bench     string   `json:"bench_regex"`
	BenchTime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// benchLine matches one `go test -bench` result row; the trailing -N
// GOMAXPROCS suffix is stripped from the name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

func main() {
	var (
		bench     = flag.String("bench", defaultBench, "benchmark selection regexp (go test -bench)")
		benchtime = flag.String("benchtime", "5x", "per-benchmark budget (go test -benchtime)")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "BENCH.json", "output JSON path")
		traces    = flag.String("traces", "", "telemetry trace dump (-trace-out JSON) to ingest instead of running benchmarks")
	)
	flag.Parse()

	if *traces != "" {
		if err := ingestTraces(*traces, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *bench, "-benchtime", *benchtime, *pkg)
	raw, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Stderr.Write(ee.Stderr)
		}
		fmt.Fprintf(os.Stderr, "benchjson: go test: %v\n%s", err, raw)
		os.Exit(1)
	}

	report := Report{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Bench:     *bench,
		BenchTime: *benchtime,
	}
	for _, line := range strings.Split(string(raw), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: m[1], Iterations: iters, Metrics: parseMetrics(m[3])}
		if len(res.Metrics) == 0 {
			continue
		}
		report.Results = append(report.Results, res)
	}
	if len(report.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines matched %q\n", *bench)
		os.Exit(1)
	}

	if err := report.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(report.Results), *out)
}

// write stores the report as indented JSON at path.
func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseMetrics reads the value/unit pairs of one result row, e.g.
// "123 ns/op\t 45.6 symbols/s".
func parseMetrics(rest string) map[string]float64 {
	fields := strings.Fields(rest)
	metrics := make(map[string]float64)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		metrics[fields[i+1]] = v
	}
	return metrics
}

// traceRows names the histogram families -traces turns into rows, by the row
// name's prefix; the sample's label values follow it ("TraceStage/solve",
// "TraceSlack/met").
var traceRows = map[string]string{
	"quamax_stage_latency_micros":  "TraceStage",
	"quamax_fronthaul_wire_micros": "TraceWire",
	"quamax_deadline_slack_micros": "TraceSlack",
}

// ingestTraces converts a telemetry trace dump into report rows: one row per
// occupied stage, wire and deadline-slack histogram of its sample set,
// carrying p50/p95/p99/mean/max columns in microseconds, and one row per
// pinned exemplar. When the set carries pool counters, the telemetry plane's
// reconciliation invariant is enforced before anything is written:
// submitted == completed+failed == traces, each summed over shards.
func ingestTraces(path, out string) error {
	d, err := telemetry.ReadDump(path)
	if err != nil {
		return err
	}
	sum := func(family string) (total float64, found bool) {
		for _, s := range d.Samples {
			if s.Name == family {
				total, found = total+s.Value, true
			}
		}
		return total, found
	}
	traces, ok := sum("quamax_traces_finished_total")
	if !ok {
		return fmt.Errorf("%s: dump has no trace counters", path)
	}
	if submitted, ok := sum("quamax_pool_submitted_total"); ok {
		completed, _ := sum("quamax_pool_completed_total")
		failed, _ := sum("quamax_pool_failed_total")
		if submitted != completed+failed || submitted != traces {
			return fmt.Errorf("%s: traces do not reconcile with pool counters: submitted=%g completed+failed=%g traces=%g",
				path, submitted, completed+failed, traces)
		}
	}

	report := Report{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Bench:     "traces:" + path,
	}
	for _, s := range d.Samples {
		name, ok := traceRows[s.Name]
		if !ok || s.Hist.Count == 0 {
			continue
		}
		for _, l := range s.Labels {
			name += "/" + l.Value
		}
		report.Results = append(report.Results, Result{
			Name:       name,
			Iterations: int64(s.Hist.Count),
			Metrics: map[string]float64{
				"p50-µs":  s.Hist.Quantile(50),
				"p95-µs":  s.Hist.Quantile(95),
				"p99-µs":  s.Hist.Quantile(99),
				"mean-µs": s.Hist.Mean(),
				"max-µs":  s.Hist.Max,
			},
		})
	}
	// Exemplar rows name the pinned worst-slack traces individually (worst
	// first — index 0 is the window's worst request): the histogram rows
	// above say how bad the tail is, these say which requests it was made of.
	for i, ex := range d.Exemplars {
		metrics := map[string]float64{
			"e2e-µs": ex.Stages[telemetry.StageE2E],
		}
		if ex.DeadlineMicros > 0 {
			metrics["deadline-µs"] = ex.DeadlineMicros
			metrics["slack-µs"] = ex.SlackMicros
		}
		report.Results = append(report.Results, Result{
			Name:       fmt.Sprintf("TraceExemplar/%d", i),
			Iterations: 1,
			Metrics:    metrics,
		})
	}
	if len(report.Results) == 0 {
		return fmt.Errorf("%s: dump holds no observations", path)
	}

	if err := report.write(out); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %d trace rows (%g traces) to %s\n", len(report.Results), traces, out)
	return nil
}
