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
// benchmarks, and emits one row per pipeline stage with
// p50/p95/p99/mean/max latency columns, plus one TraceExemplar row per
// pinned worst-slack trace:
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

// ingestTraces converts a telemetry trace dump into report rows: one row per
// occupied pipeline stage (plus the fronthaul wire and the deadline-slack
// sides) carrying p50/p95/p99/mean/max latency columns in microseconds. When
// the dump carries a pool snapshot,
// the telemetry plane's reconciliation invariant is enforced before
// anything is written: Submitted == Completed+Failed == trace count.
func ingestTraces(path, out string) error {
	d, err := telemetry.ReadDump(path)
	if err != nil {
		return err
	}
	if d.Snapshot == nil {
		return fmt.Errorf("%s: dump has no snapshot", path)
	}
	if p := d.Pool; p != nil {
		if p.Submitted != p.Completed+p.Failed || p.Submitted != d.Snapshot.Traces {
			return fmt.Errorf("%s: traces do not reconcile with pool counters: submitted=%d completed+failed=%d traces=%d",
				path, p.Submitted, p.Completed+p.Failed, d.Snapshot.Traces)
		}
	}

	report := Report{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Bench:     "traces:" + path,
	}
	row := func(name string, s telemetry.StageSummary) {
		if s.Count == 0 {
			return
		}
		report.Results = append(report.Results, Result{
			Name:       name,
			Iterations: int64(s.Count),
			Metrics: map[string]float64{
				"p50-µs":  s.P50Micros,
				"p95-µs":  s.P95Micros,
				"p99-µs":  s.P99Micros,
				"mean-µs": s.MeanMicros,
				"max-µs":  s.MaxMicros,
			},
		})
	}
	for _, name := range telemetry.StageNames() {
		row("TraceStage/"+name, d.Stages[name])
	}
	row("TraceWire", d.Wire)
	row("TraceSlack/met", d.SlackMet)
	row("TraceSlack/missed", d.SlackMissed)
	// Exemplar rows name the pinned worst-slack traces individually (worst
	// first — index 0 is the window's worst request): the per-stage summaries
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
	fmt.Printf("benchjson: wrote %d trace rows (%d traces) to %s\n",
		len(report.Results), d.Snapshot.Traces, out)
	return nil
}
