// Command benchjson runs the repository's tier-1 benchmarks and writes a
// machine-readable JSON summary, so the performance trajectory across PRs
// has concrete data points instead of prose claims. The default selection
// covers the coherence-window and precode-window acceptance benchmarks and
// the decode-path micro-benchmarks they amortize; -bench overrides it with
// any `go test -bench` regular expression.
//
// Run it from the repository root:
//
//	go run ./tools/benchjson -out BENCH_PR5.json
//
// Every benchmark line is parsed into its name, iteration count and metric
// map (ns/op, B/op, custom metrics like symbols/s), preserving exactly what
// the testing package reported.
//
// With -check, benchjson runs no benchmarks. Instead it audits the committed
// BENCH_PR*.json history as a CI gate:
//
//   - the newest snapshot must contain the compiled-mode coherence-window
//     (symbols/s) and precode-window (precodes/s) acceptance rows, the
//     soft-vs-hard decode acceptance rows (BenchmarkSoftDecode, decodes/s),
//     the paired telemetry-overhead row
//     (BenchmarkSchedulerPlanner/telemetry, off-/on-dispatches/s), and the
//     anneal-engine acceptance rows
//     (BenchmarkAnneal48BPSK/mode=scalar and /mode=multispin, ns/op + gsrate),
//     and the sharded-serving acceptance rows
//     (BenchmarkShardedServe/shards=1 and /shards=4, decodes/s + missrate +
//     cachehit), and the fleet-economics acceptance rows
//     (BenchmarkCostAwareDispatch/mode=latency and /mode=cost, µUSD/decode +
//     missrate + ber), and the solver-health acceptance rows
//     (BenchmarkHealthGatedServe/health=off and /health=on, decodes/s +
//     missrate);
//   - within the newest snapshot, compiled-mode throughput must be at least
//     2× the per-symbol recompile mode at every window size W ≥ 14, the
//     precode benchmark's mean gamma must agree between modes (the
//     equal-perturbation-quality half of the acceptance bar), the soft
//     decode must stay within 1.5× of the hard decode at equal Na (LLR
//     extraction is post-processing, not another anneal), and the
//     telemetry=on dispatch rate must stay within 5% of telemetry=off (the
//     observability plane must be cheap enough to leave on), and the
//     classical replica run (mode=multispin) must reach a ground-state
//     success rate no more than 0.02 below the device simulator's (both run
//     the one Metropolis sweep body; a classical schedule that butchers
//     solution quality does not count), and the 4-shard serving tier must
//     clear 2.5× the single pool's decodes/s with no deadline-miss
//     regression and a compiled-channel hit
//     rate within 5 points of the single pool's (throughput bought by
//     shattering cache affinity does not count either), and the cost-aware
//     dispatch mode must record at most 75% of the latency-only mode's
//     per-decode spend at an equal deadline-miss rate with no BER giveback
//     (spend saved by serving QoS classes worse does not count), and the
//     health-gated serving mode must stay within 5% of the ungated
//     throughput while recording a strictly lower deadline-miss rate under
//     the same injected degradation (a health plane that doesn't convert
//     detection into fewer misses is pure overhead);
//   - across snapshots recorded on the same goos/goarch, no headline
//     throughput metric (any metric ending in "/s" on a compiled-mode
//     gated-window row or a non-window benchmark) may regress more than
//     15% from its best committed value, measured relative to the snapshot
//     pair's median headline drift: two same-arch sessions can still differ
//     uniformly in raw speed (container placement, CPU frequency), so a
//     recording made on a slower machine shifts every row together and the
//     median absorbs it, while a genuine single-subsystem regression moves
//     its rows against a stable median and still fails. The correction only
//     engages when the pair shares enough rows to make the median
//     trustworthy, and a row is only failed when it regresses against at
//     least two committed snapshots (or the only one recording it): a real
//     regression is a property of the tree and reproduces against every
//     baseline, while a single-pair flag is an artifact of that pair's
//     drift estimate on a host whose slowdown is not uniform across
//     subsystems.
//
// The intra-snapshot ratio checks are machine-independent; the history check
// compares only numbers recorded into the repository, so the gate is
// deterministic in CI.
//
// With -traces, benchjson ingests a telemetry trace dump (the JSON written
// by quamax-serve/examples/tracedriven -trace-out) instead of running
// benchmarks, and emits one BENCH row per pipeline stage with
// p50/p95/p99/mean/max latency columns, plus one TraceExemplar row per
// pinned worst-slack trace — the per-stage distributions and the named
// worst requests join the same machine-readable trajectory the throughput
// rows live in:
//
//	go run ./tools/benchjson -traces dump.json -out TRACES.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"quamax/internal/telemetry"
)

// defaultBench selects the benchmarks the perf trajectory tracks: the two
// compile/execute acceptance benchmarks (uplink coherence windows, downlink
// precode windows) plus the micro-benchmarks of the stages they amortize.
const defaultBench = "BenchmarkCoherenceWindow|BenchmarkPrecodeWindow|BenchmarkSoftDecode|BenchmarkSchedulerPlanner|BenchmarkShardedServe|BenchmarkCostAwareDispatch|BenchmarkHealthGatedServe|BenchmarkReduceToIsing$|BenchmarkEmbedIsing$|BenchmarkAnneal48BPSK$|BenchmarkDecodeEndToEnd$"

// maxRegression is the fractional headline-throughput loss tolerated against
// the best committed snapshot (after median-drift correction) before -check
// fails the build.
const maxRegression = 0.15

// minDriftPairs is the minimum number of shared headline metrics a snapshot
// pair needs before its median ratio is trusted as the machines' uniform
// speed drift; sparser pairs compare raw values.
const minDriftPairs = 5

// minCompiledRatio is the required compiled/recompile throughput advantage
// at every window size W ≥ minGatedWindow.
const minCompiledRatio = 2.0

// minGatedWindow is the smallest window size the ratio gate applies to
// (W = 1 deliberately prices the split's overhead and is exempt).
const minGatedWindow = 14

// maxSoftOverhead is the tolerated soft-decode slowdown at equal Na: the
// soft mode's decodes/s must be at least hard/maxSoftOverhead.
const maxSoftOverhead = 1.5

// maxTelemetryOverhead is the tolerated serving-path slowdown with the
// telemetry recorder attached: BenchmarkSchedulerPlanner/telemetry's
// on-dispatches/s must be at least off-dispatches/s/maxTelemetryOverhead.
// The bound prices the whole tracing tax — trace allocation, per-stage
// clock reads, histogram observations and the ring append — against a
// realistic minimum solve (benchSolveMicros in the root bench harness).
const maxTelemetryOverhead = 1.05

// maxGSRateLoss is the tolerated ground-state success-rate deficit of the
// classical replica run (mode=multispin) against the device simulator on the
// 48-user BPSK acceptance benchmark: a classical schedule that costs more
// than this much quality fails the gate.
const maxGSRateLoss = 0.02

// minShardSpeedup is the required decodes/s advantage of the 4-shard serving
// tier over the single pool on BenchmarkShardedServe's fixed offered load.
// The benchmark paces decodes on simulated QPU occupancy, so the ratio
// measures the router's ability to keep N devices fed (affinity placement
// balance included), not host core count.
const minShardSpeedup = 2.5

// maxShardCacheLoss is the tolerated compiled-channel hit-rate deficit
// (absolute points) of the sharded tier against the single pool: affinity
// routing must preserve cache locality, not shatter it.
const maxShardCacheLoss = 0.05

// maxShardMissEps absorbs float formatting noise in the missrate comparison;
// the benchmark's deadlines are generous enough that both modes record
// exactly zero.
const maxShardMissEps = 1e-9

// maxCostSpendShare is the largest fraction of the latency-only per-decode
// spend the cost-aware dispatch mode may record on
// BenchmarkCostAwareDispatch's fixed offered load: economics-aware dispatch
// must be at least 25% cheaper at an equal deadline-miss rate.
const maxCostSpendShare = 0.75

// maxCostBERLoss is the tolerated uncoded-BER giveback of the cost-aware
// mode against latency-only dispatch on the same load: spend saved by
// serving requests worse than their QoS class does not count.
const maxCostBERLoss = 0.005

// maxHealthOverhead is the tolerated serving-path slowdown with the
// solver-health plane attached on BenchmarkHealthGatedServe's injected
// degradation: health=on decodes/s must be at least off/maxHealthOverhead.
// Quarantining the degraded member may cost its capacity share and the
// tracker's per-solve bookkeeping, but must not stall the pool.
const maxHealthOverhead = 1.05

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
		out       = flag.String("out", "BENCH_PR5.json", "output JSON path")
		check     = flag.Bool("check", false, "audit the committed BENCH_PR*.json history instead of running benchmarks")
		traces    = flag.String("traces", "", "telemetry trace dump (-trace-out JSON) to ingest instead of running benchmarks")
	)
	flag.Parse()

	if *check {
		if err := checkHistory("."); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Println("benchjson: history check ok")
		return
	}

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

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(report.Results), *out)
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

// ingestTraces converts a telemetry trace dump into BENCH rows: one row per
// occupied pipeline stage (plus the fronthaul wire and the deadline-slack
// sides) carrying p50/p95/p99/mean/max latency columns in microseconds. The
// latency units deliberately do not end in "/s", so trace rows never enter
// the throughput-regression gate. When the dump carries a pool snapshot,
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
	// Latency/slack units, so they never enter the throughput gate either.
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

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %d trace rows (%d traces) to %s\n",
		len(report.Results), d.Snapshot.Traces, out)
	return nil
}

// snapshot pairs a parsed history file with the PR number from its name.
type snapshot struct {
	path string
	pr   int
	Report
}

// historyFile extracts the PR ordinal from a BENCH_PR<N>.json name.
var historyFile = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// windowRow destructures an acceptance-benchmark name like
// "BenchmarkPrecodeWindow/W=14/mode=compiled".
var windowRow = regexp.MustCompile(`^(Benchmark\w+Window)/W=(\d+)/mode=(compiled|recompile)$`)

// loadHistory parses every BENCH_PR*.json in dir, ordered by PR number.
func loadHistory(dir string) ([]snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapshot
	for _, e := range entries {
		m := historyFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		s := snapshot{path: e.Name(), pr: pr}
		if err := json.Unmarshal(data, &s.Report); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].pr < snaps[j].pr })
	return snaps, nil
}

// metric returns a named metric of a named result, if recorded.
func (s *snapshot) metric(name, unit string) (float64, bool) {
	for _, r := range s.Results {
		if r.Name == name {
			v, ok := r.Metrics[unit]
			return v, ok
		}
	}
	return 0, false
}

// checkHistory is the -check gate. See the package comment for the rules.
func checkHistory(dir string) error {
	snaps, err := loadHistory(dir)
	if err != nil {
		return err
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no BENCH_PR*.json history found in %s", dir)
	}
	newest := snaps[len(snaps)-1]

	var problems []string
	problemf := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// 1. The acceptance benchmarks must be present in the newest snapshot.
	required := map[string]string{
		"BenchmarkCoherenceWindow": "symbols/s",
		"BenchmarkPrecodeWindow":   "precodes/s",
	}
	present := map[string]bool{}
	type window struct {
		family string
		w      int
	}
	rows := map[window]map[string]Result{} // mode → result
	for _, r := range newest.Results {
		m := windowRow.FindStringSubmatch(r.Name)
		if m == nil {
			continue
		}
		w, _ := strconv.Atoi(m[2])
		key := window{family: m[1], w: w}
		if rows[key] == nil {
			rows[key] = map[string]Result{}
		}
		rows[key][m[3]] = r
		if unit, ok := required[m[1]]; ok && m[3] == "compiled" {
			if _, has := r.Metrics[unit]; has {
				present[m[1]] = true
			}
		}
	}
	for family, unit := range required {
		if !present[family] {
			problemf("%s: missing compiled-mode %s rows with %q", newest.path, family, unit)
		}
	}

	// 1b. The soft-vs-hard decode acceptance rows (introduced with the
	// soft-output subsystem): both modes present, and soft within the
	// tolerated overhead of hard at equal Na.
	softRate, softOK := newest.metric("BenchmarkSoftDecode/mode=soft", "decodes/s")
	hardRate, hardOK := newest.metric("BenchmarkSoftDecode/mode=hard", "decodes/s")
	switch {
	case !softOK || !hardOK:
		problemf("%s: missing BenchmarkSoftDecode mode=soft/mode=hard rows with \"decodes/s\"", newest.path)
	case !(softRate*maxSoftOverhead >= hardRate):
		problemf("%s: soft decode %.2f decodes/s slower than %gx hard %.2f decodes/s",
			newest.path, softRate, maxSoftOverhead, hardRate)
	}

	// 1c. The telemetry-overhead row (introduced with the telemetry plane):
	// a paired measurement carrying both modes' dispatch rates, with the
	// instrumented serving path within the tolerated tax of the
	// uninstrumented one.
	offRate, offOK := newest.metric("BenchmarkSchedulerPlanner/telemetry", "off-dispatches/s")
	onRate, onOK := newest.metric("BenchmarkSchedulerPlanner/telemetry", "on-dispatches/s")
	switch {
	case !offOK || !onOK:
		problemf("%s: missing BenchmarkSchedulerPlanner/telemetry row with \"off-dispatches/s\" and \"on-dispatches/s\"", newest.path)
	case !(onRate*maxTelemetryOverhead >= offRate):
		problemf("%s: telemetry-on dispatch rate %.2f/s more than %g%% below telemetry-off %.2f/s",
			newest.path, onRate, 100*(maxTelemetryOverhead-1), offRate)
	}

	// 1d. The anneal-engine acceptance rows (introduced with the multi-spin
	// engine, whose name the classical row keeps): both modes present with
	// ns/op and gsrate, and the classical run's success rate within
	// maxGSRateLoss of the device simulator's. (Both rows run the one
	// Metropolis sweep body, so there is no speed ratio to hold.)
	_, scalarNsOK := newest.metric("BenchmarkAnneal48BPSK/mode=scalar", "ns/op")
	_, msNsOK := newest.metric("BenchmarkAnneal48BPSK/mode=multispin", "ns/op")
	scalarSR, scalarSROK := newest.metric("BenchmarkAnneal48BPSK/mode=scalar", "gsrate")
	msSR, msSROK := newest.metric("BenchmarkAnneal48BPSK/mode=multispin", "gsrate")
	switch {
	case !scalarNsOK || !msNsOK || !scalarSROK || !msSROK:
		problemf("%s: missing BenchmarkAnneal48BPSK mode=scalar/mode=multispin rows with \"ns/op\" and \"gsrate\"", newest.path)
	case !(msSR+maxGSRateLoss >= scalarSR):
		problemf("%s: multi-spin anneal gsrate %.3f more than %g below scalar %.3f",
			newest.path, msSR, maxGSRateLoss, scalarSR)
	}

	// 1e. The sharded-serving acceptance rows (introduced with the front-tier
	// router): shards=1 and shards=4 present with decodes/s, missrate and
	// cachehit; 4 shards at least minShardSpeedup× the single pool's
	// decodes/s, no deadline-miss regression, and the compiled-channel hit
	// rate within maxShardCacheLoss of the single pool's.
	s1Rate, s1RateOK := newest.metric("BenchmarkShardedServe/shards=1", "decodes/s")
	s4Rate, s4RateOK := newest.metric("BenchmarkShardedServe/shards=4", "decodes/s")
	s1Miss, s1MissOK := newest.metric("BenchmarkShardedServe/shards=1", "missrate")
	s4Miss, s4MissOK := newest.metric("BenchmarkShardedServe/shards=4", "missrate")
	s1Hit, s1HitOK := newest.metric("BenchmarkShardedServe/shards=1", "cachehit")
	s4Hit, s4HitOK := newest.metric("BenchmarkShardedServe/shards=4", "cachehit")
	switch {
	case !s1RateOK || !s4RateOK || !s1MissOK || !s4MissOK || !s1HitOK || !s4HitOK:
		problemf("%s: missing BenchmarkShardedServe shards=1/shards=4 rows with \"decodes/s\", \"missrate\" and \"cachehit\"", newest.path)
	default:
		if !(s4Rate >= minShardSpeedup*s1Rate) {
			problemf("%s: 4-shard serving %.1f decodes/s below %g× single-pool %.1f (%.2fx)",
				newest.path, s4Rate, minShardSpeedup, s1Rate, s4Rate/s1Rate)
		}
		if s4Miss > s1Miss+maxShardMissEps {
			problemf("%s: 4-shard missrate %.4f worse than single-pool %.4f",
				newest.path, s4Miss, s1Miss)
		}
		if s1Hit-s4Hit > maxShardCacheLoss {
			problemf("%s: 4-shard cache hit rate %.3f more than %g below single-pool %.3f",
				newest.path, s4Hit, maxShardCacheLoss, s1Hit)
		}
	}

	// 1f. The fleet-economics acceptance rows (introduced with the cost-aware
	// dispatch policy): mode=latency and mode=cost present with µUSD/decode,
	// missrate and ber; the cost-aware mode at most maxCostSpendShare of the
	// latency-only spend, no deadline-miss regression, and no BER giveback
	// beyond maxCostBERLoss.
	latSpend, latSpendOK := newest.metric("BenchmarkCostAwareDispatch/mode=latency", "µUSD/decode")
	costSpend, costSpendOK := newest.metric("BenchmarkCostAwareDispatch/mode=cost", "µUSD/decode")
	latMiss, latMissOK := newest.metric("BenchmarkCostAwareDispatch/mode=latency", "missrate")
	costMiss, costMissOK := newest.metric("BenchmarkCostAwareDispatch/mode=cost", "missrate")
	latBER, latBEROK := newest.metric("BenchmarkCostAwareDispatch/mode=latency", "ber")
	costBER, costBEROK := newest.metric("BenchmarkCostAwareDispatch/mode=cost", "ber")
	switch {
	case !latSpendOK || !costSpendOK || !latMissOK || !costMissOK || !latBEROK || !costBEROK:
		problemf("%s: missing BenchmarkCostAwareDispatch mode=latency/mode=cost rows with \"µUSD/decode\", \"missrate\" and \"ber\"", newest.path)
	default:
		if !(costSpend <= maxCostSpendShare*latSpend) {
			problemf("%s: cost-aware spend %.3f µUSD/decode above %g× latency-only %.3f (%.2fx)",
				newest.path, costSpend, maxCostSpendShare, latSpend, costSpend/latSpend)
		}
		if costMiss > latMiss+maxShardMissEps {
			problemf("%s: cost-aware missrate %.4f worse than latency-only %.4f",
				newest.path, costMiss, latMiss)
		}
		if costBER > latBER+maxCostBERLoss {
			problemf("%s: cost-aware ber %.4f more than %g above latency-only %.4f",
				newest.path, costBER, maxCostBERLoss, latBER)
		}
	}

	// 1g. The solver-health acceptance rows (introduced with the health
	// plane): health=off and health=on present with decodes/s and missrate
	// under the same injected degradation; the gated mode within
	// maxHealthOverhead of the ungated throughput, and a strictly lower
	// deadline-miss rate — detection must buy fewer client-visible misses,
	// or the plane is pure overhead.
	hOffRate, hOffRateOK := newest.metric("BenchmarkHealthGatedServe/health=off", "decodes/s")
	hOnRate, hOnRateOK := newest.metric("BenchmarkHealthGatedServe/health=on", "decodes/s")
	hOffMiss, hOffMissOK := newest.metric("BenchmarkHealthGatedServe/health=off", "missrate")
	hOnMiss, hOnMissOK := newest.metric("BenchmarkHealthGatedServe/health=on", "missrate")
	switch {
	case !hOffRateOK || !hOnRateOK || !hOffMissOK || !hOnMissOK:
		problemf("%s: missing BenchmarkHealthGatedServe health=off/health=on rows with \"decodes/s\" and \"missrate\"", newest.path)
	default:
		if !(hOnRate*maxHealthOverhead >= hOffRate) {
			problemf("%s: health-gated serving %.1f decodes/s more than %g%% below ungated %.1f",
				newest.path, hOnRate, 100*(maxHealthOverhead-1), hOffRate)
		}
		if !(hOnMiss < hOffMiss) {
			problemf("%s: health-gated missrate %.4f not strictly below ungated %.4f under the same injected degradation",
				newest.path, hOnMiss, hOffMiss)
		}
	}

	// 2. Intra-snapshot gates: compiled ≥ 2× recompile at every W ≥ 14, and
	// equal mean gamma between precode modes (same seeds, bit-identical
	// paths — any drift means the modes stopped solving the same problem).
	for key, modes := range rows {
		compiled, recompile := modes["compiled"], modes["recompile"]
		if compiled.Name == "" || recompile.Name == "" {
			continue
		}
		cg, cok := compiled.Metrics["gamma"]
		rg, rok := recompile.Metrics["gamma"]
		if cok && rok && math.Abs(cg-rg) > 1e-6*math.Max(1, math.Abs(rg)) {
			problemf("%s: %s W=%d perturbation quality differs between modes (gamma %.6f vs %.6f)",
				newest.path, key.family, key.w, cg, rg)
		}
		// The ratio gate only applies to families with a registered
		// higher-is-better throughput metric; gating an unregistered family
		// on ns/op would invert the comparison.
		unit, ok := required[key.family]
		if !ok || key.w < minGatedWindow {
			continue
		}
		c, cok := compiled.Metrics[unit]
		r, rok := recompile.Metrics[unit]
		if cok && rok && !(c >= minCompiledRatio*r) {
			problemf("%s: %s W=%d compiled %s %.1f < %g× recompile %.1f",
				newest.path, key.family, key.w, unit, c, minCompiledRatio, r)
		}
	}

	// 3. History: no headline throughput metric may fall >15% below its best
	// committed value on the same platform, after correcting for the pair's
	// median drift. Headline rows are the compiled-mode window rows at gated
	// sizes plus every non-window benchmark; recompile baselines and the W=1
	// overhead-pricing rows are deliberately exempt (they exist to be
	// compared against, not to be protected, and are the noisiest rows in
	// the set).
	headline := func(name string) bool {
		m := windowRow.FindStringSubmatch(name)
		if m == nil {
			return true
		}
		w, _ := strconv.Atoi(m[2])
		return m[3] == "compiled" && w >= minGatedWindow
	}
	// A real code regression is a property of the tree, so it reproduces
	// against every baseline that records the row; a flag raised by exactly
	// one snapshot pair while other same-platform snapshots of the same row
	// pass is a drift-estimate artifact — the scalar median cannot price a
	// host whose speed ratio is heterogeneous across subsystems (e.g. a
	// noisy-neighbor container that slows concurrency-paced serving rows
	// while CPU-bound kernels run at full speed). Flags therefore accumulate
	// per row across all baseline pairs and only rows failing against at
	// least two snapshots — or against the only snapshot that has the row —
	// become problems.
	type rowKey struct{ name, unit string }
	rowSeen := map[rowKey]int{}
	rowFlags := map[rowKey][]string{}
	for _, old := range snaps[:len(snaps)-1] {
		if old.GoOS != newest.GoOS || old.GoArch != newest.GoArch {
			continue // cross-machine numbers are not comparable
		}
		// First pass: estimate the pair's median drift — the recording
		// sessions' uniform speed ratio (container placement, CPU frequency)
		// — before any row is judged. Every shared row's ns/op is a drift
		// witness, including the non-gated recompile baselines and
		// micro-benchmarks, so the estimate has far more support than the
		// handful of gated rows. A slower recording machine shifts every row
		// together and the median absorbs it; a real single-subsystem
		// regression moves its rows against a stable median and still fails.
		var ratios []float64
		for _, r := range old.Results {
			oldNs, ok := r.Metrics["ns/op"]
			if !ok || oldNs <= 0 {
				continue
			}
			newNs, ok := newest.metric(r.Name, "ns/op")
			if !ok || newNs <= 0 {
				continue // benchmark no longer recorded
			}
			ratios = append(ratios, oldNs/newNs) // >1: new session is faster
		}
		drift := 1.0
		if len(ratios) >= minDriftPairs {
			sort.Float64s(ratios)
			drift = ratios[len(ratios)/2]
			if len(ratios)%2 == 0 {
				drift = (drift + ratios[len(ratios)/2-1]) / 2
			}
		}
		// Second pass: gate the headline throughput rows against the
		// drift-corrected baseline.
		type pair struct {
			name, unit     string
			oldVal, newVal float64
		}
		var pairs []pair
		for _, r := range old.Results {
			if !headline(r.Name) {
				continue
			}
			for unit, oldVal := range r.Metrics {
				if !strings.HasSuffix(unit, "/s") || oldVal <= 0 {
					continue
				}
				newVal, ok := newest.metric(r.Name, unit)
				if !ok {
					continue // benchmark or metric no longer recorded
				}
				pairs = append(pairs, pair{r.Name, unit, oldVal, newVal})
			}
		}
		for _, p := range pairs {
			k := rowKey{p.name, p.unit}
			rowSeen[k]++
			if p.newVal < (1-maxRegression)*drift*p.oldVal {
				rowFlags[k] = append(rowFlags[k], fmt.Sprintf(
					"%s: %s %s regressed %.0f%% against %s (median drift %.2f: %.1f → %.1f)",
					newest.path, p.name, p.unit, 100*(1-p.newVal/(drift*p.oldVal)), old.path, drift, p.oldVal, p.newVal))
			}
		}
	}
	for k, flags := range rowFlags {
		if len(flags) >= 2 || rowSeen[k] == 1 {
			for _, f := range flags {
				problemf("%s", f)
			}
		}
	}

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchjson: "+p)
		}
		return fmt.Errorf("%d problem(s) in benchmark history", len(problems))
	}
	fmt.Printf("benchjson: audited %d snapshot(s), newest %s (%d results)\n",
		len(snaps), newest.path, len(newest.Results))
	return nil
}
