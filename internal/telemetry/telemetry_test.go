package telemetry

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"quamax/internal/metrics"
)

func TestBucketIndexMonotone(t *testing.T) {
	if got := metrics.BucketIndex(0); got != 0 {
		t.Fatalf("metrics.BucketIndex(0) = %d, want 0", got)
	}
	prev := -1
	for v := 0.01; v < 1e13; v *= 1.07 {
		i := metrics.BucketIndex(v)
		if i < prev {
			t.Fatalf("BucketIndex not monotone at %g: %d < %d", v, i, prev)
		}
		if i < 0 || i >= metrics.NumBuckets {
			t.Fatalf("metrics.BucketIndex(%g) = %d out of range", v, i)
		}
		if i < metrics.NumBuckets-1 && v > metrics.BucketBound(i) {
			t.Fatalf("value %g above its bucket bound %g (bucket %d)", v, metrics.BucketBound(i), i)
		}
		if i > 0 && v <= metrics.BucketBound(i-1) {
			t.Fatalf("value %g at or below previous bound %g (bucket %d)", v, metrics.BucketBound(i-1), i)
		}
		prev = i
	}
	if got := metrics.BucketIndex(math.Inf(1)); got != metrics.NumBuckets-1 {
		t.Fatalf("metrics.BucketIndex(+Inf) = %d, want %d", got, metrics.NumBuckets-1)
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Counts != nil {
		t.Fatalf("empty snapshot not empty: %+v", s)
	}
	vals := []float64{0.05, 1, 10, 10, 250, 9e3}
	for _, v := range vals {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	h.Observe(-5)         // clamps to 0
	s := h.Snapshot()
	if s.Count != uint64(len(vals)+1) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals)+1)
	}
	if s.Min != 0 {
		t.Fatalf("min = %g, want 0 (clamped negative)", s.Min)
	}
	if s.Max != 9e3 {
		t.Fatalf("max = %g, want 9000", s.Max)
	}
	wantSum := 0.05 + 1 + 10 + 10 + 250 + 9e3
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
	// Quantiles bounded by extrema and within log-bucket resolution.
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		q := s.Quantile(p)
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile(%g) = %g outside [%g, %g]", p, q, s.Min, s.Max)
		}
	}
	if q := s.Quantile(100); q != s.Max {
		t.Fatalf("quantile(100) = %g, want max %g", q, s.Max)
	}
}

func TestHistogramInfObservation(t *testing.T) {
	var h Histogram
	h.Observe(math.Inf(1))
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Counts[metrics.NumBuckets-1] != 1 {
		t.Fatalf("+Inf not in catch-all bucket")
	}
	if math.IsInf(s.Sum, 1) || math.IsNaN(s.Sum) {
		t.Fatalf("sum not finite after +Inf observation: %g", s.Sum)
	}
}

func TestHistMergeMatchesCombined(t *testing.T) {
	var a, b, both Histogram
	va := []float64{1, 5, 30, 2000}
	vb := []float64{0.2, 5, 7e5}
	for _, v := range va {
		a.Observe(v)
		both.Observe(v)
	}
	for _, v := range vb {
		b.Observe(v)
		both.Observe(v)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	w := both.Snapshot()
	if m.Count != w.Count || m.Min != w.Min || m.Max != w.Max || math.Abs(m.Sum-w.Sum) > 1e-9 {
		t.Fatalf("merge mismatch: %+v vs %+v", m, w)
	}
	for i := range w.Counts {
		if m.Counts[i] != w.Counts[i] {
			t.Fatalf("bucket %d: merged %d, combined %d", i, m.Counts[i], w.Counts[i])
		}
	}
	// Merge with empty is identity in both directions.
	if got := w.Merge(metrics.Hist{}); got.Count != w.Count {
		t.Fatalf("merge with empty lost counts")
	}
	if got := (metrics.Hist{}).Merge(w); got.Count != w.Count {
		t.Fatalf("empty.Merge lost counts")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) / 10)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	wantSum := 0.0
	for i := 0; i < goroutines*per; i++ {
		wantSum += float64(i) / 10
	}
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func testClock(start time.Time) func() time.Time {
	cur := start
	return func() time.Time {
		cur = cur.Add(time.Millisecond)
		return cur
	}
}

func TestRecorderFinishTraceReconciles(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	for i := 0; i < 5; i++ {
		tr := Trace{
			Class:          "qpsk/4",
			DeadlineMicros: 1000,
			SlackMicros:    float64(100 - 40*i), // two of five go negative
			Failed:         i == 4,
		}
		tr.Stages[StageQueue] = float64(10 * (i + 1))
		tr.Stages[StageE2E] = float64(100 * (i + 1))
		r.FinishTrace(tr)
	}
	sn := r.Snapshot()
	if sn.Finished != 4 || sn.Failed != 1 || sn.Traces != 5 {
		t.Fatalf("finished/failed/traces = %d/%d/%d", sn.Finished, sn.Failed, sn.Traces)
	}
	if r.TraceCount() != 5 {
		t.Fatalf("TraceCount = %d", r.TraceCount())
	}
	if sn.Stages[StageQueue].Count != 5 || sn.Stages[StageE2E].Count != 5 {
		t.Fatalf("stage counts queue=%d e2e=%d, want 5", sn.Stages[StageQueue].Count, sn.Stages[StageE2E].Count)
	}
	if sn.SlackMet.Count != 3 || sn.SlackMissed.Count != 2 {
		t.Fatalf("slack met/missed = %d/%d, want 3/2", sn.SlackMet.Count, sn.SlackMissed.Count)
	}
	// Plan and compile stages are owned by other components: FinishTrace
	// must not feed them even if the trace carries sched-side measurements.
	tr := Trace{}
	tr.Stages[StagePlan] = 42
	tr.Stages[StageCompile] = 42
	r.FinishTrace(tr)
	sn = r.Snapshot()
	if sn.Stages[StagePlan].Count != 0 || sn.Stages[StageCompile].Count != 0 {
		t.Fatalf("FinishTrace fed plan/compile histograms")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	const n = DefaultRingSize + 6
	for i := 0; i < n; i++ {
		r.FinishTrace(Trace{Class: Class("bpsk", i)})
	}
	traces := r.Traces()
	if len(traces) != DefaultRingSize {
		t.Fatalf("ring length = %d, want %d", len(traces), DefaultRingSize)
	}
	for i, tr := range traces {
		if want := uint64(7 + i); tr.Seq != want {
			t.Fatalf("trace %d seq = %d, want %d (oldest-first order)", i, tr.Seq, want)
		}
	}
	if r.TraceCount() != n {
		t.Fatalf("TraceCount = %d, want %d", r.TraceCount(), n)
	}
}

func TestRecorderQualityAndCompile(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	r.ObserveQuality("16qam/12", QualityObservation{BestEnergy: -42.5, Reads: 100, ChainBreaks: 7, LLRBits: 48, LLRSaturated: 3})
	r.ObserveQuality("16qam/12", QualityObservation{BestEnergy: -40, Reads: 100, ChainBreaks: 1})
	r.ObserveQuality("qpsk/4", QualityObservation{BestEnergy: -8, Reads: 50})
	r.ObserveCompile(120, false)
	r.ObserveCompile(0.4, true)
	sn := r.Snapshot()
	q := sn.Quality["16qam/12"]
	if q.Solves != 2 || q.Reads != 200 || q.ChainBreaks != 8 || q.LLRBits != 48 || q.LLRSaturated != 3 {
		t.Fatalf("quality counters wrong: %+v", q)
	}
	if q.BestEnergy.Count != 2 || q.BestEnergy.Max != 42.5 {
		t.Fatalf("best-energy hist wrong: %+v", q.BestEnergy)
	}
	if sn.CompileHits != 1 || sn.CompileMisses != 1 {
		t.Fatalf("compile hit/miss = %d/%d", sn.CompileHits, sn.CompileMisses)
	}
	if sn.Stages[StageCompile].Count != 2 {
		t.Fatalf("compile stage count = %d", sn.Stages[StageCompile].Count)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.FinishTrace(Trace{})
	r.ObserveStage(StageQueue, 1)
	r.ObserveCompile(1, true)
	r.ObserveWire(1)
	r.ObserveQuality("x", QualityObservation{})
	if r.Traces() != nil || r.TraceCount() != 0 || r.Snapshot() != nil || r.Snapshot().Samples() != nil {
		t.Fatalf("nil recorder leaked state")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	tr := Trace{Class: "qpsk/4", DeadlineMicros: 500, SlackMicros: 100}
	tr.Stages[StageQueue] = 12
	tr.Stages[StageSolve] = 300
	tr.Stages[StageE2E] = 330
	r.FinishTrace(tr)
	r.ObserveQuality("qpsk/4", QualityObservation{BestEnergy: -3, Reads: 10, ChainBreaks: 1})
	r.ObserveWire(410)
	pool := metrics.PoolStats{
		Submitted: 1, Completed: 1,
		Backends: []metrics.BackendStats{{Name: "qpu0", Solved: 1, BusyMicros: 300, Utilization: 0.5}},
	}
	health := metrics.BackendHealth{Name: "qpu0", State: metrics.HealthDegraded, Score: 1.5, Observations: 90,
		ChainBreakEWMA: 0.31, EnergyEWMA: 12.5, FailureEWMA: 0.05, ReadsPerSolve: 48}
	burn := metrics.ShardBurn{FastMissRate: 0.25, SlowMissRate: 0.1, Observed: 64, Alerting: true}
	shard0 := metrics.Label{Key: "shard", Value: "0"}
	var b strings.Builder
	WritePrometheus(&b, metrics.Collect(r.Snapshot().Samples(), pool.Samples(), health.Samples(), burn.Samples(0),
		[]metrics.Sample{metrics.Counter("quamax_shard_sheds_total", "Dispatches refused under backpressure per shard.", 3, shard0)}))
	out := b.String()
	for _, want := range []string{
		"# TYPE quamax_stage_latency_micros histogram",
		`quamax_stage_latency_micros_bucket{stage="queue",le="+Inf"} 1`,
		`quamax_stage_latency_micros_count{stage="queue"} 1`,
		`quamax_deadline_slack_micros_bucket{outcome="met",le="+Inf"} 1`,
		`quamax_traces_finished_total{outcome="ok"} 1`,
		`quamax_quality_chain_breaks_total{class="qpsk/4"} 1`,
		"quamax_fronthaul_wire_micros_count 1",
		"quamax_pool_submitted_total 1",
		`quamax_backend_solved_total{backend="qpu0"} 1`,
		`quamax_backend_health{backend="qpu0"} 1`,
		`quamax_backend_health_score{backend="qpu0"} 1.5`,
		`quamax_slo_burn_rate{shard="0",slo="miss",window="fast"} 0.25`,
		`quamax_slo_alerting{shard="0"} 1`,
		`quamax_shard_sheds_total{shard="0"} 3`,
		// Series the health block carried on the wire but /metrics dropped.
		`quamax_backend_health_observations_total{backend="qpu0"} 90`,
		`quamax_backend_chain_break_ewma{backend="qpu0"} 0.31`,
		`quamax_backend_energy_ewma{backend="qpu0"} 12.5`,
		`quamax_backend_failure_ewma{backend="qpu0"} 0.05`,
		`quamax_backend_reads_per_solve{backend="qpu0"} 48`,
		`quamax_slo_burn_samples_total{shard="0"} 64`,
		// One header per family, typed by kind.
		"# HELP quamax_pool_submitted_total Problems accepted by the scheduler.\n# TYPE quamax_pool_submitted_total counter\n",
		"# TYPE quamax_backend_health gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Every histogram's cumulative buckets must be nondecreasing and end at
	// a le="+Inf" sample equal to _count.
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if !strings.Contains(line, `le="+Inf"`) {
			continue
		}
		name := line[:strings.Index(line, "_bucket{")]
		var infVal string
		if _, err := fmtSscanLast(line, &infVal); err != nil {
			t.Fatalf("line %d unparsable: %q", i, line)
		}
		found := false
		for _, l2 := range lines {
			if strings.HasPrefix(l2, name+"_count") && strings.HasSuffix(l2, " "+infVal) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no matching _count for %q", line)
		}
	}
}

// fmtSscanLast extracts the last whitespace-separated token of a line.
func fmtSscanLast(line string, out *string) (int, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return 0, nil
	}
	*out = fields[len(fields)-1]
	return 1, nil
}

func TestDumpRoundTrip(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	tr := Trace{Class: "16qam/2", Backend: "qpu0", CacheHit: true, DeadlineMicros: 2000, SlackMicros: 1500}
	tr.Stages[StageSolve] = 420
	tr.Stages[StageE2E] = 500
	r.FinishTrace(tr)
	r.ObserveQuality("16qam/2", QualityObservation{BestEnergy: -3, Reads: 10})
	set := metrics.Collect(metrics.PoolStats{Submitted: 1, Completed: 1}.Samples(metrics.Label{Key: "shard", Value: "0"}), r.Snapshot().Samples())
	path := t.TempDir() + "/dump.json"
	if err := BuildDump(r, set).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 1 || got.Traces[0].Backend != "qpu0" || got.Traces[0].Stages != tr.Stages {
		t.Fatalf("round-trip lost the trace: %+v", got.Traces)
	}
	// Every series comes back as it went out, except its help text, which
	// stays in the process.
	for i := range set {
		set[i].Help = ""
	}
	if !reflect.DeepEqual(got.Samples, set) {
		t.Fatalf("round-trip moved the sample set:\n got %+v\nwant %+v", got.Samples, set)
	}
}

func TestStageStringAndNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumStages; i++ {
		n := Stage(i).String()
		if n == "" || seen[n] {
			t.Fatalf("stage %d name %q empty or duplicate", i, n)
		}
		seen[n] = true
	}
	if StageE2E.String() != "e2e" || StageAdmit.String() != "admit" || Stage(NumStages).String() != "stage8" {
		t.Fatalf("stage names wrong")
	}
}
