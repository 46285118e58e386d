package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"quamax/internal/metrics"
	"quamax/internal/rng"
)

// options selects one benchmark run.
type options struct {
	w       *workload
	seed    int64
	seconds float64
	// warmups is the number of warm-up requests each set-up sends and setups
	// how many times the server is set up (setup_s is the median). Only the
	// tests shorten them: the command line fixes warmups at defaultWarmups
	// and setups at 0, which repeats from minSetups up to maxSetups times
	// while the set-ups together have taken less than setupBudget.
	warmups, setups int
	outDir          string
}

const (
	defaultWarmups = 32
	// A cheap set-up is repeated more often than a dear one, so its median is
	// as steady: the stub workload's takes 3 ms, most of it wake-up latency,
	// and over 25 repeats its median still moved ±30% from run to run.
	minSetups, maxSetups = 5, 100
	setupBudget          = 2500 * time.Millisecond
	// satShare and pacedShare split an end-to-end run's measuring time. The
	// sat phase gets the larger part: every gated metric but setup_s comes
	// from it, and its rates repeat better the longer it runs. The paced
	// phase's numbers are per-layer diagnostics.
	satShare, pacedShare = 0.7, 0.3
)

// metric is one named, unit-carrying value. lo and hi, when spread is set,
// are the minimum and maximum of the per-segment values behind it.
type metric struct {
	name, unit string
	value      float64
	spread     bool
	lo, hi     float64
	note       string
}

// report is what one run measured and checked.
type report struct {
	headline          []string
	metrics           []metric
	attempted, failed int
	violations        []string
}

func (r *report) add(name, unit string, value float64) *metric {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
	return &r.metrics[len(r.metrics)-1]
}

// addSegments adds the median of the per-segment values with their min–max.
func (r *report) addSegments(name, unit string, vals []float64) {
	v, lo, hi := reduceSegments(vals)
	m := r.add(name, unit, v)
	m.spread, m.lo, m.hi = true, lo, hi
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// reduceSegments is the segment reducer: a phase metric's value is the median
// of its per-segment values, reported with the segments' minimum and maximum
// as the run's own spread. The median passes over a disturbance that lasts
// less than half the phase and shows one that recurs (GC, eviction, a
// fallback burst) in most segments. Segments without a value (NaN) are
// skipped.
func reduceSegments(vals []float64) (value, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return metrics.Median(vals), lo, hi
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

func connections() int { return min(2, runtime.NumCPU()) }

// served is a set-up server with its connected load generator.
type served struct {
	st *stack
	g  *loadgen
}

// setup builds the server, dials the connections and sends the warm-up
// requests, which touch every (modulation, N) class of the workload so the
// lazily built embedding templates and slot packings exist before timing.
func setup(o *options, in *inputs, tr *tracer) (*served, error) {
	st, err := buildStack(o.w, tr)
	if err != nil {
		return nil, err
	}
	g := &loadgen{in: in}
	for i := 0; i < connections(); i++ {
		a, err := dialAP(o.w, st.addr())
		if err != nil {
			g.closeClients()
			return nil, errors.Join(err, st.close())
		}
		g.aps = append(g.aps, a)
	}
	sv := &served{st: st, g: g}
	if rec := g.closedLoop(o.warmups, 0, 0); rec.failed+rec.shed > 0 || rec.violations > 0 {
		err := fmt.Errorf("warm-up: %d failed, %d shed, %d violations (first error: %v; first violation: %s)",
			rec.failed, rec.shed, rec.violations, rec.firstError, rec.firstViolation)
		return nil, errors.Join(err, sv.close())
	}
	return sv, nil
}

func (sv *served) close() error {
	sv.g.closeClients()
	return sv.st.close()
}

// clientCounts are the APs' lifetime counters, summed.
type clientCounts struct {
	ok, failed, shed, stale, registers, bytes int64
}

func (sv *served) clientCounts() clientCounts {
	var c clientCounts
	for _, a := range sv.g.aps {
		c.ok += a.ok.Load()
		c.failed += a.failed.Load()
		c.shed += a.shed.Load()
		c.stale += a.stale.Load()
		c.registers += a.registers.Load()
		c.bytes += a.conn.read.Load() + a.conn.written.Load()
	}
	return c
}

// tally folds one phase's outcome into the report's totals and violations.
func (r *report) tally(phase string, rec *recorder) {
	r.attempted += rec.issued
	r.failed += rec.failed + rec.shed
	if rec.violations > 0 {
		r.violate("%s phase: %d answers failed their check (first: %s)", phase, rec.violations, rec.firstViolation)
	}
	if rec.failed > 0 {
		r.violate("%s phase: %d requests failed (first: %v)", phase, rec.failed, rec.firstError)
	}
}

// reconcile checks the serving side's accounting against the clients': every
// accepted problem completed or failed, and the completions are exactly the
// answers the clients counted.
func (r *report) reconcile(sv *served) {
	ps, sheds, c := sv.st.router.Stats(), sv.st.sheds(), sv.clientCounts()
	if ps.Submitted != ps.Completed+ps.Failed {
		r.violate("router stats: submitted %d != completed %d + failed %d", ps.Submitted, ps.Completed, ps.Failed)
	}
	if int64(ps.Completed) != c.ok || int64(ps.Failed) != c.failed || int64(sheds) != c.shed {
		r.violate("answers: server completed %d failed %d shed %d, clients counted %d, %d, %d",
			ps.Completed, ps.Failed, sheds, c.ok, c.failed, c.shed)
	}
}

// satMetrics adds the closed-loop phase's end-to-end metrics.
func (r *report) satMetrics(rec *recorder) {
	var rate, allocs []float64
	for i := range rec.seg {
		sg := &rec.seg[i]
		rate = append(rate, float64(sg.ok)/rec.segLen.Seconds())
		allocs = append(allocs, ratio(float64(sg.mallocs), float64(sg.ok)))
	}
	r.addSegments("sat_decodes_per_s", "1/s", rate)
	r.addSegments("allocs_per_decode", "count", allocs)
}

// deadlineMetShare is the share of the paced requests due that were answered
// OK within the workload's limit, pooled over the phase (a ratio of counts),
// with the smallest and largest per-segment share.
func deadlineMetShare(rec *recorder) (share, lo, hi float64) {
	var met, due int
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range rec.seg {
		sg := &rec.seg[i]
		met, due = met+sg.met, due+sg.due
		if sg.due > 0 {
			share := float64(sg.met) / float64(sg.due)
			lo, hi = math.Min(lo, share), math.Max(hi, share)
		}
	}
	return ratio(float64(met), float64(due)), lo, hi
}

// loadgenMetrics adds the load generator's own counters and the paced phase's
// latency figures. The paced phase is valid only while the generator ran on
// time: lag p99 within 10% of the median latency. On a host where a sleeping
// thread is woken milliseconds late whenever the solvers hold both hardware
// threads it is not, which is why nothing from this phase gates.
func (r *report) loadgenMetrics(sat, paced *recorder, lags []time.Duration, genS float64) {
	lagMs := make([]float64, len(lags))
	for i, l := range lags {
		lagMs[i] = float64(l) / float64(time.Millisecond)
	}
	var cpu []float64
	for i := range sat.seg {
		cpu = append(cpu, ratio(float64(sat.seg[i].cpu)/float64(time.Millisecond), float64(sat.seg[i].ok)))
	}
	r.addSegments("loadgen.cpu_ms_per_decode", "ms", cpu)
	lagP99 := metrics.Percentile(lagMs, 99)
	r.add("loadgen.lag_p99_ms", "ms", lagP99)
	samples := fmt.Sprintf("%d samples", len(paced.latMs))
	r.add("loadgen.lat_p50_ms", "ms", metrics.Percentile(paced.latMs, 50)).note = samples
	r.add("loadgen.lat_p90_ms", "ms", metrics.Percentile(paced.latMs, 90)).note = samples
	r.add("loadgen.lat_p99_ms", "ms", metrics.Percentile(paced.latMs, 99)).note = samples
	valid := 0.0
	if p50 := metrics.Percentile(paced.latMs, 50); lagP99 <= 0.1*p50 {
		valid = 1
	}
	r.add("loadgen.paced_valid", "count", valid)
	m := r.add("loadgen.deadline_met_share", "share", 0)
	m.value, m.lo, m.hi = deadlineMetShare(paced)
	m.spread = true
	r.add("loadgen.sent", "count", float64(sat.issued+paced.issued))
	r.add("loadgen.ok", "count", float64(sat.ok+paced.ok))
	r.add("loadgen.failed", "count", float64(sat.failed+paced.failed))
	r.add("loadgen.shed", "count", float64(sat.shed+paced.shed))
	r.add("loadgen.failed_share", "share", ratio(float64(r.failed), float64(r.attempted)))
	r.add("loadgen.ber", "share", ratio(float64(sat.bitErrs+paced.bitErrs), float64(sat.bits+paced.bits)))
	r.add("loadgen.gen_s", "s", genS)
	r.add("loadgen.peak_rss_mb", "MB", peakRSSMB())
}

// moreSetups reports whether another set-up is due after done of them.
func (o *options) moreSetups(done int, spent time.Duration) bool {
	if o.setups > 0 {
		return done < o.setups
	}
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

func (o *options) phase(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// arrivalSource seeds the paced phase's Poisson clock from the run seed.
func (o *options) arrivalSource() *rng.Source { return rng.New(o.seed ^ 0x5eed0a11) }

// runUntraced is the end-to-end run: set up (several times, for a steady
// setup_s), saturate, then pace, check every answer, and report the
// end-to-end metrics.
func runUntraced(o *options) (*report, error) {
	r := &report{}
	t0 := time.Now()
	in, err := o.w.generate(o.seed, connections())
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()

	var sv *served
	var setupS []float64
	setupStart := time.Now()
	for i := 0; o.moreSetups(i, time.Since(setupStart)); i++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if sv, err = setup(o, in, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r.addSegments("setup_s", "s", setupS)

	sat := sv.g.closedLoop(0, o.phase(satShare), o.w.limit)
	paced, lags := sv.g.paced(o.arrivalSource(), o.w.rate, o.phase(pacedShare), o.w.limit)
	r.tally("sat", sat)
	r.tally("paced", paced)
	r.reconcile(sv)
	counts := sv.clientCounts()
	cache := sv.st.cacheStats()
	planned := sv.st.planner.Stats()
	if err := sv.close(); err != nil {
		return nil, err
	}

	r.satMetrics(sat)
	r.loadgenMetrics(sat, paced, lags, genS)
	if ber := ratio(float64(sat.bitErrs+paced.bitErrs), float64(sat.bits+paced.bits)); o.w.berCeiling > 0 && !(ber <= o.w.berCeiling) {
		r.violate("ber %.4g above the workload's ceiling %.4g", ber, o.w.berCeiling)
	}
	r.add("fronthaul.stale_handle_retries", "count", float64(counts.stale))
	r.add("fronthaul.registers", "count", float64(counts.registers))
	r.add("core.cache_hit_share", "share", cache.HitRate())
	r.add("qos.reads_planned_mean", "count", meanReads(planned.ReadsPlanned, planned.Quantum))
	r.headline = o.describe(in, fmt.Sprintf("end-to-end run: set-up x%d, sat %.1f s, paced %.1f s",
		len(setupS), o.phase(satShare).Seconds(), o.phase(pacedShare).Seconds()))
	return r, nil
}

func meanReads(reads, plans uint64) float64 {
	if plans == 0 {
		return 0
	}
	return float64(reads) / float64(plans)
}

// describe states what the run measured and how; phases says how the
// measuring time was spent.
func (o *options) describe(in *inputs, phases string) []string {
	w := o.w
	solver := fmt.Sprintf("1 simulated annealer (Na=%d) + classical-SA(%d,%d) fallback per shard", w.na, saSweeps, saRestarts)
	if w.stub {
		solver = "1 stub solver per shard, no fallback"
	}
	return []string{
		fmt.Sprintf("workload %s, seed %d: %d generated requests over %d coherence windows, replayed cyclically", w.name, o.seed, len(in.reqs), in.windows),
		fmt.Sprintf("server built in-process from the public constructors: fronthaul.Server -> router (%d shards) -> sched (+qos planner) -> %s", shards, solver),
		fmt.Sprintf("driven from %d fronthaul.Client connections in the same process over real loopback TCP, un-paced; %d warm-up requests per set-up", connections(), o.warmups),
		fmt.Sprintf("closed loop: %d requests in flight; open loop: Poisson %g/s, timed from the due instant, L = %v", inFlightPerConn*connections(), w.rate, w.limit),
		phases,
	}
}
