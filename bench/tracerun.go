package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"quamax/internal/metrics"
)

// totals is a snapshot of the tracer's per-layer sums.
type totals struct {
	count, nanos, runs, runNano [numLayers]int64
}

func (tr *tracer) totals() totals {
	var t totals
	for l := range t.count {
		t.count[l] = tr.count[l].Load()
		t.nanos[l] = tr.nanos[l].Load()
		t.runs[l] = tr.runs[l].Load()
		t.runNano[l] = tr.runNano[l].Load()
	}
	return t
}

func (t totals) sub(o totals) totals {
	for l := range t.count {
		t.count[l] -= o.count[l]
		t.nanos[l] -= o.nanos[l]
		t.runs[l] -= o.runs[l]
		t.runNano[l] -= o.runNano[l]
	}
	return t
}

// meanUs is the mean span of a layer in µs (0 with no spans).
func (t totals) meanUs(l layer) float64 {
	if t.count[l] == 0 {
		return 0
	}
	return float64(t.nanos[l]) / float64(t.count[l]) / 1e3
}

// satRate is a closed-loop phase's sat_decodes_per_s.
func satRate(rec *recorder) float64 {
	var rate []float64
	for i := range rec.seg {
		rate = append(rate, float64(rec.seg[i].ok)/rec.segLen.Seconds())
	}
	return metrics.Median(rate)
}

// runTraced is the per-layer run. It saturates an untraced server first (the
// reference for the tracing overhead), then a traced one, paces the traced
// one briefly for the load generator's own counters, and finally replays
// sampled requests through each layer's exported functions, one caller at a
// time. End-to-end metrics are never taken from this run.
func runTraced(o *options) (*report, error) {
	r := &report{}
	t0 := time.Now()
	in, err := o.w.generate(o.seed, connections())
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()

	sv, err := setup(o, in, nil)
	if err != nil {
		return nil, err
	}
	ref := sv.g.closedLoop(0, o.phase(0.2), o.w.limit)
	r.tally("untraced sat", ref)
	if err := sv.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	if sv, err = setup(o, in, tr); err != nil {
		return nil, err
	}
	before := tr.totals()
	bytesBefore := sv.clientCounts().bytes
	satDur := o.phase(0.3)
	sat := sv.g.closedLoop(0, satDur, o.w.limit)
	d := tr.totals().sub(before)
	bytesAfter := sv.clientCounts().bytes
	paced, lags := sv.g.paced(o.arrivalSource(), o.w.rate, o.phase(0.2), o.w.limit)
	r.tally("sat", sat)
	r.tally("paced", paced)
	r.reconcile(sv)

	ps := sv.st.router.Stats()
	perShard := sv.st.router.ShardStats()
	sheds := sv.st.sheds()
	stale := sv.clientCounts().stale
	cache := sv.st.cacheStats()
	planned := sv.st.planner.Stats()
	if err := sv.close(); err != nil {
		return nil, err
	}
	spanFile, err := tr.writeFile(o.outDir, o.w.name)
	if err != nil {
		return nil, err
	}

	r.loadgenMetrics(sat, paced, lags, genS)

	clientUs := metrics.Mean(sat.latMs) * 1e3
	dispUs, shardUs := d.meanUs(layerDispatcher), d.meanUs(layerShard)
	childUs := ratio(float64(d.nanos[layerBackend]+d.nanos[layerFallback])/1e3, float64(d.count[layerShard]))
	fronthaulSelf, routerSelf, schedSelf := clientUs-dispUs, dispUs-shardUs, shardUs-childUs
	solveUs := d.meanUs(layerBackend)

	r.add("fronthaul.self_us", "us", fronthaulSelf)
	r.add("fronthaul.bytes_per_decode", "count", ratio(float64(bytesAfter-bytesBefore), float64(sat.ok)))
	r.add("fronthaul.stale_handle_retries", "count", float64(stale))
	r.add("router.self_us", "us", routerSelf)
	r.add("router.sheds", "count", float64(sheds))
	r.add("router.shard_imbalance", "ratio", shardImbalance(perShard))
	r.add("sched.self_us", "us", schedSelf)
	r.add("sched.batch_size_mean", "count", ratio(float64(d.count[layerBackend]), float64(d.runs[layerBackend])))
	r.add("sched.slot_occupancy", "share", ps.SlotOccupancy)
	r.add("sched.fallback_share", "share", ratio(float64(ps.FallbackDispatches), float64(ps.Submitted)))
	r.add("sched.planner_classical_share", "share", ratio(float64(ps.PlannerClassical), float64(ps.Submitted)))
	r.add("sched.deadline_miss_share", "share", ps.MissRate())
	r.add("qos.reads_planned_mean", "count", meanReads(planned.ReadsPlanned, planned.Quantum))
	r.add("backend.solve_us", "us", solveUs)
	r.add("backend.fallback_solve_us", "us", d.meanUs(layerFallback))
	r.add("backend.busy_share", "share", float64(d.runNano[layerBackend])/float64(satDur)/shards)
	r.add("core.cache_hit_share", "share", cache.HitRate())
	r.add("core.cache_evictions", "count", float64(cache.Evictions))
	r.add("precoding.gamma_ratio", "ratio", gammaRatio(sat, paced))

	reads := o.w.na
	if planned.Quantum > 0 {
		reads = int(math.Round(meanReads(planned.ReadsPlanned, planned.Quantum)))
	}
	rows, err := runLadder(o.w, in, reads, o.phase(1.0/60))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.add(name, ladderUnit(name), rows[name])
	}
	r.add("ladder.reads", "count", float64(max(reads, 1)))
	r.add("ladder.sum_vs_e2e", "ratio", (fronthaulSelf+routerSelf+schedSelf+solveUs)/clientUs)
	r.add("trace.overhead_share", "share", 1-satRate(sat)/satRate(ref))

	r.headline = append(o.describe(in, fmt.Sprintf(
		"per-layer run: untraced sat %.1f s, then traced sat %.1f s + paced %.1f s with span wrappers at the dispatcher, shard and backend boundaries, then a single-caller ladder at %d reads",
		o.phase(0.2).Seconds(), satDur.Seconds(), o.phase(0.2).Seconds(), max(reads, 1))),
		fmt.Sprintf("%d spans recorded (%d kept) -> %s", tr.nextID.Load(), min(tr.kept.Load(), maxSpans), spanFile))
	return r, nil
}

// shardImbalance is the busiest shard's completions over the mean.
func shardImbalance(perShard []metrics.PoolStats) float64 {
	var sum, most float64
	for _, s := range perShard {
		sum += float64(s.Completed)
		most = math.Max(most, float64(s.Completed))
	}
	return ratio(most*float64(len(perShard)), sum)
}

// gammaRatio is the mean transmit power the precodes reached over plain
// channel inversion's (0 when the workload has no precodes).
func gammaRatio(recs ...*recorder) float64 {
	var g, zf float64
	for _, rec := range recs {
		g += rec.gamma
		zf += rec.zfGamma
	}
	if zf == 0 {
		return 0
	}
	return g / zf
}

// ladderUnit gives a ladder row's unit from its name.
func ladderUnit(name string) string {
	switch {
	case name == "anneal.ns_per_spin_update":
		return "ns"
	case name == "ladder.coverage":
		return "ratio"
	case name == "core.soft_overhead_share":
		return "share"
	case name == "fronthaul.allocs_per_roundtrip", name == "anneal.allocs_per_run":
		return "count"
	}
	return "us"
}
