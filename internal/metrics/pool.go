package metrics

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// PoolStats is a point-in-time snapshot of a QPU pool scheduler
// (internal/sched): the observability surface the C-RAN data center exports
// for pool sizing and deadline-compliance monitoring (the feasibility
// questions of Kasi et al., arXiv:2109.01465).
type PoolStats struct {
	// UptimeMicros is the scheduler's lifetime at snapshot time.
	UptimeMicros float64
	// QueueDepth is the number of problems waiting for a pool worker.
	QueueDepth int
	// Submitted counts all accepted problems; Completed those solved
	// (by pool or fallback); Failed those that returned an error.
	Submitted, Completed, Failed uint64
	// FallbackDispatches counts problems routed to the classical fallback,
	// whether because the projected pool wait would have blown their
	// deadline or because the QoS planner denied quantum dispatch — the
	// hybrid dispatch decisions.
	FallbackDispatches uint64
	// PlannerClassical counts the subset of FallbackDispatches that the QoS
	// planner denied outright (target unreachable on the annealer within the
	// deadline), as opposed to queue-pressure fallbacks.
	PlannerClassical uint64
	// Certified counts the Completed problems the certificate search answered
	// at admission: a budgeted sphere search seeded with the zero-forcing
	// decision finished, proving its answer ML, so no backend ran them.
	Certified uint64
	// DeadlineMisses counts problems whose result was delivered after their
	// absolute deadline.
	DeadlineMisses uint64
	// BatchRuns counts annealer runs that carried more than one problem;
	// BatchedProblems the problems carried by those runs.
	BatchRuns, BatchedProblems uint64
	// SoftSolved counts completed soft-output decodes (problems that
	// requested per-bit LLRs), whether solved by the pool or the fallback.
	SoftSolved uint64
	// LLRSaturations totals the LLR entries that hit the clamp across all
	// soft decodes — the soft-quality health metric: a rising saturation
	// share means the ensembles are collapsing to single candidates (or the
	// clamp is too tight) and the "soft" outputs are degenerating into hard
	// decisions.
	LLRSaturations uint64
	// StoppedEarly counts solves a stop rule ended before their planned reads:
	// the repeat rule on classical denials (backend.Problem.StopRepeats) and
	// the noise radius on shared annealer runs (backend.Problem.StopRadius),
	// both set at admission.
	StoppedEarly uint64
	// RadiusMisses counts, per problem class (modulation/users), the pool
	// solves that carried a StopRadius and ended with no read inside it — the
	// fitted decodes the annealer did not settle, a live reading of the
	// (1 − p0)^Na the planner's table claims to know. Nil when there are none.
	RadiusMisses map[string]uint64
	// SlotOccupancy is the mean fraction of available embedding slots
	// actually filled per batched annealer run (0 when no batch ran).
	SlotOccupancy float64
	// ChannelCache aggregates the compiled-channel cache counters over the
	// pool's distinct stores — one per decoder, however many annealers share
	// it: how often a decode reused an already-compiled channel (couplings,
	// embedding, prepared physical program) instead of recompiling it.
	ChannelCache ChannelCacheStats
	// Backends holds per-worker-backend accounting, pool order first, the
	// fallback (if any) last.
	Backends []BackendStats
}

// ChannelCacheStats counts compiled-channel cache traffic (internal/core's
// LRU of CompiledChannel artifacts, keyed by the channel fingerprint).
type ChannelCacheStats struct {
	// Hits counts lookups served from the cache, a lookup that waited on
	// another's compile of its window included; Misses lookups that compiled
	// (one per build); Evictions entries displaced by the LRU capacity bound
	// or by another channel under their key.
	Hits, Misses, Evictions uint64
}

// Add returns the entrywise sum of two cache snapshots.
func (c ChannelCacheStats) Add(o ChannelCacheStats) ChannelCacheStats {
	return ChannelCacheStats{
		Hits:      c.Hits + o.Hits,
		Misses:    c.Misses + o.Misses,
		Evictions: c.Evictions + o.Evictions,
	}
}

// Samples exports the three counters as one family named name, split by an
// event label (hit, miss, eviction).
func (c ChannelCacheStats) Samples(name, help string, labels ...Label) []Sample {
	event := func(e string) []Label { return append(labels[:len(labels):len(labels)], Label{"event", e}) }
	return []Sample{
		Counter(name, help, float64(c.Hits), event("hit")...),
		Counter(name, help, float64(c.Misses), event("miss")...),
		Counter(name, help, float64(c.Evictions), event("eviction")...),
	}
}

// HitRate returns Hits over total lookups (0 when the cache was never used).
func (c ChannelCacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// BackendStats is per-backend accounting within a pool.
type BackendStats struct {
	Name string
	// Solved counts problems this backend completed; Errors those it failed.
	Solved, Errors uint64
	// BusyMicros is cumulative wall time spent inside Solve.
	BusyMicros float64
	// Utilization is BusyMicros over the scheduler's lifetime (0..~1 per
	// worker bound to the backend; can exceed 1 when several workers share
	// one backend instance).
	Utilization float64
	// SpendMicroUSD is the cumulative spend charged against this backend's
	// device occupancy through its capability descriptor's cost model
	// (backend.Capabilities), in micro-dollars.
	SpendMicroUSD float64
	// EnergyMilliJ is the cumulative energy drawn at the descriptor's device
	// power over the same occupancy, in millijoules.
	EnergyMilliJ float64
	// ReadsPlanned totals, over this backend's solves, the reads each was
	// budgeted (anneals on the annealer, restarts on classical SA) and
	// ReadsRun the reads it ran: the two differ by what the repeat rule
	// saved. Counted per request, so a shared run counts once per member.
	ReadsPlanned, ReadsRun uint64
}

// MissRate returns the fraction of completed problems that missed their
// deadline (0 when nothing completed).
func (s PoolStats) MissRate() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.DeadlineMisses) / float64(s.Completed)
}

// Samples exports the snapshot as series, each carrying labels (a sharded
// deployment passes its shard label; backend series add a backend label).
// This is the one place a PoolStats field becomes an exported metric.
func (s PoolStats) Samples(labels ...Label) []Sample {
	out := []Sample{
		Gauge("quamax_uptime_seconds", "Seconds since the pool scheduler started.", s.UptimeMicros/1e6, labels...),
		Gauge("quamax_pool_queue_depth", "Problems waiting for a pool worker.", float64(s.QueueDepth), labels...),
		Gauge("quamax_pool_slot_occupancy", "Mean fraction of embedding slots filled per batched run.", s.SlotOccupancy, labels...),
		Counter("quamax_pool_submitted_total", "Problems accepted by the scheduler.", float64(s.Submitted), labels...),
		Counter("quamax_pool_completed_total", "Problems solved by pool or fallback.", float64(s.Completed), labels...),
		Counter("quamax_pool_failed_total", "Problems that returned an error.", float64(s.Failed), labels...),
		Counter("quamax_pool_fallback_total", "Problems routed to the classical fallback.", float64(s.FallbackDispatches), labels...),
		Counter("quamax_pool_planner_classical_total", "Fallbacks the QoS planner denied outright.", float64(s.PlannerClassical), labels...),
		Counter("quamax_pool_certified_total", "Problems a finished sphere search answered at admission (proved ML).", float64(s.Certified), labels...),
		Counter("quamax_pool_deadline_misses_total", "Results delivered after their deadline.", float64(s.DeadlineMisses), labels...),
		Counter("quamax_pool_batch_runs_total", "Annealer runs carrying more than one problem.", float64(s.BatchRuns), labels...),
		Counter("quamax_pool_batched_problems_total", "Problems carried by batched runs.", float64(s.BatchedProblems), labels...),
		Counter("quamax_pool_soft_solved_total", "Completed soft-output decodes.", float64(s.SoftSolved), labels...),
		Counter("quamax_pool_llr_saturations_total", "LLR entries that hit the clamp.", float64(s.LLRSaturations), labels...),
		Counter("quamax_pool_stopped_early_total", "Solves a stop rule ended before their planned reads.", float64(s.StoppedEarly), labels...),
	}
	for _, class := range slices.Sorted(maps.Keys(s.RadiusMisses)) {
		out = append(out, Counter("quamax_pool_radius_misses_total", "Pool solves that ended with no read inside their stop radius.",
			float64(s.RadiusMisses[class]), append(labels[:len(labels):len(labels)], Label{"class", class})...))
	}
	out = append(out, s.ChannelCache.Samples("quamax_channel_cache_total", "Compiled-channel cache traffic.", labels...)...)
	for _, be := range s.Backends {
		l := append(labels[:len(labels):len(labels)], Label{"backend", be.Name})
		out = append(out,
			Counter("quamax_backend_solved_total", "Problems solved per backend.", float64(be.Solved), l...),
			Counter("quamax_backend_errors_total", "Problems failed per backend.", float64(be.Errors), l...),
			Counter("quamax_backend_busy_micros_total", "Cumulative Solve wall time per backend.", be.BusyMicros, l...),
			Counter("quamax_backend_spend_microusd_total", "Cumulative solve spend per backend in micro-USD.", be.SpendMicroUSD, l...),
			Counter("quamax_backend_energy_millij_total", "Cumulative solve energy per backend in millijoules.", be.EnergyMilliJ, l...),
			Counter("quamax_backend_reads_planned_total", "Reads (anneals, SA restarts) budgeted per backend.", float64(be.ReadsPlanned), l...),
			Counter("quamax_backend_reads_run_total", "Reads (anneals, SA restarts) run per backend.", float64(be.ReadsRun), l...),
			Gauge("quamax_backend_utilization", "Busy time over scheduler lifetime per backend.", be.Utilization, l...))
	}
	return out
}

// Merge returns the aggregate of two snapshots — the view a multi-pool
// deployment (one scheduler per shard or per site) reports upward. Counters
// and queue depth add; UptimeMicros takes the longer lifetime; SlotOccupancy
// re-weights by batched runs; backend entries merge by name, summing
// Solved/Errors/BusyMicros and adding utilizations (each addend is busy time
// over its own scheduler's lifetime, so the sum keeps the per-worker 0..~1
// reading when shards report over equal windows).
func (s PoolStats) Merge(o PoolStats) PoolStats {
	out := s
	out.UptimeMicros = math.Max(s.UptimeMicros, o.UptimeMicros)
	out.QueueDepth += o.QueueDepth
	out.Submitted += o.Submitted
	out.Completed += o.Completed
	out.Failed += o.Failed
	out.FallbackDispatches += o.FallbackDispatches
	out.PlannerClassical += o.PlannerClassical
	out.Certified += o.Certified
	out.DeadlineMisses += o.DeadlineMisses
	out.BatchRuns += o.BatchRuns
	out.BatchedProblems += o.BatchedProblems
	out.SoftSolved += o.SoftSolved
	out.LLRSaturations += o.LLRSaturations
	out.StoppedEarly += o.StoppedEarly
	out.RadiusMisses = nil
	for _, m := range []map[string]uint64{s.RadiusMisses, o.RadiusMisses} {
		for class, n := range m {
			if out.RadiusMisses == nil {
				out.RadiusMisses = make(map[string]uint64)
			}
			out.RadiusMisses[class] += n
		}
	}
	if total := out.BatchRuns; total > 0 {
		out.SlotOccupancy = (s.SlotOccupancy*float64(s.BatchRuns) +
			o.SlotOccupancy*float64(o.BatchRuns)) / float64(total)
	} else {
		out.SlotOccupancy = 0
	}
	out.ChannelCache = s.ChannelCache.Add(o.ChannelCache)
	out.Backends = nil
	index := make(map[string]int)
	for _, lists := range [][]BackendStats{s.Backends, o.Backends} {
		for _, be := range lists {
			be.SpendMicroUSD = finiteOrZero(be.SpendMicroUSD)
			be.EnergyMilliJ = finiteOrZero(be.EnergyMilliJ)
			i, ok := index[be.Name]
			if !ok {
				index[be.Name] = len(out.Backends)
				out.Backends = append(out.Backends, be)
				continue
			}
			out.Backends[i].Solved += be.Solved
			out.Backends[i].Errors += be.Errors
			out.Backends[i].BusyMicros += be.BusyMicros
			out.Backends[i].Utilization += be.Utilization
			out.Backends[i].SpendMicroUSD += be.SpendMicroUSD
			out.Backends[i].EnergyMilliJ += be.EnergyMilliJ
			out.Backends[i].ReadsPlanned += be.ReadsPlanned
			out.Backends[i].ReadsRun += be.ReadsRun
		}
	}
	return out
}

// String renders a compact multi-line report suitable for logs.
func (s PoolStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pool: queue=%d submitted=%d completed=%d failed=%d fallback=%d (planner=%d) miss=%d (%.1f%%)",
		s.QueueDepth, s.Submitted, s.Completed, s.Failed,
		s.FallbackDispatches, s.PlannerClassical, s.DeadlineMisses, 100*s.MissRate())
	if s.UptimeMicros > 0 {
		fmt.Fprintf(&b, " uptime=%.1fs", s.UptimeMicros/1e6)
	}
	if s.Certified > 0 {
		fmt.Fprintf(&b, "\npool: certified at admission=%d", s.Certified)
	}
	if s.BatchRuns > 0 {
		fmt.Fprintf(&b, "\npool: batched runs=%d problems=%d slot-occupancy=%.0f%%",
			s.BatchRuns, s.BatchedProblems, 100*s.SlotOccupancy)
	}
	if s.SoftSolved > 0 || s.LLRSaturations > 0 {
		fmt.Fprintf(&b, "\npool: soft decodes=%d llr-saturations=%d", s.SoftSolved, s.LLRSaturations)
		if s.SoftSolved > 0 {
			fmt.Fprintf(&b, " (%.1f/decode)", float64(s.LLRSaturations)/float64(s.SoftSolved))
		}
	}
	if s.StoppedEarly > 0 {
		fmt.Fprintf(&b, "\npool: stopped early=%d", s.StoppedEarly)
	}
	for _, class := range slices.Sorted(maps.Keys(s.RadiusMisses)) {
		fmt.Fprintf(&b, "\npool: radius misses %s=%d", class, s.RadiusMisses[class])
	}
	if c := s.ChannelCache; c.Hits+c.Misses+c.Evictions > 0 {
		fmt.Fprintf(&b, "\npool: channel cache hits=%d misses=%d evictions=%d (%.0f%% hit)",
			c.Hits, c.Misses, c.Evictions, 100*c.HitRate())
	}
	for _, be := range s.Backends {
		fmt.Fprintf(&b, "\npool: backend %-10s solved=%d errors=%d busy=%.0fµs util=%.1f%%",
			be.Name, be.Solved, be.Errors, be.BusyMicros, 100*be.Utilization)
		if spend, energy := finiteOrZero(be.SpendMicroUSD), finiteOrZero(be.EnergyMilliJ); spend > 0 || energy > 0 {
			fmt.Fprintf(&b, " spend=%.1fµUSD energy=%.1fmJ", spend, energy)
		}
		if be.ReadsPlanned > 0 {
			fmt.Fprintf(&b, " reads=%d/%d planned", be.ReadsRun, be.ReadsPlanned)
		}
	}
	return b.String()
}

// finiteOrZero treats a non-finite accounting value (a failed measurement)
// as a missing one, so spend/energy aggregates never absorb NaN or ±Inf.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
