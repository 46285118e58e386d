// Package sched implements the QPU pool scheduler of the C-RAN data center:
// the component that turns one simulated annealer behind the fronthaul into a
// shared pool of pluggable solver backends (paper §1, §7; ROADMAP "sharding,
// batching, async, multi-backend").
//
// The scheduler owns N backend workers fed from one FIFO queue, plus an
// optional classical fallback that solves on the submitter's goroutine.
// Every request lives one lifecycle, each step written once:
//
//   - Entry. Dispatch reads the clock once and builds the request's job:
//     context, problem, trace and ONE absolute deadline, entry + d. Miss
//     counting, trace slack and the SLO burn feed measure against it on both
//     paths, so e2e + slack == deadline on every trace and the scheduler
//     counts the misses the router sheds on.
//
//   - Admit · certify. Outside the lock, admit returns the request's one
//     decision — its route, the problem to run (a planned copy or the caller's
//     own), what the certificate search found and the pool's price — from
//     three rules in order. First, with a Planner configured, a problem
//     carrying a target BER is read once through its window's sphere program
//     (qos.EstimateInto on core.Window.Sphere, factored once per window): the
//     SNR estimate, the zero-forcing decision and its residual ‖y − H·v_ZF‖².
//     A Schnorr–Euchner search of at most qos.CertifyNodes tree nodes starts
//     from that decision as its incumbent leaf, so its radius is the
//     zero-forcing metric and it keeps only strictly closer leaves. A search
//     that finishes inside the budget has ruled out every leaf closer to y
//     than the one it holds: that leaf is an ML answer, and no annealer read
//     can beat it. For a soft request the search is the clipped single-tree
//     max-log search (Studer, Burg & Bölcskei): it also keeps, per bit, the
//     nearest leaf with that bit flipped, out to where the request's LLR
//     clamps, so a finished search holds the exact clamped max-log LLRs. The
//     request is answered there — Backend "certificate", no reads, no queue
//     slot, no backend and no planner call — the hybrid classical–quantum
//     structure of Kim et al. (arXiv:2010.00682) applied per request. A search
//     that runs out of nodes leaves the request to the planner.
//
//   - Admit · plan. A problem carrying a target BER that the certificate did
//     not answer gets its anneal budget — reads, schedule, forward/reverse
//     mode — sized from the fitted TTS model (internal/qos) to meet the target
//     within the deadline, so easy requests stop over-provisioning reads (Kasi
//     et al., arXiv:2109.01465); or a denial, when the model says the
//     classical fallback is the better bet.
//
//   - Admit · price. The rest is priced on the pool's health-gated serving
//     set, read once: its best-case service time and its cheapest spend. A
//     cost divert (Config.CostAware: spend minimization subject to the QoS
//     constraints, priced through the backends' capability descriptors,
//     arXiv:2109.01465) sends a classically safe request to a strictly cheaper
//     fallback.
//
//   - Apply. Dispatch takes the lock for the one rule that reads the queue —
//     a queue route whose projected wait plus service time passes the
//     deadline falls back instead — and then takes one of three exits: a
//     certified request is answered at once; a planner denial, a cost divert
//     and a projected deadline miss leave through one fallback exit and
//     solve at once; everything else joins the queue.
//
//   - Queue · gather · solve. A worker pops the head; when its backend can
//     co-schedule problems (backend.BatchBackend — the annealer, via
//     disjoint Chimera embedding slots) it gathers batch-compatible queued
//     jobs, same coherence window first, into one device run, amortizing
//     Na·(Ta+Tp) across requests (§4 parallelization, across the pool). A
//     problem lending answer storage (backend.Problem.Answer) is solved
//     lending the job's own instead, and Dispatch copies the answer over
//     once the job is done, so a solve it gave up on never writes the
//     caller's storage.
//
//   - Finish. Every job — certified, solved, failed, panicked or cancelled
//     while queued, on any path — ends in one finish step under the lock:
//     the only code that moves Completed/Failed/misses, the per-backend
//     solved/error counters, the health and burn feeds and the trace. Once
//     drained, Submitted == Completed + Failed == traces by construction, a
//     request a backend ran fed health and burn exactly once, and a
//     certified one fed burn once and no backend counter or health.
//
// Close stops admission, lets queued and in-flight work (pool and fallback)
// finish, and then stops the workers, so a serving process can shut down
// without dropping accepted requests.
//
// Pool observability (queue depth, per-backend utilization, deadline-miss
// rate, batched-slot occupancy, certified answers) is exported as
// metrics.PoolStats.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/health"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/telemetry"
)

// micros converts a duration to the telemetry plane's unit.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ErrClosed is returned by Dispatch after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// PanicError is what a request gets when the backend solving it panicked.
// The panic is contained to that request (every job of the run it rode in):
// it counts as Failed, as an error on that backend and as a failed outcome
// in the health plane, and the goroutine that ran the solve survives to
// serve the next request.
type PanicError struct {
	Backend string // descriptor name of the backend that panicked
	Value   any    // the recovered panic value
	Stack   []byte // the panicking goroutine's stack, for the operator's log
}

// Error names the backend and the panic value; the stack is not included.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: backend %s panicked in solve: %v", e.Backend, e.Value)
}

// containPanic, deferred around a call into a backend, turns a panic there
// into a *PanicError in *err.
func containPanic(be backend.Backend, err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Backend: be.Describe().Name, Value: v, Stack: debug.Stack()}
	}
}

// solveContained is be.Solve with a panic converted into an error.
func solveContained(ctx context.Context, be backend.Backend, p *backend.Problem, src *rng.Source) (res *backend.Result, err error) {
	defer containPanic(be, &err)
	return be.Solve(ctx, p, src)
}

// DefaultCostEasyReads is the planned-read budget below which a decode
// counts as an easy SNR class for cost-aware dispatch: at these budgets the
// fitted TTS tables put the classical fallback at or past the annealer's
// success probability, so routing for price cannot cost the BER target.
const DefaultCostEasyReads = 16

// Config assembles a Scheduler.
type Config struct {
	// Pool lists the worker backends; one worker goroutine per entry. The
	// same Backend instance may appear more than once (it must then be safe
	// for concurrent Solve calls).
	Pool []backend.Backend
	// Fallback, when set, receives problems whose deadline the pool cannot
	// meet, that the Planner denies or that CostAware diverts. It runs on
	// the submitting goroutine, outside the queue.
	Fallback backend.Backend
	// DefaultDeadline applies to problems submitted without a deadline
	// (0 = no deadline: never fall back, never count misses).
	DefaultDeadline time.Duration
	// Planner, when set, sizes each target-BER-carrying problem's anneal
	// budget at admission and may deny quantum dispatch, routing to Fallback
	// when configured; without a Fallback, deadline-driven denials run the
	// planner's clamped best-effort budget and other denials run the static
	// configuration. Problems without a target BER pass through untouched.
	Planner *qos.Planner
	// DefaultTargetBER applies to problems submitted without a target BER
	// (0 = none: the planner is only consulted for explicit QoS requests).
	DefaultTargetBER float64
	// DisableBatch turns off cross-request batching on BatchBackends.
	DisableBatch bool
	// CostAware enables spend-minimizing dispatch: a problem the Fallback
	// can solve strictly cheaper (per its Capabilities cost model) diverts
	// there at admission — but only when the fallback's own latency estimate
	// meets the deadline and the decode is classically safe: either it
	// carries no BER target, or the QoS planner sized an easy budget
	// (planned reads ≤ DefaultCostEasyReads). Hard SNR classes keep their QPU
	// dispatch regardless of price — the TTS table says those reads pay.
	CostAware bool
	// Telemetry, when set, receives one trace per terminal request (spans
	// for admit/plan/queue/gather/solve/respond/e2e plus deadline slack),
	// finished at the same point the Completed/Failed counters move so the
	// span count reconciles exactly with Stats. Nil disables tracing with
	// no overhead on the dispatch path.
	Telemetry *telemetry.Recorder
	// Health, when set, gates dispatch on the solver-health plane: every
	// completed solve's quality sample and outcome feed the tracker with
	// backend attribution, workers stop pulling regular work for backends
	// the tracker quarantines (unless the whole pool is quarantined — a
	// degraded answer beats none), and quarantined backends receive
	// periodic canary probes (fixed known-ground-state instances) to earn
	// re-admission; all workers probe with the same instance, its generator
	// stream derived from Seed. Deadline projection and pool pricing skip
	// quarantined members. Nil disables health gating entirely.
	Health *health.Tracker
	// Burn, when set, receives one (deadline-miss, BER-risk) observation
	// per terminal request under this scheduler's ShardID — the per-shard
	// SLO burn-rate feed the router folds into its shed decision. A
	// BER-risk event is a soft decode a backend answered with saturated LLRs
	// or a target-carrying request the planner denied to classical; a
	// certified soft answer's clamped LLRs are exact and never count.
	Burn *health.BurnTracker
	// ShardID stamps every trace this scheduler emits when one Recorder is
	// shared across a sharded router, attributing queue/gather spans to the
	// pool that served them. Zero for a single-pool deployment.
	ShardID int
	// Seed drives all solver randomness (per-worker independent streams).
	Seed int64
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Scheduler is a deadline-aware FIFO pool scheduler. It is safe for
// concurrent Dispatch calls.
type Scheduler struct {
	cfg       Config
	now       func() time.Time
	start     time.Time
	canary    *health.Canary // set iff cfg.Health is
	poolNames []string       // descriptor names, pool order

	mu             sync.Mutex
	cond           *sync.Cond
	queue          []*job
	free           []*job  // finished queued jobs, for Dispatch to reuse
	queuedMicros   float64 // Σ estimate of queued jobs
	inflightMicros float64 // Σ estimate of jobs being solved right now
	closed         bool
	srcMu          sync.Mutex
	src            *rng.Source

	wg   sync.WaitGroup // pool workers
	fbWg sync.WaitGroup // in-flight fallback solves

	// stats holds the counters Stats reports (guarded by mu), counted in
	// place; Stats fills in only the derived fields.
	stats        metrics.PoolStats
	occupancySum float64 // Σ filled/available slots over batched runs
	// radiusMisses counts, per problem class, the pool solves that ended with
	// no read inside their StopRadius: the annealer did not settle them.
	radiusMisses map[problemClass]uint64
	// counters holds one entry per pool worker, pool order, then the
	// fallback's when it is not also a pool member: the list Stats reports.
	counters         []*backendCounters
	fallbackCounters *backendCounters // shared with a pool entry, or the last
	// caches holds one member per compiled-channel store behind counters'
	// backends: the annealers of one shard share their decoder's.
	caches []channelCacheStatser
}

// channelCacheStatser is a backend that reports a compiled-channel store.
type channelCacheStatser interface {
	ChannelCacheStats() metrics.ChannelCacheStats
}

// problemClass is telemetry.Class before it is a string: a counter key that
// costs no allocation per solve.
type problemClass struct {
	mod   modulation.Modulation
	users int
}

// backendCounters is one backend as the scheduler sees it: its descriptor
// (stable for its lifetime, so resolved once) and what it has served, counted
// into the BackendStats that Stats reports (Stats derives Utilization).
type backendCounters struct {
	metrics.BackendStats
	be   backend.Backend
	caps *backend.Capabilities
}

// charge accounts one device run against the backend: its occupancy, priced
// and powered through the capability descriptor. It is per run, not per
// request — a shared run has one occupancy and one fixed solve charge
// however many jobs ride it. The descriptor's accessors guard non-finite
// occupancy, so the spend and energy counters never absorb NaN.
func (c *backendCounters) charge(busyMicros float64) {
	c.BusyMicros += busyMicros
	c.SpendMicroUSD += c.caps.SpendMicroUSD(busyMicros)
	c.EnergyMilliJ += c.caps.EnergyMilliJ(busyMicros)
}

// job is one request from Dispatch entry to finish. Dispatch holds it by
// value, and copies it into a job from the free list when it enters the
// queue; Dispatch and the worker then each hold it until they release it.
// A queued job owns the storage its solve answers in (ans, kept from one use
// of the job to the next): when p lends an Answer, the backend solves lent,
// a copy of p lending ans instead, and await copies the answer over into
// p's Answer once the job is done. So a solve Dispatch gave up on writes
// only storage of the job's.
type job struct {
	ctx      context.Context
	p        *backend.Problem
	est      float64       // pool service-time estimate (µs)
	entry    time.Time     // Dispatch entry: the deadline's origin and the trace's t0
	deadline time.Time     // entry + d, the one deadline of both paths; zero = none
	route    route         // the decision's, after Dispatch's deadline rule
	done     chan struct{} // queued jobs only (1-buffered): finish sends once res/err are set
	holds    int           // queued jobs only, under s.mu: sides not yet through with it
	res      *backend.Result
	err      error
	ans      backend.Result  // queued jobs only: the answer storage lent lends
	lent     backend.Problem // queued jobs only, when p lends an Answer: p lending ans instead

	tr         telemetry.Trace // filled only when Config.Telemetry is configured
	admittedAt time.Time       // end of admission, start of the queue span (traced jobs only)
}

// New starts the pool workers and returns the scheduler.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Pool) == 0 {
		return nil, errors.New("sched: empty backend pool")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Scheduler{
		cfg:   cfg,
		now:   now,
		start: now(),
		src:   rng.New(cfg.Seed),

		radiusMisses: make(map[problemClass]uint64),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, be := range cfg.Pool {
		c := counting(be)
		s.counters = append(s.counters, c)
		s.poolNames = append(s.poolNames, c.Name)
	}
	if cfg.Health != nil {
		canary, err := health.NewCanary(cfg.Seed ^ 0x6ca17a5e)
		if err != nil {
			return nil, fmt.Errorf("sched: building canary instance: %w", err)
		}
		s.canary = canary
	}
	if cfg.Fallback != nil {
		// A fallback that also serves in the pool shares its counters, so
		// stats report it once.
		for i, be := range cfg.Pool {
			if be == cfg.Fallback {
				s.fallbackCounters = s.counters[i]
				break
			}
		}
		if s.fallbackCounters == nil {
			s.fallbackCounters = counting(cfg.Fallback)
			s.counters = append(s.counters, s.fallbackCounters)
		}
	}
	// A compiled-channel store counts once however many backends share it:
	// an annealer names it by its decoder, any other backend by itself.
	stores := make(map[any]bool)
	for _, c := range s.counters {
		cs, ok := c.be.(channelCacheStatser)
		if !ok {
			continue
		}
		var store any = c.be
		if a, ok := c.be.(interface{ Decoder() *core.Decoder }); ok {
			store = a.Decoder()
		}
		if !stores[store] {
			stores[store] = true
			s.caches = append(s.caches, cs)
		}
	}
	for i := range cfg.Pool {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// splitSource hands out an independent random stream.
func (s *Scheduler) splitSource() *rng.Source {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	return s.src.Split()
}

// counting returns fresh counters for be, resolving its capability
// descriptor once — an empty one for an implementation that declares none,
// so dispatch never dereferences nil.
func counting(be backend.Backend) *backendCounters {
	caps := be.Describe()
	if caps == nil {
		caps = &backend.Capabilities{}
	}
	return &backendCounters{BackendStats: metrics.BackendStats{Name: caps.Name}, be: be, caps: caps}
}

// Dispatch submits one problem and blocks until it is solved, the context is
// canceled, or the scheduler is closed. deadline ≤ 0 selects the configured
// default. It implements fronthaul.Dispatcher.
func (s *Scheduler) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	entry := s.now()
	d := s.admit(p, deadline)
	j := job{ctx: ctx, p: d.p, est: d.est, entry: entry}
	if deadline > 0 {
		j.deadline = entry.Add(deadline)
	}
	if rec := s.cfg.Telemetry; rec != nil {
		// Two clock reads bracket admit (certificate, plan and pricing); the
		// trace record itself is built after the second read so its cost
		// lands in admit, not plan. (The planner feeds the StagePlan
		// histogram itself from inside Plan; this is the scheduler-side
		// measurement carried on the trace.)
		planEnd := s.now()
		j.tr = telemetry.Trace{
			Class:          telemetry.Class(d.p.Mod.String(), d.p.Users()),
			Soft:           d.p.Soft,
			Shard:          s.cfg.ShardID,
			StartMicros:    rec.SinceStartMicros(entry),
			DeadlineMicros: max(0, micros(deadline)), // 0 = none
			CertifyNodes:   d.nodes,
		}
		j.tr.Stages[telemetry.StagePlan] = micros(planEnd.Sub(entry))
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.stats.Submitted++
	if d.route == routeQueue && deadline > 0 && s.cfg.Fallback != nil &&
		(s.queuedMicros+s.inflightMicros)/float64(s.servingWorkers())+d.est > micros(deadline) {
		// Hybrid dispatch: the projected pool completion time blows the
		// deadline, so route to the classical fallback now instead of
		// queueing. The projection charges every queued job a full solver
		// run — it deliberately ignores batch consolidation (which depends
		// on slot capacities unknown until embedding time), so it is an
		// upper bound: under same-N bursts the pool finishes earlier than
		// projected and some requests fall back that could have been
		// served. Deadline safety is preferred over pool utilization here; a
		// batch-aware estimator can tighten this later.
		d.route = routeDeadlineProjected
	}
	j.route = d.route
	if s.cfg.Telemetry != nil {
		// The admission span is entry-to-decision wall time minus the
		// planner's share (already carried as StagePlan).
		j.admittedAt = s.now()
		j.tr.Stages[telemetry.StageAdmit] = max(0, micros(j.admittedAt.Sub(entry))-j.tr.Stages[telemetry.StagePlan])
	}
	var q *job
	switch d.route {
	case routeCertified:
		// Answered at admission: no queue slot, no backend, no planner call.
		s.stats.Certified++
		s.finish(&j, nil, d.proved, nil, time.Time{}, time.Time{}, 0)
		s.mu.Unlock()
		return d.proved, nil
	case routeQueue:
		q = s.queuedJobLocked(&j)
		s.queue = append(s.queue, q)
		s.queuedMicros += q.est
		s.cond.Signal()
	default:
		if d.route == routePlannerDenied {
			s.stats.PlannerClassical++
		}
		s.stats.FallbackDispatches++
		// Registered under mu, before the closed flag can flip: Close waits
		// for this solve too.
		s.fbWg.Add(1)
	}
	s.mu.Unlock()
	if p.Handoff != nil {
		p.Handoff() // this goroutine waits for its job, or solves on the fallback
	}
	if q != nil {
		return s.await(q)
	}
	return s.runFallback(&j)
}

// observeSolve replays one terminal solve into the solver-health plane with
// backend attribution: the outcome always, and the anneal-quality sample on
// success (the decoder-level quality stream has no backend identity, so the
// scheduler is the attribution point). No-op without Config.Health.
func (s *Scheduler) observeSolve(name string, p *backend.Problem, res *backend.Result, failed bool) {
	h := s.cfg.Health
	if h == nil {
		return
	}
	h.ObserveOutcome(name, failed)
	if failed || res == nil {
		return
	}
	mod := p.Mod.String()
	if p.Lattice {
		mod = "VP " + mod // a precode shares no reference with uplink decodes
	}
	h.ObserveQuality(name, telemetry.Class(mod, p.Users()), telemetry.QualityObservation{
		BestEnergy:   res.Energy,
		Reads:        res.Reads,
		ChainBreaks:  res.BrokenChains,
		LLRBits:      len(res.LLRs),
		LLRSaturated: res.LLRSaturated,
	})
}

// runFallback solves a fallback-routed job on the fallback backend, on the
// submitter's goroutine, so the fallback answers in the caller's lent
// Answer, if any, directly — or its own Result is copied there.
func (s *Scheduler) runFallback(j *job) (*backend.Result, error) {
	defer s.fbWg.Done()
	started := s.now()
	res, err := solveContained(j.ctx, s.cfg.Fallback, j.p, s.splitSource())
	solveEnd := s.now()
	if err == nil && j.p.Answer != nil {
		res = j.p.Answer.Assign(res)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.fallbackCounters.charge(micros(solveEnd.Sub(started)))
	if err != nil {
		res = nil
	}
	s.finish(j, s.fallbackCounters, res, err, started, solveEnd, 0)
	return res, err
}

// finish is the one terminal step of every request, on either path, called
// under s.mu: the only code that moves Completed/Failed/misses and the soft
// counters, the serving backend's solved/error counters, the health and burn
// feeds and the trace — all at one instant, so they reconcile exactly — and
// that answers a queued job's submitter. ctr is the backend that ran the
// solve (the caller has charged it the run's occupancy); a nil ctr means none
// did. Then either the certificate answered at admission (err is nil): the
// request is Completed and feeds the burn feed, but no backend counter or
// health observation moves; or the submitter gave up while the job was
// queued: the request is Failed and traced with no backend error and no
// health or burn observation — nothing was learned about a solver or served
// against the SLO. res is nil iff err is not. batched is the number of jobs
// in the run (0 off the pool).
func (s *Scheduler) finish(j *job, ctr *backendCounters, res *backend.Result, err error, solveStart, solveEnd time.Time, batched int) {
	end := s.now()
	missed := !j.deadline.IsZero() && end.After(j.deadline)
	if err != nil {
		s.stats.Failed++
	} else {
		s.stats.Completed++
		if missed {
			s.stats.DeadlineMisses++
		}
		if j.p.Soft {
			s.stats.SoftSolved++
			s.stats.LLRSaturations += uint64(res.LLRSaturated)
		}
	}
	if ctr != nil {
		if err != nil {
			ctr.Errors++
		} else {
			ctr.Solved++
			// What the stop rules made of this request's budget.
			ctr.ReadsPlanned += uint64(res.ReadsPlanned)
			ctr.ReadsRun += uint64(res.Reads)
			if res.Reads < res.ReadsPlanned {
				s.stats.StoppedEarly++
			}
			if j.p.StopRadius > 0 && batched > 0 && res.Energy > j.p.StopRadius {
				s.radiusMisses[problemClass{j.p.Mod, j.p.Users()}]++
			}
		}
		s.observeSolve(ctr.caps.Name, j.p, res, err != nil)
	}
	if ctr != nil || err == nil {
		// The shard's SLO burn feed (a nil tracker ignores it). A failed
		// request blew its SLO whatever the clock says; BER risk is a target
		// the planner denied to classical, or saturated soft output from a
		// solver. A certified answer's clamped LLRs are proved, not risked.
		s.cfg.Burn.Observe(s.cfg.ShardID, missed || err != nil,
			j.route == routePlannerDenied || (ctr != nil && err == nil && j.p.Soft && res.LLRSaturated > 0))
	}
	if tr := &j.tr; s.cfg.Telemetry != nil {
		tr.Failed = err != nil
		tr.Route = j.route.String()
		if ctr != nil {
			tr.Backend = ctr.caps.Name
			tr.Batched = batched
			tr.Stages[telemetry.StageSolve] = micros(solveEnd.Sub(solveStart))
			tr.Stages[telemetry.StageRespond] = micros(end.Sub(solveEnd))
		}
		if res != nil {
			if res.Backend != "" {
				tr.Backend = res.Backend
			}
			tr.CacheHit = res.CacheHit
			tr.Stages[telemetry.StageCompile] = res.CompileMicros
			tr.ReadsPlanned, tr.Reads = res.ReadsPlanned, res.Reads
		}
		tr.Stages[telemetry.StageE2E] = micros(end.Sub(j.entry))
		if !j.deadline.IsZero() {
			tr.SlackMicros = micros(j.deadline.Sub(end))
		}
		s.cfg.Telemetry.FinishTrace(*tr)
	}
	if j.done != nil {
		s.inflightMicros -= j.est
		j.res, j.err = res, err
		j.done <- struct{}{}
	}
}

// Close stops admission, drains queued and in-flight work (pool and
// fallback), and stops the workers. Safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.fbWg.Wait()
	return nil
}

// Stats snapshots the pool counters, filling in the derived fields.
func (s *Scheduler) Stats() metrics.PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.UptimeMicros = micros(s.now().Sub(s.start))
	st.QueueDepth = len(s.queue)
	if st.BatchRuns > 0 {
		st.SlotOccupancy = s.occupancySum / float64(st.BatchRuns)
	}
	if len(s.radiusMisses) > 0 {
		st.RadiusMisses = make(map[string]uint64, len(s.radiusMisses))
	}
	for c, n := range s.radiusMisses {
		st.RadiusMisses[telemetry.Class(c.mod.String(), c.users)] = n
	}
	for _, cs := range s.caches {
		st.ChannelCache = st.ChannelCache.Add(cs.ChannelCacheStats())
	}
	for _, c := range s.counters {
		bs := c.BackendStats
		if st.UptimeMicros > 0 {
			bs.Utilization = bs.BusyMicros / st.UptimeMicros
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}

// String describes the pool configuration.
func (s *Scheduler) String() string {
	fb := "none"
	if s.fallbackCounters != nil {
		fb = s.fallbackCounters.caps.Name
	}
	return fmt.Sprintf("sched: pool=%v fallback=%s default-deadline=%s batch=%t planner=%t cost-aware=%t",
		s.poolNames, fb, s.cfg.DefaultDeadline, !s.cfg.DisableBatch, s.cfg.Planner != nil, s.cfg.CostAware)
}
