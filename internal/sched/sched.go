// Package sched implements the QPU pool scheduler of the C-RAN data center:
// the component that turns one simulated annealer behind the fronthaul into a
// shared pool of pluggable solver backends (paper §1, §7; ROADMAP "sharding,
// batching, async, multi-backend").
//
// The scheduler owns N backend workers fed from one FIFO queue of decode
// problems. Three mechanisms shape dispatch:
//
//   - Batching. When a worker's backend can co-schedule problems
//     (backend.BatchBackend — the annealer, via disjoint Chimera embedding
//     slots), the worker drains additional batch-compatible problems from the
//     queue and solves them in one device run, amortizing Na·(Ta+Tp) across
//     requests (§4 parallelization, applied across the pool).
//
//   - Deadline-aware hybrid dispatch. Each problem carries a deadline (e.g.
//     the frame-processing budget of the air interface). At admission the
//     scheduler projects queue wait + service time from the backends' latency
//     estimates; when the pool cannot meet the deadline, the problem routes
//     immediately to the classical fallback backend instead of joining the
//     queue — the hybrid classical–quantum structure of Kim et al.
//     (arXiv:2010.00682).
//
//   - QoS planning. When a Planner is configured, each problem carrying a
//     target BER gets its anneal budget sized at admission from the fitted
//     TTS model (internal/qos): the planner picks the read count, anneal
//     schedule and forward/reverse mode that meet the target within the
//     deadline, or denies quantum dispatch outright when the model says the
//     classical fallback is the better bet. The planned budget replaces the
//     static run configuration, so easy requests stop over-provisioning
//     reads (Kasi et al., arXiv:2109.01465) and queue waits shrink with
//     problem difficulty.
//
//   - Cost-aware dispatch. With Config.CostAware set, each admission also
//     consults the backends' capability descriptors (backend.Capabilities):
//     when the classical fallback solves a decode strictly cheaper than the
//     cheapest pool backend, meets the deadline on its own, and the decode
//     is classically safe (no BER target, or a planner-sized easy budget),
//     it diverts there — spend minimization subject to the QoS constraints,
//     the deployment economics of Kasi et al. (arXiv:2109.01465). Spend and
//     energy are accounted per backend through the same descriptors.
//
//   - Graceful drain. Close stops admission, lets queued and in-flight work
//     finish, and then stops the workers, so a serving process can shut down
//     without dropping accepted requests.
//
// Pool observability (queue depth, per-backend utilization, deadline-miss
// rate, batched-slot occupancy) is exported as metrics.PoolStats.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"quamax/internal/backend"
	"quamax/internal/health"
	"quamax/internal/metrics"
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
	// meet. It runs on the submitting goroutine, outside the queue.
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
	// (planned reads ≤ CostEasyReads). Hard SNR classes keep their QPU
	// dispatch regardless of price — the TTS table says those reads pay.
	CostAware bool
	// CostEasyReads bounds the planned anneal-read budget a target-carrying
	// decode may have and still divert for cost (0 = DefaultCostEasyReads).
	CostEasyReads int
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
	// re-admission. Deadline projection and pool estimates skip
	// quarantined members. Nil disables health gating entirely.
	Health *health.Tracker
	// CanarySeed fixes the canary instance's generator stream (0 derives
	// one from Seed). All workers probe with the same instance.
	CanarySeed int64
	// Burn, when set, receives one (deadline-miss, BER-risk) observation
	// per terminal request under this scheduler's ShardID — the per-shard
	// SLO burn-rate feed the router folds into its shed decision. A
	// BER-risk event is a soft decode whose LLRs saturated or a
	// target-carrying request the planner denied to classical.
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
	fallback  backend.Backend
	canary    *health.Canary // set iff cfg.Health is
	poolNames []string       // descriptor names, pool order

	mu             sync.Mutex
	cond           *sync.Cond
	queue          []*job
	queuedMicros   float64 // Σ estimate of queued jobs
	inflightMicros float64 // Σ estimate of jobs being solved right now
	closed         bool
	srcMu          sync.Mutex
	src            *rng.Source
	snr            snrCache // per-channel planning state (applyPlan)

	wg   sync.WaitGroup // pool workers
	fbWg sync.WaitGroup // in-flight fallback solves

	// counters (guarded by mu)
	submitted, completed, failed uint64
	fallbackDispatches, misses   uint64
	plannerClassical             uint64
	batchRuns, batchedProblems   uint64
	softSolved, llrSaturations   uint64
	occupancySum                 float64
	perBackend                   []*backendCounters
	fallbackCounters             *backendCounters
}

type backendCounters struct {
	caps          *backend.Capabilities
	name          string
	solved        uint64
	errors        uint64
	busyMicros    float64
	spendMicroUSD float64
	energyMilliJ  float64
}

// charge accounts one device run's economics against the backend: occupancy
// priced and powered through its capability descriptor. The descriptor's
// accessors guard non-finite occupancy, so the counters never absorb NaN.
func (c *backendCounters) charge(busyMicros float64) {
	c.spendMicroUSD += c.caps.SpendMicroUSD(busyMicros)
	c.energyMilliJ += c.caps.EnergyMilliJ(busyMicros)
}

type jobResult struct {
	res *backend.Result
	err error
}

type job struct {
	ctx      context.Context
	p        *backend.Problem
	est      float64   // pool service-time estimate (µs)
	deadline time.Time // zero = none
	done     chan jobResult

	// Telemetry fields, set only when Config.Telemetry is configured.
	tr         *telemetry.Trace
	t0         time.Time // Dispatch entry
	enqueuedAt time.Time
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
		cfg:      cfg,
		now:      now,
		start:    now(),
		fallback: cfg.Fallback,
		src:      rng.New(cfg.Seed),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, be := range cfg.Pool {
		caps := describe(be)
		s.perBackend = append(s.perBackend, &backendCounters{caps: caps, name: caps.Name})
		s.poolNames = append(s.poolNames, caps.Name)
	}
	if cfg.Health != nil {
		seed := cfg.CanarySeed
		if seed == 0 {
			seed = cfg.Seed ^ 0x6ca17a5e
		}
		canary, err := health.NewCanary(seed)
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
				s.fallbackCounters = s.perBackend[i]
				break
			}
		}
		if s.fallbackCounters == nil {
			caps := describe(cfg.Fallback)
			s.fallbackCounters = &backendCounters{caps: caps, name: caps.Name}
		}
	}
	for i, be := range cfg.Pool {
		s.wg.Add(1)
		go s.worker(i, be)
	}
	return s, nil
}

// splitSource hands out an independent random stream.
func (s *Scheduler) splitSource() *rng.Source {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	return s.src.Split()
}

// describe returns be's capability descriptor, substituting an empty one for
// an implementation that declares none, so dispatch never dereferences nil.
func describe(be backend.Backend) *backend.Capabilities {
	if caps := be.Describe(); caps != nil {
		return caps
	}
	return &backend.Capabilities{}
}

// gated reports whether the pool backend at index i is pulled from regular
// dispatch by the health tracker. A quarantined member is only gated while
// some other pool member still serves: when the whole pool is quarantined
// the scheduler keeps serving on it (a degraded answer beats none), which
// also keeps the queue from deadlocking.
func (s *Scheduler) gated(i int) bool {
	h := s.cfg.Health
	if h == nil {
		return false
	}
	return h.State(s.poolNames[i]) == metrics.HealthQuarantined && h.AnyServing(s.poolNames)
}

// servingWorkers counts the pool workers currently accepting regular work
// (all of them when health gating is off or the whole pool is quarantined).
func (s *Scheduler) servingWorkers() int {
	if s.cfg.Health == nil {
		return len(s.cfg.Pool)
	}
	n := 0
	for i := range s.cfg.Pool {
		if !s.gated(i) {
			n++
		}
	}
	if n == 0 {
		return len(s.cfg.Pool)
	}
	return n
}

// poolEstimate is the best-case pool service time for p: the minimum
// predicted latency over the pool backends' capability descriptors,
// skipping health-quarantined members (they take no regular work, so their
// estimate is unearnable).
func (s *Scheduler) poolEstimate(p *backend.Problem) float64 {
	est := math.Inf(1)
	for i, be := range s.cfg.Pool {
		if s.gated(i) {
			continue
		}
		if e := describe(be).PredictMicros(p); e < est {
			est = e
		}
	}
	if math.IsInf(est, 1) {
		est = describe(s.cfg.Pool[0]).PredictMicros(p)
	}
	return est
}

// poolSpend is the cheapest projected spend for one solve of p on the pool:
// the minimum over backends of their descriptor-priced predicted latency.
func (s *Scheduler) poolSpend(p *backend.Problem) float64 {
	var min float64
	for i, be := range s.cfg.Pool {
		caps := describe(be)
		spend := caps.SpendMicroUSD(caps.PredictMicros(p))
		if i == 0 || spend < min {
			min = spend
		}
	}
	return min
}

// applyPlan consults the QoS planner for a problem carrying a target BER
// (its own or the configured default). It returns the problem to dispatch —
// a copy carrying the planned anneal budget, since callers may reuse their
// Problem across Dispatch calls — and whether the planner denied quantum
// dispatch.
func (s *Scheduler) applyPlan(p *backend.Problem, deadline time.Duration) (*backend.Problem, bool) {
	if s.cfg.Planner == nil {
		return p, false
	}
	target := p.TargetBER
	if target == 0 {
		target = s.cfg.DefaultTargetBER
	}
	if target <= 0 {
		return p, false
	}
	// A failed SNR estimate (singular channel) plans at the top of the
	// fitted range; the planner's own guards still apply.
	snr := math.Inf(1)
	if est, ok := s.snr.estimator(p).Estimate(p.Y); ok {
		snr = est
	}
	plan := s.cfg.Planner.Plan(qos.Request{
		Mod: p.Mod, Nt: p.Users(), SNRdB: snr, TargetBER: target,
		DeadlineMicros: float64(deadline) / float64(time.Microsecond),
		Soft:           p.Soft,
	})
	if !plan.Quantum {
		// With no classical solver to deny to, a deadline-driven denial
		// still carries the clamped best-effort budget — strictly better
		// than running the static configuration.
		if s.fallback != nil || plan.Params.NumAnneals < 1 {
			if plan.PT == nil {
				return p, true
			}
			// A PT-aware planner sized a replica-exchange budget for the
			// fallback solve; carry it on a copy (callers reuse Problems).
			q := *p
			q.TargetBER = target
			q.PT = plan.PT
			return &q, true
		}
	}
	q := *p
	q.TargetBER = target
	params := plan.Params
	q.Anneal = &params
	q.ChainJF = plan.JF
	q.Reverse = plan.Reverse
	q.PT = plan.PT
	return &q, false
}

// divertForCost decides cost-aware dispatch for p after planning: divert to
// the fallback when it is strictly cheaper than the cheapest pool backend
// (per the capability descriptors' cost models) AND the fallback's own
// latency estimate meets the deadline AND the decode is classically safe —
// no BER target, or a planner-sized easy budget (reads ≤ CostEasyReads).
// Hard SNR classes never divert: their large read budgets are exactly where
// the TTS table says QPU time pays for itself.
func (s *Scheduler) divertForCost(p *backend.Problem, deadline time.Duration) bool {
	if !s.cfg.CostAware || s.fallback == nil {
		return false
	}
	fbCaps := describe(s.fallback)
	fbEst := fbCaps.PredictMicros(p)
	if deadline > 0 && fbEst > float64(deadline)/float64(time.Microsecond) {
		return false
	}
	if p.TargetBER > 0 {
		easy := s.cfg.CostEasyReads
		if easy <= 0 {
			easy = DefaultCostEasyReads
		}
		if p.Anneal == nil || p.Anneal.NumAnneals > easy {
			return false
		}
	}
	return fbCaps.SpendMicroUSD(fbEst) < s.poolSpend(p)
}

// Dispatch submits one problem and blocks until it is solved, the context is
// canceled, or the scheduler is closed. deadline ≤ 0 selects the configured
// default. It implements fronthaul.Dispatcher.
func (s *Scheduler) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	rec := s.cfg.Telemetry
	var tr *telemetry.Trace
	var t0 time.Time
	if rec != nil {
		t0 = s.now()
	}
	p, planDenied := s.applyPlan(p, deadline)
	if rec != nil {
		// Two clock reads bracket the plan; the trace record itself is built
		// after the second read so its cost lands in admit, not plan. (The
		// planner feeds the StagePlan histogram itself from inside Plan; this
		// is the scheduler-side measurement carried on the trace.)
		planEnd := s.now()
		tr = &telemetry.Trace{
			Class:       telemetry.Class(p.Mod.String(), p.Users()),
			Soft:        p.Soft,
			Shard:       s.cfg.ShardID,
			StartMicros: rec.SinceStartMicros(t0),
		}
		if deadline > 0 {
			tr.DeadlineMicros = micros(deadline)
		}
		tr.Stages[telemetry.StagePlan] = micros(planEnd.Sub(t0))
	}
	// A planner denial that will route to the fallback never consults the
	// pool, so don't charge the backends' estimators for it; every admission
	// path below still records exactly one of plannerClassical/
	// fallbackDispatches/queue so the Stats totals reconcile (Submitted ==
	// Completed + Failed once drained — asserted in sched_test).
	var est float64
	var costDivert bool
	if !planDenied || s.fallback == nil {
		est = s.poolEstimate(p)
		costDivert = !planDenied && s.divertForCost(p, deadline)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.submitted++

	// Planner denial: the TTS model says the annealer cannot meet this
	// request's target within its deadline — the classical fallback is the
	// better bet regardless of queue state.
	if planDenied && s.fallback != nil {
		s.plannerClassical++
		s.fallbackDispatches++
		s.fbWg.Add(1)
		s.mu.Unlock()
		defer s.fbWg.Done()
		if tr != nil {
			tr.Fallback, tr.PlannerDenied = true, true
			tr.Stages[telemetry.StageAdmit] = admitSpan(s.now().Sub(t0), tr)
		}
		return s.runFallback(ctx, p, deadline, tr, t0, true)
	}

	// Cost-aware dispatch: the fallback solves this decode strictly cheaper
	// without risking its deadline or a planned BER target (divertForCost),
	// so spend-minimization routes it off the expensive pool.
	if costDivert {
		s.fallbackDispatches++
		s.fbWg.Add(1)
		s.mu.Unlock()
		defer s.fbWg.Done()
		if tr != nil {
			tr.Fallback = true
			tr.Stages[telemetry.StageAdmit] = admitSpan(s.now().Sub(t0), tr)
		}
		return s.runFallback(ctx, p, deadline, tr, t0, false)
	}

	// Hybrid dispatch: if the projected pool completion time blows the
	// deadline, route to the classical fallback now instead of queueing.
	// The projection charges every queued job a full solver run — it
	// deliberately ignores batch consolidation (which depends on slot
	// capacities unknown until embedding time), so it is an upper bound:
	// under same-N bursts the pool finishes earlier than projected and some
	// requests fall back that could have been served. Deadline safety is
	// preferred over pool utilization here; a batch-aware estimator can
	// tighten this later.
	if deadline > 0 && s.fallback != nil {
		deadlineMicros := float64(deadline) / float64(time.Microsecond)
		waitMicros := (s.queuedMicros + s.inflightMicros) / float64(s.servingWorkers())
		if waitMicros+est > deadlineMicros {
			s.fallbackDispatches++
			// Registered under mu, before the closed flag can flip: Close
			// waits for this solve too.
			s.fbWg.Add(1)
			s.mu.Unlock()
			defer s.fbWg.Done()
			if tr != nil {
				tr.Fallback = true
				tr.Stages[telemetry.StageAdmit] = admitSpan(s.now().Sub(t0), tr)
			}
			return s.runFallback(ctx, p, deadline, tr, t0, false)
		}
	}

	j := &job{ctx: ctx, p: p, est: est, done: make(chan jobResult, 1)}
	if deadline > 0 {
		j.deadline = s.now().Add(deadline)
	}
	if tr != nil {
		j.tr, j.t0 = tr, t0
		j.enqueuedAt = s.now()
		tr.Stages[telemetry.StageAdmit] = admitSpan(j.enqueuedAt.Sub(t0), tr)
	}
	s.queue = append(s.queue, j)
	s.queuedMicros += est
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case r := <-j.done:
		return r.res, r.err
	case <-ctx.Done():
		// The job stays queued; the worker discards it when it surfaces.
		return nil, ctx.Err()
	}
}

// admitSpan is the admission span: entry-to-decision wall time minus the
// planner's share (already carried as StagePlan), clamped nonnegative.
func admitSpan(sinceEntry time.Duration, tr *telemetry.Trace) float64 {
	a := micros(sinceEntry) - tr.Stages[telemetry.StagePlan]
	if a < 0 {
		return 0
	}
	return a
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
	h.ObserveQuality(name, telemetry.Class(p.Mod.String(), p.Users()), telemetry.QualityObservation{
		BestEnergy:   res.Energy,
		Reads:        res.Reads,
		ChainBreaks:  res.BrokenChains,
		LLRBits:      len(res.LLRs),
		LLRSaturated: res.LLRSaturated,
	})
}

// observeBurn feeds one terminal request's SLO bits to the shard burn
// tracker under this scheduler's ShardID. No-op without Config.Burn.
func (s *Scheduler) observeBurn(missed, berMiss bool) {
	if b := s.cfg.Burn; b != nil {
		b.Observe(s.cfg.ShardID, missed, berMiss)
	}
}

// runFallback solves p on the fallback backend, on the caller's goroutine.
// tr/t0 carry the request's telemetry trace when tracing is enabled. denied
// marks a planner denial: the request carried a BER target the annealer
// could not meet, so its classical answer counts as a BER-risk event in the
// shard's SLO burn feed.
func (s *Scheduler) runFallback(ctx context.Context, p *backend.Problem, deadline time.Duration, tr *telemetry.Trace, t0 time.Time, denied bool) (*backend.Result, error) {
	started := s.now()
	res, err := solveContained(ctx, s.fallback, p, s.splitSource())
	solveEnd := s.now()
	elapsed := micros(solveEnd.Sub(started))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.fallbackCounters.busyMicros += elapsed
	s.fallbackCounters.charge(elapsed)
	if tr != nil {
		defer func() {
			end := s.now()
			tr.Backend = s.fallbackCounters.name
			tr.Failed = err != nil
			if res != nil {
				tr.CacheHit = res.CacheHit
				tr.Stages[telemetry.StageCompile] = res.CompileMicros
			}
			tr.Stages[telemetry.StageSolve] = elapsed
			tr.Stages[telemetry.StageRespond] = micros(end.Sub(solveEnd))
			tr.Stages[telemetry.StageE2E] = micros(end.Sub(t0))
			if deadline > 0 {
				tr.SlackMicros = micros(started.Add(deadline).Sub(end))
			}
			s.cfg.Telemetry.FinishTrace(*tr)
		}()
	}
	if err != nil {
		s.fallbackCounters.errors++
		s.failed++
		s.observeSolve(s.fallbackCounters.name, p, nil, true)
		// A failed request blew its SLO whatever the clock says.
		s.observeBurn(true, denied)
		return nil, err
	}
	s.fallbackCounters.solved++
	s.completed++
	if p.Soft {
		s.softSolved++
		s.llrSaturations += uint64(res.LLRSaturated)
	}
	missed := deadline > 0 && s.now().After(started.Add(deadline))
	if missed {
		s.misses++
	}
	s.observeSolve(s.fallbackCounters.name, p, res, false)
	s.observeBurn(missed, denied || (p.Soft && res.LLRSaturated > 0))
	return res, nil
}

// gateWorker holds a quarantined worker out of regular dispatch, probing
// its backend with the canary instance on the tracker's schedule. It spins
// in ~1ms quanta so re-admission (or the rest of the pool going down, which
// un-gates everyone) is picked up promptly. Returns false when the
// scheduler closed with an empty queue — the worker should exit — and true
// when the worker may pull regular work again.
func (s *Scheduler) gateWorker(idx int, be backend.Backend, ctr *backendCounters, src *rng.Source) bool {
	h := s.cfg.Health
	for s.gated(idx) {
		s.mu.Lock()
		done := s.closed && len(s.queue) == 0
		s.mu.Unlock()
		if done {
			return false
		}
		if h.CanaryDue(ctr.name) {
			// Probe on a background context: the canary is the scheduler's
			// own request and must not inherit any client deadline. Device
			// time still bills the backend — a quarantined chip is busy
			// proving itself, and hiding that would flatter its utilization.
			started := s.now()
			res, err := solveContained(context.Background(), be, s.canary.Problem, src)
			elapsed := micros(s.now().Sub(started))
			s.mu.Lock()
			ctr.busyMicros += elapsed
			ctr.charge(elapsed)
			s.mu.Unlock()
			h.RecordCanary(ctr.name, s.canary.Check(res, err))
			continue
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// worker runs one pool backend: pop the queue head, optionally gather a
// batch, solve, deliver.
func (s *Scheduler) worker(idx int, be backend.Backend) {
	defer s.wg.Done()
	src := s.splitSource()
	ctr := s.perBackend[idx]
	for {
		if s.cfg.Health != nil && !s.gateWorker(idx, be, ctr, src) {
			return
		}
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		if s.cfg.Health != nil && s.gated(idx) {
			// The verdict may have flipped while this worker was parked in
			// Wait — re-gate before touching the queue so a freshly
			// quarantined backend never pulls one more job.
			s.mu.Unlock()
			continue
		}
		// Pop the head under the lock, but resolve the backend's batch
		// capacity outside it: the first BatchSlots call for a new problem
		// size runs a clique-embedding search, which must not stall
		// admission and the other workers.
		head := s.queue[0]
		s.queue = s.queue[1:]
		s.queuedMicros -= head.est
		s.inflightMicros += head.est
		s.mu.Unlock()

		var popAt time.Time
		if head.tr != nil {
			popAt = s.now()
		}
		batch := []*job{head}
		slots := 1
		if bb, ok := be.(backend.BatchBackend); ok && !s.cfg.DisableBatch {
			if slots = bb.BatchSlots(head.p); slots > 1 {
				s.mu.Lock()
				if head.p.ChannelKey != 0 {
					batch = s.gatherCoherentLocked(head, slots)
				} else {
					batch = s.gatherBatchLocked(head, slots)
				}
				s.mu.Unlock()
			}
		}
		if head.tr != nil {
			// The head waited until it was popped and is charged the run
			// assembly (slot resolution + gathering); batch riders stayed
			// effectively queued until gathering finished. Spans stay
			// disjoint so they partition each request's e2e.
			gatherEnd := s.now()
			head.tr.Stages[telemetry.StageQueue] = micros(popAt.Sub(head.enqueuedAt))
			head.tr.Stages[telemetry.StageGather] = micros(gatherEnd.Sub(popAt))
			for _, j := range batch[1:] {
				j.tr.Stages[telemetry.StageQueue] = micros(gatherEnd.Sub(j.enqueuedAt))
			}
		}

		// Drop jobs whose submitter already gave up.
		live := batch[:0]
		for _, j := range batch {
			if err := j.ctx.Err(); err != nil {
				j.done <- jobResult{err: err}
				s.mu.Lock()
				s.failed++
				s.inflightMicros -= j.est
				if j.tr != nil {
					end := s.now()
					j.tr.Failed = true
					j.tr.Stages[telemetry.StageE2E] = micros(end.Sub(j.t0))
					if !j.deadline.IsZero() {
						j.tr.SlackMicros = micros(j.deadline.Sub(end))
					}
					s.cfg.Telemetry.FinishTrace(*j.tr)
				}
				s.mu.Unlock()
				continue
			}
			live = append(live, j)
		}
		if len(live) == 0 {
			continue
		}

		started := s.now()
		results, err := s.solve(be, live, slots, src)
		solveEnd := s.now()
		elapsed := micros(solveEnd.Sub(started))

		s.mu.Lock()
		ctr.busyMicros += elapsed
		ctr.charge(elapsed)
		for i, j := range live {
			s.inflightMicros -= j.est
			if err != nil {
				ctr.errors++
				s.failed++
				s.observeSolve(ctr.name, j.p, nil, true)
				// A failed request blew its SLO whatever the clock says.
				s.observeBurn(true, false)
				s.finishPoolTrace(j, nil, err, ctr.name, elapsed, solveEnd, len(live))
				j.done <- jobResult{err: err}
				continue
			}
			ctr.solved++
			s.completed++
			if j.p.Soft {
				s.softSolved++
				s.llrSaturations += uint64(results[i].LLRSaturated)
			}
			missed := !j.deadline.IsZero() && s.now().After(j.deadline)
			if missed {
				s.misses++
			}
			s.observeSolve(ctr.name, j.p, results[i], false)
			s.observeBurn(missed, j.p.Soft && results[i].LLRSaturated > 0)
			s.finishPoolTrace(j, results[i], nil, ctr.name, elapsed, solveEnd, len(live))
			j.done <- jobResult{res: results[i]}
		}
		s.mu.Unlock()
	}
}

// finishPoolTrace fills and finishes a pool-solved (or pool-failed) job's
// trace. Called under s.mu at the same point the Completed/Failed counters
// move, so traces reconcile exactly with Stats. No-op when tracing is off.
func (s *Scheduler) finishPoolTrace(j *job, res *backend.Result, err error, beName string, solveMicros float64, solveEnd time.Time, batched int) {
	if j.tr == nil {
		return
	}
	end := s.now()
	j.tr.Backend = beName
	j.tr.Batched = batched
	j.tr.Failed = err != nil
	if res != nil {
		if res.Backend != "" {
			j.tr.Backend = res.Backend
		}
		j.tr.CacheHit = res.CacheHit
		j.tr.Stages[telemetry.StageCompile] = res.CompileMicros
	}
	j.tr.Stages[telemetry.StageSolve] = solveMicros
	j.tr.Stages[telemetry.StageRespond] = micros(end.Sub(solveEnd))
	j.tr.Stages[telemetry.StageE2E] = micros(end.Sub(j.t0))
	if !j.deadline.IsZero() {
		j.tr.SlackMicros = micros(j.deadline.Sub(end))
	}
	s.cfg.Telemetry.FinishTrace(*j.tr)
}

// gatherBatchLocked extends an already-popped head job with batch-compatible
// queued jobs (backend.Batchable: same logical spin count and agreeing
// anneal schedule, FIFO order) up to the backend's slot capacity. Estimates
// move from queued to in-flight.
func (s *Scheduler) gatherBatchLocked(head *job, slots int) []*job {
	batch := []*job{head}
	kept := s.queue[:0]
	for _, j := range s.queue {
		if len(batch) < slots && backend.Batchable(head.p, j.p) {
			s.queuedMicros -= j.est
			s.inflightMicros += j.est
			batch = append(batch, j)
			continue
		}
		kept = append(kept, j)
	}
	// Zero the tail so dropped slots don't pin jobs.
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
	return batch
}

// gatherCoherentLocked is the coherence-aware variant of gatherBatchLocked
// for a head job carrying a ChannelKey: queued symbols from the SAME
// coherence window (equal key — the channel is already programmed on the
// backend's compiled-channel cache) claim the run's slots first, and only
// leftover slots go to other batch-compatible jobs. Within each class FIFO
// order is preserved, and the batch itself stays in queue order so FIFO
// fairness inside one run is untouched.
func (s *Scheduler) gatherCoherentLocked(head *job, slots int) []*job {
	take := make([]bool, len(s.queue))
	count := 1
	// First pass: same coherence window.
	for i, j := range s.queue {
		if count >= slots {
			break
		}
		if j.p.ChannelKey == head.p.ChannelKey && backend.Batchable(head.p, j.p) {
			take[i] = true
			count++
		}
	}
	// Second pass: any remaining batch-compatible job fills leftover slots.
	for i, j := range s.queue {
		if count >= slots {
			break
		}
		if !take[i] && backend.Batchable(head.p, j.p) {
			take[i] = true
			count++
		}
	}
	batch := []*job{head}
	kept := s.queue[:0]
	for i, j := range s.queue {
		if take[i] {
			s.queuedMicros -= j.est
			s.inflightMicros += j.est
			batch = append(batch, j)
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
	return batch
}

// solve runs one batch (possibly of size 1) on be and updates batching
// counters. slots is the capacity the worker already resolved for this run.
// A panic in the backend fails the whole batch with a *PanicError.
func (s *Scheduler) solve(be backend.Backend, batch []*job, slots int, src *rng.Source) (_ []*backend.Result, err error) {
	defer containPanic(be, &err)
	if len(batch) == 1 {
		res, err := be.Solve(batch[0].ctx, batch[0].p, src)
		if err != nil {
			return nil, err
		}
		return []*backend.Result{res}, nil
	}
	bb := be.(backend.BatchBackend)
	ps := make([]*backend.Problem, len(batch))
	for i, j := range batch {
		ps[i] = j.p
	}
	results, err := bb.SolveBatch(batch[0].ctx, ps, src)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.batchRuns++
	s.batchedProblems += uint64(len(batch))
	if slots > 0 {
		s.occupancySum += float64(len(batch)) / float64(slots)
	}
	s.mu.Unlock()
	return results, nil
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

// Stats snapshots the pool counters.
func (s *Scheduler) Stats() metrics.PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	wallMicros := float64(s.now().Sub(s.start)) / float64(time.Microsecond)
	st := metrics.PoolStats{
		UptimeMicros:       wallMicros,
		QueueDepth:         len(s.queue),
		Submitted:          s.submitted,
		Completed:          s.completed,
		Failed:             s.failed,
		FallbackDispatches: s.fallbackDispatches,
		PlannerClassical:   s.plannerClassical,
		DeadlineMisses:     s.misses,
		BatchRuns:          s.batchRuns,
		BatchedProblems:    s.batchedProblems,
		SoftSolved:         s.softSolved,
		LLRSaturations:     s.llrSaturations,
	}
	if s.batchRuns > 0 {
		st.SlotOccupancy = s.occupancySum / float64(s.batchRuns)
	}
	// Channel-cache counters live in the backends' decoders; aggregate over
	// distinct instances so a pool listing one backend behind several workers
	// counts its cache once.
	type channelCacheStatser interface {
		ChannelCacheStats() metrics.ChannelCacheStats
	}
	seen := make(map[backend.Backend]bool, len(s.cfg.Pool)+1)
	backends := s.cfg.Pool
	if s.fallback != nil {
		backends = append(append([]backend.Backend(nil), backends...), s.fallback)
	}
	for _, be := range backends {
		if seen[be] {
			continue
		}
		seen[be] = true
		if cs, ok := be.(channelCacheStatser); ok {
			st.ChannelCache = st.ChannelCache.Add(cs.ChannelCacheStats())
		}
	}
	all := s.perBackend
	if s.fallbackCounters != nil {
		shared := false
		for _, c := range s.perBackend {
			if c == s.fallbackCounters {
				shared = true
				break
			}
		}
		if !shared {
			all = append(append([]*backendCounters(nil), s.perBackend...), s.fallbackCounters)
		}
	}
	for _, c := range all {
		bs := metrics.BackendStats{
			Name:          c.name,
			Solved:        c.solved,
			Errors:        c.errors,
			BusyMicros:    c.busyMicros,
			SpendMicroUSD: c.spendMicroUSD,
			EnergyMilliJ:  c.energyMilliJ,
		}
		if wallMicros > 0 {
			bs.Utilization = c.busyMicros / wallMicros
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}

// String describes the pool configuration.
func (s *Scheduler) String() string {
	names := make([]string, len(s.cfg.Pool))
	for i, be := range s.cfg.Pool {
		names[i] = describe(be).Name
	}
	fb := "none"
	if s.fallback != nil {
		fb = describe(s.fallback).Name
	}
	return fmt.Sprintf("sched: pool=%v fallback=%s default-deadline=%s batch=%t planner=%t cost-aware=%t",
		names, fb, s.cfg.DefaultDeadline, !s.cfg.DisableBatch, s.cfg.Planner != nil, s.cfg.CostAware)
}
