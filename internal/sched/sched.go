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
//   - Certify. With a Planner configured, a problem carrying a target BER is
//     read once through its window's sphere program (qos.EstimateInto on
//     core.Window.Sphere, factored once per window): the SNR estimate, the
//     zero-forcing decision and
//     its residual ‖y − H·v_ZF‖². A Schnorr–Euchner search of at most
//     qos.CertifyNodes tree nodes starts from that decision as its incumbent
//     leaf, so its radius is the zero-forcing metric and it keeps only
//     strictly closer leaves. A search that finishes inside the budget has
//     ruled out every leaf closer to y than the one it holds: that leaf is an
//     ML answer, and no annealer read can beat it. For a soft request the
//     search is the clipped single-tree max-log search (Studer, Burg &
//     Bölcskei): it also keeps, per bit, the nearest leaf with that bit
//     flipped, out to where the request's LLR clamps, so a finished search
//     holds the exact clamped max-log LLRs. The request is answered there —
//     Backend "certificate", no reads, no queue slot, no backend and no
//     planner call — the hybrid classical–quantum structure of Kim et al.
//     (arXiv:2010.00682) applied per request. A search that runs out of
//     nodes leaves the request to the planner exactly as before.
//
//   - Plan. A problem carrying a target BER that the certificate did not
//     answer gets its anneal budget — reads, schedule, forward/reverse mode —
//     sized from the fitted TTS model (internal/qos) to meet the target
//     within the deadline, so easy requests stop over-provisioning reads
//     (Kasi et al., arXiv:2109.01465); or a denial, when the model says the
//     classical fallback is the better bet.
//
//   - Admit. One switch under the scheduler lock picks the route. A
//     certified request is answered at once. A planner denial, a cost divert
//     (Config.CostAware: spend minimization subject to the QoS constraints,
//     priced through the backends' capability descriptors, arXiv:2109.01465)
//     and a deadline that the projected queue wait plus service time cannot
//     meet (the same hybrid structure, per deadline) all leave through one
//     fallback exit and solve at once; everything else joins the queue.
//
//   - Queue · gather · solve. A worker pops the head; when its backend can
//     co-schedule problems (backend.BatchBackend — the annealer, via
//     disjoint Chimera embedding slots) it gathers batch-compatible queued
//     jobs, same coherence window first, into one device run, amortizing
//     Na·(Ta+Tp) across requests (§4 parallelization, across the pool).
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
	"math"
	"runtime/debug"
	"sync"
	"time"

	"quamax/internal/backend"
	"quamax/internal/health"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/softout"
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
	// stream derived from Seed. Deadline projection and pool estimates skip
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

	// counters (guarded by mu)
	submitted, completed, failed uint64
	fallbackDispatches, misses   uint64
	plannerClassical             uint64
	certified                    uint64 // requests the certificate answered at admission
	batchRuns, batchedProblems   uint64
	softSolved, llrSaturations   uint64
	stoppedEarly                 uint64 // solves a stop rule ended under their cap
	occupancySum                 float64
	// radiusMisses counts, per problem class, the pool solves that ended with
	// no read inside their StopRadius: the annealer did not settle them.
	radiusMisses map[problemClass]uint64
	// counters holds one entry per pool worker, pool order, then the
	// fallback's when it is not also a pool member: the list Stats reports.
	counters         []*backendCounters
	fallbackCounters *backendCounters // shared with a pool entry, or the last
}

// problemClass is telemetry.Class before it is a string: a counter key that
// costs no allocation per solve.
type problemClass struct {
	mod   modulation.Modulation
	users int
}

// backendCounters is one backend as the scheduler sees it: its descriptor
// (stable for its lifetime, so resolved once) and what it has served.
type backendCounters struct {
	be            backend.Backend
	caps          *backend.Capabilities
	solved        uint64
	errors        uint64
	busyMicros    float64
	spendMicroUSD float64
	energyMilliJ  float64
	readsPlanned  uint64 // Σ Result.ReadsPlanned over solved requests
	readsRun      uint64 // Σ Result.Reads
}

// charge accounts one device run against the backend: its occupancy, priced
// and powered through the capability descriptor. It is per run, not per
// request — a shared run has one occupancy and one fixed solve charge
// however many jobs ride it. The descriptor's accessors guard non-finite
// occupancy, so the spend and energy counters never absorb NaN.
func (c *backendCounters) charge(busyMicros float64) {
	c.busyMicros += busyMicros
	c.spendMicroUSD += c.caps.SpendMicroUSD(busyMicros)
	c.energyMilliJ += c.caps.EnergyMilliJ(busyMicros)
}

// The routes admit picks between. routeCertified is answered at admission;
// every other route but routeQueue solves on the fallback backend.
const (
	routeQueue             = iota
	routePlannerDenied     // the TTS model says the annealer cannot meet the target
	routeCostDivert        // the fallback is strictly cheaper and classically safe
	routeDeadlineProjected // projected queue wait + service time blows the deadline
	routeCertified         // the certificate search proved its answer ML
)

// job is one request from Dispatch entry to finish. Dispatch holds it by
// value, and copies it into a job from the free list when it enters the
// queue; Dispatch and the worker then each hold it until they release it.
type job struct {
	ctx      context.Context
	p        *backend.Problem
	est      float64       // pool service-time estimate (µs)
	entry    time.Time     // Dispatch entry: the deadline's origin and the trace's t0
	deadline time.Time     // entry + d, the one deadline of both paths; zero = none
	route    int           // set by admit
	done     chan struct{} // queued jobs only (1-buffered): finish sends once res/err are set
	holds    int           // queued jobs only, under s.mu: sides not yet through with it
	res      *backend.Result
	err      error

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
		caps := describe(be)
		s.counters = append(s.counters, &backendCounters{be: be, caps: caps})
		s.poolNames = append(s.poolNames, caps.Name)
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
			s.fallbackCounters = &backendCounters{be: cfg.Fallback, caps: describe(cfg.Fallback)}
			s.counters = append(s.counters, s.fallbackCounters)
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
// also keeps the queue from deadlocking. Without a tracker nothing is gated:
// a nil Tracker reports every backend Healthy.
func (s *Scheduler) gated(i int) bool {
	h := s.cfg.Health
	return h.State(s.poolNames[i]) == metrics.HealthQuarantined && h.AnyServing(s.poolNames)
}

// servingWorkers counts the pool workers currently accepting regular work
// (all of them when health gating is off or the whole pool is quarantined).
func (s *Scheduler) servingWorkers() int {
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
	for i := range s.cfg.Pool {
		if s.gated(i) {
			continue
		}
		if e := s.counters[i].caps.PredictMicros(p); e < est {
			est = e
		}
	}
	if math.IsInf(est, 1) {
		est = s.counters[0].caps.PredictMicros(p)
	}
	return est
}

// poolSpend is the cheapest projected spend for one solve of p on the pool:
// the minimum over backends of their descriptor-priced predicted latency.
func (s *Scheduler) poolSpend(p *backend.Problem) float64 {
	var min float64
	for i := range s.cfg.Pool {
		caps := s.counters[i].caps
		spend := caps.SpendMicroUSD(caps.PredictMicros(p))
		if i == 0 || spend < min {
			min = spend
		}
	}
	return min
}

// CertificateBackend is the Result.Backend (and trace backend) of a request
// the certificate search answered at admission: no backend ran it.
const CertificateBackend = "certificate"

// verdict is what admission decides before the lock: the problem to
// dispatch, whether the planner denied it quantum dispatch, and what the
// certificate search made of it.
type verdict struct {
	p      *backend.Problem
	denied bool
	proved *backend.Result // the ML answer, when the search finished
	nodes  int             // tree nodes the search visited (0: none ran)
}

// applyPlan is admission's work for a problem carrying a target BER (its own
// or the configured default), with a Planner configured; any other problem
// passes through untouched. One read through its window's sphere program
// (a fresh one for a problem without its own window) gives the SNR,
// the zero-forcing residual and a certificate search of qos.CertifyNodes
// nodes seeded with the zero-forcing decision — for a soft problem, clipped
// at its LLR spec, so a finished search also holds its exact clamped max-log
// LLRs. A search that finished has proved its answer: the verdict carries it
// and the planner is never asked. Otherwise the problem is planned (plan)
// exactly as it would have been without the search.
//
// The proved answer is the one built on Dispatch's own goroutine, so it is
// the one that lands in the storage p.Answer lends (backend.Problem.Answer);
// with none lent it is a new Result.
func (s *Scheduler) applyPlan(p *backend.Problem, deadline time.Duration) verdict {
	target := s.target(p)
	if target <= 0 {
		return verdict{p: p}
	}
	var soft *softout.Spec
	if p.Soft {
		soft = &softout.Spec{NoiseVar: p.NoiseVar, Clamp: p.LLRClamp}
	}
	var bits []byte
	var llrs []float64
	if p.Answer != nil {
		bits, llrs = p.Answer.Bits, p.Answer.LLRs
	}
	est := qos.EstimateInto(p.Window.SphereFor(p.Mod, p.H), p.Y, qos.CertifyNodes, soft, bits, llrs)
	if est.Proved {
		res := p.Answer
		if res == nil {
			res = new(backend.Result)
		}
		*res = backend.Result{
			Bits: est.Bits, Energy: est.Metric, LLRs: est.LLRs, LLRSaturated: est.LLRSaturated,
			Backend: CertificateBackend,
		}
		return verdict{p: p, nodes: est.Nodes, proved: res}
	}
	v := s.plan(p, target, deadline, est)
	v.nodes = est.Nodes
	return v
}

// target is the BER target admission plans p for: its own, else the
// configured default; 0 when there is none or no Planner to plan it.
func (s *Scheduler) target(p *backend.Problem) float64 {
	if s.cfg.Planner == nil {
		return 0
	}
	if p.TargetBER != 0 {
		return p.TargetBER
	}
	return s.cfg.DefaultTargetBER
}

// plan consults the QoS planner for p at target. It returns the problem to
// dispatch — a copy carrying the planned anneal budget, since callers may
// reuse their Problem across Dispatch calls — and whether the planner denied
// quantum dispatch.
//
// It is also where the stop rules are armed, being the only place that knows
// which tier a request goes to. A classical denial's restarts become a cap
// (backend.Problem.StopRepeats). A fitted plan that is not a precode gets the
// device tier's noise radius (backend.Problem.StopRadius) from what admission
// already holds: the request's own σ² when a soft request carries one, the
// zero-forcing residual of est otherwise. The annealer honors it in shared
// runs; a fit diverted to the fallback under cost or deadline pressure runs
// uncut.
func (s *Scheduler) plan(p *backend.Problem, target float64, deadline time.Duration, est qos.Estimate) verdict {
	// A failed SNR estimate (singular channel) plans at the top of the
	// fitted range; the planner's own guards still apply.
	snr, residual := math.Inf(1), 0.0
	if est.OK {
		snr, residual = est.SNRdB, est.Residual
	}
	plan := s.cfg.Planner.Plan(qos.Request{
		Mod: p.Mod, Nt: p.Users(), SNRdB: snr, TargetBER: target,
		DeadlineMicros: micros(deadline),
		Soft:           p.Soft,
	})
	if !plan.Quantum {
		// With no classical solver to deny to, a deadline-driven denial
		// still carries the clamped best-effort budget — strictly better
		// than running the static configuration.
		if s.cfg.Fallback != nil || plan.Params.NumAnneals < 1 {
			if s.cfg.Fallback == nil && plan.PT == nil {
				return verdict{p: p, denied: true}
			}
			// A denied solve carries the repeat rule (only ClassicalSA reads
			// it), and a PT-aware planner's replica-exchange budget rides
			// along, on a copy (callers reuse Problems).
			q := *p
			q.TargetBER = target
			q.PT = plan.PT
			q.StopRepeats = qos.StopRepeats
			return verdict{p: &q, denied: true}
		}
	}
	q := *p
	q.TargetBER = target
	params := plan.Params
	q.Anneal = &params
	q.ChainJF = plan.JF
	q.Reverse = plan.Reverse
	q.PT = plan.PT
	if plan.Quantum && !p.Lattice {
		nr := p.H.Rows
		noiseVar := residual / float64(nr)
		if p.Soft && p.NoiseVar > 0 {
			noiseVar = p.NoiseVar
		}
		q.StopRadius = qos.StopRadius(noiseVar, nr)
	}
	return verdict{p: &q}
}

// divertForCost decides cost-aware dispatch for p after planning, on the
// three conditions Config.CostAware states: the fallback meets the deadline,
// the decode is classically safe, and the fallback is strictly cheaper than
// the cheapest pool backend. Hard SNR classes never divert: their large read
// budgets are exactly where the TTS table says QPU time pays for itself.
func (s *Scheduler) divertForCost(p *backend.Problem, deadline time.Duration) bool {
	if !s.cfg.CostAware || s.cfg.Fallback == nil {
		return false
	}
	fbCaps := s.fallbackCounters.caps
	fbEst := fbCaps.PredictMicros(p)
	if deadline > 0 && fbEst > micros(deadline) {
		return false
	}
	if p.TargetBER > 0 && (p.Anneal == nil || p.Anneal.NumAnneals > DefaultCostEasyReads) {
		return false
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
	entry := s.now()
	v := s.applyPlan(p, deadline)
	p = v.p
	j := job{ctx: ctx, p: p, entry: entry}
	if deadline > 0 {
		j.deadline = entry.Add(deadline)
	}
	if rec := s.cfg.Telemetry; rec != nil {
		// Two clock reads bracket the plan; the trace record itself is built
		// after the second read so its cost lands in admit, not plan. (The
		// planner feeds the StagePlan histogram itself from inside Plan; this
		// is the scheduler-side measurement carried on the trace.)
		planEnd := s.now()
		j.tr = telemetry.Trace{
			Class:          telemetry.Class(p.Mod.String(), p.Users()),
			Soft:           p.Soft,
			Shard:          s.cfg.ShardID,
			StartMicros:    rec.SinceStartMicros(entry),
			DeadlineMicros: max(0, micros(deadline)), // 0 = none
			CertifyNodes:   v.nodes,
		}
		j.tr.Stages[telemetry.StagePlan] = micros(planEnd.Sub(entry))
	}
	// A certified request or a planner denial that will route to the
	// fallback never consults the pool, so don't charge the backends'
	// estimators for it.
	certified := v.proved != nil
	planDenied := v.denied && s.cfg.Fallback != nil
	costDivert := false
	if !planDenied && !certified {
		j.est = s.poolEstimate(p)
		costDivert = s.divertForCost(p, deadline)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.submitted++
	j.route = s.admitLocked(&j, deadline, certified, planDenied, costDivert)
	if s.cfg.Telemetry != nil {
		// The admission span is entry-to-decision wall time minus the
		// planner's share (already carried as StagePlan).
		j.admittedAt = s.now()
		j.tr.Stages[telemetry.StageAdmit] = max(0, micros(j.admittedAt.Sub(entry))-j.tr.Stages[telemetry.StagePlan])
		j.tr.Fallback = j.route != routeQueue && j.route != routeCertified
		j.tr.PlannerDenied = j.route == routePlannerDenied
	}
	if j.route == routeCertified {
		// Answered at admission: no queue slot, no backend, no planner call.
		s.certified++
		s.finish(&j, nil, v.proved, nil, time.Time{}, time.Time{}, 0)
		s.mu.Unlock()
		return v.proved, nil
	}
	if j.route != routeQueue {
		if j.route == routePlannerDenied {
			s.plannerClassical++
		}
		s.fallbackDispatches++
		// Registered under mu, before the closed flag can flip: Close waits
		// for this solve too.
		s.fbWg.Add(1)
		s.mu.Unlock()
		return s.runFallback(&j)
	}
	q := s.queuedJobLocked(&j)
	s.queue = append(s.queue, q)
	s.queuedMicros += q.est
	s.cond.Signal()
	s.mu.Unlock()

	var res *backend.Result
	var err error
	select {
	case <-q.done:
		res, err = q.res, q.err
	case <-ctx.Done():
		// The job stays queued; the worker finishes it, as cancelled, when
		// it surfaces.
		err = ctx.Err()
	}
	s.mu.Lock()
	s.releaseLocked(q)
	s.mu.Unlock()
	return res, err
}

// queuedJobLocked copies j into a job from the free list (a new one when it
// is empty), held by Dispatch and the worker, under s.mu.
func (s *Scheduler) queuedJobLocked(j *job) *job {
	var q *job
	if n := len(s.free); n > 0 {
		q, s.free = s.free[n-1], s.free[:n-1]
		j.done = q.done
	} else {
		q, j.done = new(job), make(chan struct{}, 1)
	}
	*q = *j
	q.holds = 2
	return q
}

// releaseLocked ends one side's hold on a queued job, under s.mu. The last
// side returns it to the free list, dropping what it references and an
// answer Dispatch gave up on.
func (s *Scheduler) releaseLocked(q *job) {
	if q.holds--; q.holds > 0 {
		return
	}
	select {
	case <-q.done:
	default:
	}
	*q = job{done: q.done}
	s.free = append(s.free, q)
}

// admitLocked is the one admission decision, under s.mu: the route j takes
// given the certificate, the planner's verdict, the cost comparison and the
// queue's state.
func (s *Scheduler) admitLocked(j *job, deadline time.Duration, certified, planDenied, costDivert bool) int {
	switch {
	case certified:
		// The search proved its answer ML: nothing left to solve.
		return routeCertified
	case planDenied:
		// The TTS model says the annealer cannot meet this request's target
		// within its deadline — the classical fallback is the better bet
		// regardless of queue state.
		return routePlannerDenied
	case costDivert:
		// The fallback solves this decode strictly cheaper without risking
		// its deadline or a planned BER target (divertForCost), so
		// spend-minimization routes it off the expensive pool.
		return routeCostDivert
	case deadline > 0 && s.cfg.Fallback != nil &&
		(s.queuedMicros+s.inflightMicros)/float64(s.servingWorkers())+j.est > micros(deadline):
		// Hybrid dispatch: the projected pool completion time blows the
		// deadline, so route to the classical fallback now instead of
		// queueing. The projection charges every queued job a full solver
		// run — it deliberately ignores batch consolidation (which depends
		// on slot capacities unknown until embedding time), so it is an
		// upper bound: under same-N bursts the pool finishes earlier than
		// projected and some requests fall back that could have been
		// served. Deadline safety is preferred over pool utilization here; a
		// batch-aware estimator can tighten this later.
		return routeDeadlineProjected
	}
	return routeQueue
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

// runFallback solves a fallback-routed job on the fallback backend, on the
// submitter's goroutine.
func (s *Scheduler) runFallback(j *job) (*backend.Result, error) {
	defer s.fbWg.Done()
	started := s.now()
	res, err := solveContained(j.ctx, s.cfg.Fallback, j.p, s.splitSource())
	solveEnd := s.now()

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
		s.failed++
	} else {
		s.completed++
		if missed {
			s.misses++
		}
		if j.p.Soft {
			s.softSolved++
			s.llrSaturations += uint64(res.LLRSaturated)
		}
	}
	if ctr != nil {
		if err != nil {
			ctr.errors++
		} else {
			ctr.solved++
			// What the stop rules made of this request's budget.
			ctr.readsPlanned += uint64(res.ReadsPlanned)
			ctr.readsRun += uint64(res.Reads)
			if res.Reads < res.ReadsPlanned {
				s.stoppedEarly++
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

// gateWorker holds a quarantined worker out of regular dispatch, probing
// its backend with the canary instance on the tracker's schedule. It spins
// in ~1ms quanta so re-admission (or the rest of the pool going down, which
// un-gates everyone) is picked up promptly. Returns false when the
// scheduler closed with an empty queue — the worker should exit — and true
// when the worker may pull regular work again.
func (s *Scheduler) gateWorker(idx int, ctr *backendCounters, src *rng.Source) bool {
	h := s.cfg.Health
	for s.gated(idx) {
		s.mu.Lock()
		done := s.closed && len(s.queue) == 0
		s.mu.Unlock()
		if done {
			return false
		}
		if h.CanaryDue(ctr.caps.Name) {
			// Probe on a background context: the canary is the scheduler's
			// own request and must not inherit any client deadline. Device
			// time still bills the backend — a quarantined chip is busy
			// proving itself, and hiding that would flatter its utilization.
			started := s.now()
			res, err := solveContained(context.Background(), ctr.be, s.canary.Problem, src)
			elapsed := micros(s.now().Sub(started))
			s.mu.Lock()
			ctr.charge(elapsed)
			s.mu.Unlock()
			h.RecordCanary(ctr.caps.Name, s.canary.Check(res, err))
			continue
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// worker runs one pool backend: pop the queue head, optionally gather a
// batch, solve, finish each job.
func (s *Scheduler) worker(idx int) {
	defer s.wg.Done()
	src := s.splitSource()
	ctr := s.counters[idx]
	be := ctr.be
	var one [1]*backend.Result // a batch of one's result (solve)
	for {
		if !s.gateWorker(idx, ctr, src) {
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
		if s.gated(idx) {
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
		n := copy(s.queue, s.queue[1:]) // the backing array stays for the next append
		s.queue[n] = nil                // the vacated slot must not pin a job
		s.queue = s.queue[:n]
		s.queuedMicros -= head.est
		s.inflightMicros += head.est
		s.mu.Unlock()

		var popAt time.Time
		if s.cfg.Telemetry != nil {
			popAt = s.now()
		}
		batch := []*job{head}
		slots := 1
		if bb, ok := be.(backend.BatchBackend); ok && !s.cfg.DisableBatch {
			if slots = bb.BatchSlots(head.p); slots > 1 {
				s.mu.Lock()
				batch = s.gatherLocked(head, slots)
				s.mu.Unlock()
			}
		}
		if s.cfg.Telemetry != nil {
			// The head waited until it was popped and is charged the run
			// assembly (slot resolution + gathering); batch riders stayed
			// effectively queued until gathering finished. Spans stay
			// disjoint so they partition each request's e2e.
			gatherEnd := s.now()
			head.tr.Stages[telemetry.StageQueue] = micros(popAt.Sub(head.admittedAt))
			head.tr.Stages[telemetry.StageGather] = micros(gatherEnd.Sub(popAt))
			for _, j := range batch[1:] {
				j.tr.Stages[telemetry.StageQueue] = micros(gatherEnd.Sub(j.admittedAt))
			}
		}

		// Jobs whose submitter already gave up end here, unsolved.
		live := batch[:0]
		for _, j := range batch {
			if err := j.ctx.Err(); err != nil {
				s.mu.Lock()
				s.finish(j, nil, nil, err, time.Time{}, time.Time{}, 0)
				s.releaseLocked(j)
				s.mu.Unlock()
				continue
			}
			live = append(live, j)
		}
		if len(live) == 0 {
			continue
		}

		started := s.now()
		results, err := s.solve(be, live, slots, src, one[:])
		solveEnd := s.now()

		s.mu.Lock()
		ctr.charge(micros(solveEnd.Sub(started)))
		if err != nil {
			results = make([]*backend.Result, len(live)) // a failed run answers no job
		}
		for i, j := range live {
			s.finish(j, ctr, results[i], err, started, solveEnd, len(live))
			s.releaseLocked(j)
		}
		s.mu.Unlock()
		one[0] = nil // the worker must not pin an answer
	}
}

// gatherLocked extends an already-popped head job with batch-compatible
// queued jobs (backend.Batchable: same logical spin count and agreeing
// anneal schedule) up to the backend's slot capacity. For a head carrying a
// Window, queued symbols from the SAME coherence window (equal key — the
// channel is already programmed on the backend's compiled-channel cache)
// claim the run's slots first, and only leftover slots go to other
// batch-compatible jobs; an un-keyed head has no window and every free slot
// is a leftover. Within each class FIFO order is preserved, and the batch
// itself stays in queue order so FIFO fairness inside one run is untouched.
// Estimates move from queued to in-flight.
func (s *Scheduler) gatherLocked(head *job, slots int) []*job {
	key := head.p.Window.Key()
	sameWindow := func(j *job) bool { return key != 0 && j.p.Window.Key() == key }
	// First pass: how many free slots the head's window claims.
	same, other := 0, slots-1
	if key != 0 {
		for _, j := range s.queue {
			if other > 0 && sameWindow(j) && backend.Batchable(head.p, j.p) {
				same++
				other--
			}
		}
	}
	// Second pass: take that many same-window jobs and fill the leftover
	// slots with any other batch-compatible job, in queue order.
	batch := []*job{head}
	kept := s.queue[:0]
	for _, j := range s.queue {
		free := &other
		if sameWindow(j) {
			free = &same
		}
		if *free > 0 && backend.Batchable(head.p, j.p) {
			*free--
			s.queuedMicros -= j.est
			s.inflightMicros += j.est
			batch = append(batch, j)
			continue
		}
		kept = append(kept, j)
	}
	clear(s.queue[len(kept):]) // dropped slots must not pin jobs
	s.queue = kept
	return batch
}

// solve runs one batch (possibly of size 1, whose result it returns in one,
// the worker's) on be and updates batching counters. slots is the capacity
// the worker already resolved for this run. A panic in the backend fails the
// whole batch with a *PanicError.
func (s *Scheduler) solve(be backend.Backend, batch []*job, slots int, src *rng.Source, one []*backend.Result) (_ []*backend.Result, err error) {
	defer containPanic(be, &err)
	if len(batch) == 1 {
		one[0], err = be.Solve(batch[0].ctx, batch[0].p, src)
		return one, err
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
	wallMicros := micros(s.now().Sub(s.start))
	st := metrics.PoolStats{
		UptimeMicros:       wallMicros,
		QueueDepth:         len(s.queue),
		Submitted:          s.submitted,
		Completed:          s.completed,
		Failed:             s.failed,
		FallbackDispatches: s.fallbackDispatches,
		PlannerClassical:   s.plannerClassical,
		Certified:          s.certified,
		DeadlineMisses:     s.misses,
		BatchRuns:          s.batchRuns,
		BatchedProblems:    s.batchedProblems,
		SoftSolved:         s.softSolved,
		LLRSaturations:     s.llrSaturations,
		StoppedEarly:       s.stoppedEarly,
	}
	if s.batchRuns > 0 {
		st.SlotOccupancy = s.occupancySum / float64(s.batchRuns)
	}
	if len(s.radiusMisses) > 0 {
		st.RadiusMisses = make(map[string]uint64, len(s.radiusMisses))
	}
	for c, n := range s.radiusMisses {
		st.RadiusMisses[telemetry.Class(c.mod.String(), c.users)] = n
	}
	// Channel-cache counters live in the backends' decoders; aggregate over
	// distinct instances so a pool listing one backend behind several workers
	// counts its cache once.
	type channelCacheStatser interface {
		ChannelCacheStats() metrics.ChannelCacheStats
	}
	seen := make(map[backend.Backend]bool, len(s.counters))
	for _, c := range s.counters {
		if cs, ok := c.be.(channelCacheStatser); ok && !seen[c.be] {
			seen[c.be] = true
			st.ChannelCache = st.ChannelCache.Add(cs.ChannelCacheStats())
		}
		bs := metrics.BackendStats{
			Name:          c.caps.Name,
			Solved:        c.solved,
			Errors:        c.errors,
			BusyMicros:    c.busyMicros,
			SpendMicroUSD: c.spendMicroUSD,
			EnergyMilliJ:  c.energyMilliJ,
			ReadsPlanned:  c.readsPlanned,
			ReadsRun:      c.readsRun,
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
	fb := "none"
	if s.fallbackCounters != nil {
		fb = s.fallbackCounters.caps.Name
	}
	return fmt.Sprintf("sched: pool=%v fallback=%s default-deadline=%s batch=%t planner=%t cost-aware=%t",
		s.poolNames, fb, s.cfg.DefaultDeadline, !s.cfg.DisableBatch, s.cfg.Planner != nil, s.cfg.CostAware)
}
