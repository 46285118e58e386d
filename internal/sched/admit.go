package sched

import (
	"math"
	"time"

	"quamax/internal/backend"
	"quamax/internal/qos"
	"quamax/internal/softout"
)

// CertificateBackend is the Result.Backend (and trace backend) of a request
// the certificate search answered at admission: no backend ran it.
const CertificateBackend = "certificate"

// route is the way admission sends a request: routeCertified is answered at
// admission, routeQueue joins the pool's queue, and every other route solves
// on the fallback backend.
type route uint8

const (
	routeQueue             route = iota
	routePlannerDenied           // the TTS model says the annealer cannot meet the target
	routeCostDivert              // the fallback is strictly cheaper and classically safe
	routeDeadlineProjected       // projected queue wait + service time blows the deadline
	routeCertified               // the certificate search proved its answer ML
)

var routeNames = [...]string{
	routeQueue:             "queue",
	routePlannerDenied:     "planner_denied",
	routeCostDivert:        "cost_divert",
	routeDeadlineProjected: "deadline_projected",
	routeCertified:         "certified",
}

// String is the route's name on a trace (telemetry.Trace.Route).
func (r route) String() string { return routeNames[r] }

// decision is admission's answer for one request: its route and what the
// route runs.
type decision struct {
	route  route
	p      *backend.Problem // the problem to run: a planned copy, or the caller's own
	proved *backend.Result  // the ML answer (routeCertified)
	nodes  int              // tree nodes the certificate search visited (0: none ran)
	est    float64          // the pool's best-case service time (µs), when it was priced
}

// admit decides p's route, outside the scheduler lock, in the order the
// rules bind: certificate, planner, cost. Only a problem carrying a target
// BER (its own, else Config.DefaultTargetBER), with a Planner configured, is
// searched and planned; any other goes on as the caller's own.
//
// One read through its window's sphere program (a fresh one for a problem
// without a window) gives the SNR, the zero-forcing residual and a
// certificate search of qos.CertifyNodes nodes seeded with the zero-forcing
// decision — for a soft problem, clipped at its LLR spec, so a finished
// search also holds its exact clamped max-log LLRs. A finished search has
// proved its answer, and the planner is never asked. The answer is built on
// Dispatch's own goroutine, so it lands in the storage p.Answer lends
// (backend.Problem.Answer); with none lent it is a new Result. Otherwise the
// problem is planned (plan) exactly as it would have been without the
// search, and a denial with a Fallback to deny to is final.
//
// Whatever is left is priced on the pool's health-gated serving set, read
// once: the best-case service time and the cheapest spend. Cost-aware
// dispatch diverts on Config.CostAware's three conditions: the fallback
// meets the deadline, the decode is classically safe, and the fallback is
// strictly cheaper. Hard SNR classes never divert: their large read budgets
// are exactly where the TTS table says QPU time pays for itself. The one
// rule that reads the queue, routeDeadlineProjected, is Dispatch's, under
// the lock.
func (s *Scheduler) admit(p *backend.Problem, deadline time.Duration) decision {
	d := decision{p: p}
	target := p.TargetBER
	if target == 0 {
		target = s.cfg.DefaultTargetBER
	}
	if s.cfg.Planner != nil && target > 0 {
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
		d.nodes = est.Nodes
		if est.Proved {
			res := p.Answer
			if res == nil {
				res = new(backend.Result)
			}
			*res = backend.Result{
				Bits: est.Bits, Energy: est.Metric, LLRs: est.LLRs, LLRSaturated: est.LLRSaturated,
				Backend: CertificateBackend,
			}
			d.route, d.proved = routeCertified, res
			return d
		}
		var denied bool
		if d.p, denied = s.plan(p, target, deadline, est); denied && s.cfg.Fallback != nil {
			d.route = routePlannerDenied
			return d
		}
	}
	spend := math.Inf(1)
	d.est = math.Inf(1)
	for i, c := range s.counters[:len(s.cfg.Pool)] {
		if s.gated(i) {
			continue // a quarantined member takes no regular work
		}
		e := c.caps.PredictMicros(d.p)
		if e < d.est {
			d.est = e
		}
		spend = min(spend, c.caps.SpendMicroUSD(e))
	}
	if math.IsInf(d.est, 1) {
		d.est = s.counters[0].caps.PredictMicros(d.p)
	}
	if fb := s.fallbackCounters; s.cfg.CostAware && fb != nil {
		fbEst := fb.caps.PredictMicros(d.p)
		safe := d.p.TargetBER <= 0 || (d.p.Anneal != nil && d.p.Anneal.NumAnneals <= DefaultCostEasyReads)
		if (deadline <= 0 || fbEst <= micros(deadline)) && safe && fb.caps.SpendMicroUSD(fbEst) < spend {
			d.route = routeCostDivert
		}
	}
	return d
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
func (s *Scheduler) plan(p *backend.Problem, target float64, deadline time.Duration, est qos.Estimate) (*backend.Problem, bool) {
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
	// With no classical solver to deny to, a deadline-driven denial still
	// carries the clamped best-effort budget — strictly better than running
	// the static configuration.
	if !plan.Quantum && (s.cfg.Fallback != nil || plan.Params.NumAnneals < 1) {
		if s.cfg.Fallback == nil && plan.PT == nil {
			return p, true
		}
		// A denied solve carries the repeat rule (only ClassicalSA reads it),
		// and a PT-aware planner's replica-exchange budget rides along, on a
		// copy (callers reuse Problems).
		q := *p
		q.TargetBER = target
		q.PT = plan.PT
		q.StopRepeats = qos.StopRepeats
		return &q, true
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
	return &q, false
}
