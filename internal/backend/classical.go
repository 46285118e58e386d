package backend

import (
	"context"
	"sync"
	"time"

	"quamax/internal/detector"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// classicalAnswer is a classical single-solution answer to p in the storage
// p lends (Problem.Answer), else in a new Result: the decision's bits and
// metric, and for a soft problem saturated LLRs — one candidate means every
// bit is "certain", so they saturate to ±clamp from the hard decision
// (softout.Saturated) and every entry counts as saturated. Feeding these to
// the soft Viterbi provably reproduces hard-decision decoding, so a soft
// request that falls back to a classical solver degrades gracefully instead
// of failing. micros is the solve's measured wall time.
func classicalAnswer(p *Problem, name string, bits []byte, metric, micros float64) *Result {
	res := answerFor(p, name)
	if p.Answer == nil {
		res.Bits = bits // a new Result owns the solver's new bits
	} else {
		res.Bits = append(res.Bits, bits...)
	}
	res.Energy, res.ComputeMicros, res.Batched = metric, micros, 1
	if p.Soft {
		res.LLRs = softout.AppendSaturated(res.LLRs, res.Bits, p.LLRClamp)
		res.LLRSaturated = len(res.LLRs)
	}
	return res
}

// ClassicalSA adapts the logical-space simulated-annealing baseline
// (internal/detector) to the Backend interface — the software solver a data
// center can run today on a conventional CPU (§6), and the natural deadline
// fallback of a hybrid pool: its latency is a deterministic function of the
// configured effort, with no queue behind a scarce chip.
type ClassicalSA struct {
	name string
	// SA holds the annealing effort knobs; mutate before first use only.
	SA *detector.ClassicalSA
	// MicrosPerSpinSweep calibrates the latency model: visiting one spin of
	// one restart costs about this much wall time before any flip lands. The
	// default is measured on the bench harness; it only steers admission,
	// not correctness.
	MicrosPerSpinSweep float64

	caps *Capabilities
}

// DefaultMicrosPerSpinSweep and saNeighborsPerVisit are fitted to
// BenchmarkClassicalSA (128 sweeps × 100 restarts, -cpu 1, 2.1 GHz Xeon) on
// the scalar replica runner (anneal.RunMultiSpin: one MSScalar twin per
// restart): 3.1 / 10.8 / 18.2 ms per decode at N = 16 / 36 / 48 logical
// spins (the middle of two sessions' medians, 3.2 / 11.1 / 19.3 and
// 3.0 / 10.4 / 17.0 — the host drifts that much between hours), i.e.
// 0.0152 / 0.0233 / 0.0295 µs per spin visit — a fixed part (the sign
// transfer and the Metropolis draw) plus a part linear in the spin's N−1
// neighbors (the logical problem is fully connected, and an accepted flip
// scatters into every neighbor's cached field). The fit predicts the three
// rows of either session to within 7% (the benchmark's est/meas metric).
const (
	DefaultMicrosPerSpinSweep = 0.0084
	// saNeighborsPerVisit is how many neighbor updates cost as much as the
	// fixed part of a visit, averaged over the schedule's acceptance rate.
	saNeighborsPerVisit = 18.7
)

// NewClassicalSA builds the SA backend with the given effort (restarts ≈ Na
// for parity with the QPU, per detector.NewClassicalSA).
func NewClassicalSA(name string, sweeps, restarts int) *ClassicalSA {
	c := &ClassicalSA{
		name:               name,
		SA:                 detector.NewClassicalSA(sweeps, restarts),
		MicrosPerSpinSweep: DefaultMicrosPerSpinSweep,
	}
	c.caps = &Capabilities{
		Name:    name,
		Latency: c.estimate,
		Cost:    DefaultClassicalCostModel,
	}
	return c
}

// Describe implements Backend: a conventional single-solution CPU solver,
// priced at the classical core cost model, answering soft requests with
// saturated LLRs.
func (c *ClassicalSA) Describe() *Capabilities { return c.caps }

// estimate is the descriptor's latency hook, modeling the deterministic SA
// cost: sweeps × restarts × N spin visits, each a fixed part plus its share
// of the N−1 neighbor updates an accepted flip pays. With Problem.StopRepeats
// set the restarts are a cap, so this is an upper bound, used for admission
// only.
func (c *ClassicalSA) estimate(p *Problem) float64 {
	n := float64(p.LogicalSpins())
	return float64(c.SA.Sweeps) * float64(c.SA.Restarts) * n * c.MicrosPerSpinSweep * (1 + (n-1)/saNeighborsPerVisit)
}

// Solve anneals the problem's logical Ising form directly, restarting until
// the configured count, or until Problem.StopRepeats of them agree on the best.
func (c *ClassicalSA) Solve(ctx context.Context, p *Problem, src *rng.Source) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := c.SA.DecodeUntil(p.Mod, p.H, p.Y, p.StopRepeats, src)
	if err != nil {
		return nil, err
	}
	out := classicalAnswer(p, c.name, res.Bits, res.Metric, float64(time.Since(start))/float64(time.Microsecond))
	out.Reads, out.ReadsPlanned = res.Restarts, c.SA.Restarts
	return out, nil
}

// Sphere adapts the exact Schnorr–Euchner sphere decoder (§2.1) to the
// Backend interface: the throughput-optimal classical reference whose
// latency is input-dependent (exponential worst case, Table 1). Because no
// closed-form cost model exists, the descriptor's latency hook is a measured
// exponential moving average per problem shape, seeded with PriorMicros.
type Sphere struct {
	name string
	// Opts tune the underlying search; set MaxVisitedNodes to bound
	// worst-case latency (exhausted searches return the best leaf found).
	Opts detector.SphereOptions
	// PriorMicros seeds the latency estimate before any measurement.
	PriorMicros float64

	caps *Capabilities

	mu   sync.Mutex
	ewma map[sphereKey]float64
}

type sphereKey struct {
	mod   byte
	users int
}

// NewSphere builds the sphere-decoder backend. maxVisitedNodes bounds each
// search (0 = unlimited — beware exponential tails at low SNR).
func NewSphere(name string, maxVisitedNodes int) *Sphere {
	s := &Sphere{
		name:        name,
		Opts:        detector.SphereOptions{MaxVisitedNodes: maxVisitedNodes},
		PriorMicros: 500,
		ewma:        make(map[sphereKey]float64),
	}
	s.caps = &Capabilities{
		Name:    name,
		Latency: s.estimate,
		Cost:    DefaultClassicalCostModel,
	}
	return s
}

// Describe implements Backend: the exact classical reference solver, priced
// at the classical core cost model, answering soft requests with saturated
// LLRs.
func (s *Sphere) Describe() *Capabilities { return s.caps }

// estimate is the descriptor's latency hook: the moving-average measured
// latency for this problem shape, or the prior if the shape has not been
// solved yet.
func (s *Sphere) estimate(p *Problem) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if est, ok := s.ewma[sphereKey{byte(p.Mod), p.Users()}]; ok {
		return est
	}
	return s.PriorMicros
}

// Solve runs the exact tree search — on the window's sphere program when the
// problem carries its window, else on a fresh factorization of H — and folds
// the measured latency back into the estimate (EWMA, α = 1/4).
func (s *Sphere) Solve(ctx context.Context, p *Problem, src *rng.Source) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := p.Window.SphereFor(p.Mod, p.H).Decode(p.Y, s.Opts)
	elapsed := float64(time.Since(start)) / float64(time.Microsecond)
	key := sphereKey{byte(p.Mod), p.Users()}
	s.mu.Lock()
	if old, ok := s.ewma[key]; ok {
		s.ewma[key] = old + (elapsed-old)/4
	} else {
		s.ewma[key] = elapsed
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return classicalAnswer(p, s.name, res.Bits, res.Metric, elapsed), nil
}
