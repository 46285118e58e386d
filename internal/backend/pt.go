package backend

import (
	"context"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/detector"
	"quamax/internal/rng"
)

// ParallelTempering adapts the replica-exchange solver (internal/detector
// over anneal.RunPT) to the Backend interface — the strongest classical
// stand-in for the QPU (ParaMax; Kim et al., MobiCom 2021), every rung of
// every ladder one scalar twin of the Metropolis engine. Like ClassicalSA its
// latency is a deterministic function of the configured effort, so the QoS
// planner can size a per-request budget (Problem.PT) exactly as it sizes
// anneal reads.
type ParallelTempering struct {
	name string
	// PT holds the default effort knobs; mutate before first use only.
	PT *detector.ParallelTempering
	// MicrosPerSpinSweep calibrates the latency model: one Metropolis visit
	// of one spin on one rung costs about this much wall time. It only
	// steers admission, not correctness.
	MicrosPerSpinSweep float64

	caps *Capabilities
}

// DefaultPTMicrosPerSpinSweep is the per-spin-per-rung visit cost of a
// tempering ladder on the scalar replica runner (anneal.RunPT: one MSScalar
// twin per rung), fitted to BenchmarkParallelTempering (16 rungs × 4 ladders
// × 100 sweeps, -cpu 1, 2.1 GHz Xeon): 1.65 / 5.6 / 9.7 ms per decode at
// N = 16 / 36 / 48 logical spins (the middle of two sessions' medians, as for
// DefaultMicrosPerSpinSweep), i.e. 0.0161 / 0.0243 / 0.0316 µs per visit. A
// rung's visit costs what an SA restart's does plus the hot rungs' higher
// acceptance — nothing is amortized across rungs. Under estimate's
// (1 + N/64) size factor, which the QoS planner mirrors, the constant is the
// geometric middle of the three rows: est/meas reads 1.19 / 0.98 / 0.85.
const DefaultPTMicrosPerSpinSweep = 0.0153

// NewParallelTempering builds the PT backend with the given per-ladder
// effort (zero knobs take the engine defaults: 16 rungs, 4 ladders, 100
// sweeps, auto β ladder).
func NewParallelTempering(name string, rungs, ladders, sweeps int) *ParallelTempering {
	c := &ParallelTempering{
		name:               name,
		PT:                 detector.NewParallelTempering(rungs, ladders, sweeps),
		MicrosPerSpinSweep: DefaultPTMicrosPerSpinSweep,
	}
	c.caps = &Capabilities{
		Name:    name,
		Latency: c.estimate,
		Cost:    DefaultClassicalCostModel,
	}
	return c
}

// Describe implements Backend: the strongest classical stand-in for the QPU,
// priced at the classical core cost model, honoring per-request PT budgets
// and answering soft requests with saturated LLRs.
func (c *ParallelTempering) Describe() *Capabilities { return c.caps }

// params resolves the effective run knobs for one problem: the per-request
// planner override when present, the backend defaults otherwise.
func (c *ParallelTempering) params(p *Problem) anneal.PTParams {
	if p.PT != nil {
		return *p.PT
	}
	return c.PT.Params
}

// estimate is the descriptor's latency hook, modeling the deterministic PT
// cost: sweeps × rungs × ladders × N spin visits (zero knobs priced
// at the engine defaults). The super-linear local-field scatter cost in N is
// folded into the per-spin constant at the pool's typical sizes.
func (c *ParallelTempering) estimate(p *Problem) float64 {
	pt := c.params(p)
	rungs, ladders, sweeps := pt.Rungs, pt.Ladders, pt.Sweeps
	if rungs == 0 {
		rungs = 16
	}
	if ladders == 0 {
		ladders = 4
	}
	if sweeps == 0 {
		sweeps = 100
	}
	n := float64(p.LogicalSpins())
	return float64(sweeps) * float64(rungs) * float64(ladders) * n *
		c.MicrosPerSpinSweep * (1 + n/64)
}

// Solve runs replica exchange on the problem's logical Ising form.
func (c *ParallelTempering) Solve(ctx context.Context, p *Problem, src *rng.Source) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	solver := c.PT
	if p.PT != nil {
		solver = &detector.ParallelTempering{Params: *p.PT, Workers: c.PT.Workers}
	}
	res, err := solver.Decode(p.Mod, p.H, p.Y, src)
	if err != nil {
		return nil, err
	}
	return classicalAnswer(p, c.name, res.Bits, res.Metric, float64(time.Since(start))/float64(time.Microsecond)), nil
}
