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
// stand-in for the QPU (ParaMax; Kim et al., MobiCom 2021), running the
// bit-parallel multi-spin engine underneath. Like ClassicalSA its latency is
// a deterministic function of the configured effort, so the QoS planner can
// size a per-request budget (Problem.PT) exactly as it sizes anneal reads.
type ParallelTempering struct {
	name string
	// PT holds the default effort knobs; mutate before first use only.
	PT *detector.ParallelTempering
	// MicrosPerSpinSweep calibrates the latency model: one packed Metropolis
	// update of one spin across one ladder lane costs about this much wall
	// time. It only steers admission, not correctness.
	MicrosPerSpinSweep float64

	caps *Capabilities
}

// DefaultPTMicrosPerSpinSweep is the measured per-spin-per-rung update cost
// of the multi-spin inner loop on a current x86 core: the bit-packed engine
// amortizes one CSR walk over a whole ladder. (ClassicalSA's restarts run on
// the same engine; its constants were re-fitted separately, see
// DefaultMicrosPerSpinSweep.)
const DefaultPTMicrosPerSpinSweep = 0.0008

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
		Name:          name,
		Latency:       c.estimate,
		Cost:          DefaultClassicalCostModel,
		MaxBatchSlots: 1,
		Features:      FeatureSoft | FeaturePT,
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
// cost: sweeps × rungs × ladders × N packed spin updates (zero knobs priced
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
	out := &Result{
		Bits:          res.Bits,
		Energy:        res.Metric,
		ComputeMicros: float64(time.Since(start)) / float64(time.Microsecond),
		Backend:       c.name,
		Batched:       1,
	}
	fillClassicalSoft(p, out)
	return out, nil
}
