package anneal

// The statistical reference for the device simulator: the pre-engine sweep —
// every local field recomputed from the adjacency on every visit, math.Exp
// and one rng.Source draw per uphill proposal — kept here, in test code only,
// so the engine's device reads can be held to the same Markov chain. The two
// cannot be compared bit for bit (different random streams, a tabulated
// exponential), so the comparison is distributional, on the three probes
// calibrate.go fixed the machine constants against: success counts over a
// fixed number of anneals within a stated binomial tolerance, and per-sweep
// flip rate and uphill share within 1%.

import (
	"math"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/embedding"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// refMachine is the old simulator's per-worker state over one program.
type refMachine struct {
	m      *Machine
	n      int
	h      []float64         // rescaled fields
	edges  []qubo.SparseEdge // rescaled weights
	adjIdx [][]int32         // per spin: indices into edges
	adjNbr [][]int32         // per spin: the other endpoint
	spins  []int8
	hPert  []float64 // ICE-perturbed fields for the current anneal
	jPert  []float64 // ICE-perturbed edge weights
}

func newRefMachine(m *Machine, prog *qubo.Sparse, improved bool) *refMachine {
	scale := m.Scale(prog, improved)
	r := &refMachine{
		m: m, n: prog.N,
		h:      make([]float64, prog.N),
		edges:  make([]qubo.SparseEdge, len(prog.Edges)),
		adjIdx: make([][]int32, prog.N),
		adjNbr: make([][]int32, prog.N),
		spins:  make([]int8, prog.N),
		hPert:  make([]float64, prog.N),
		jPert:  make([]float64, len(prog.Edges)),
	}
	for i, v := range prog.H {
		r.h[i] = v / scale
	}
	for idx, e := range prog.Edges {
		r.edges[idx] = qubo.SparseEdge{I: e.I, J: e.J, W: e.W / scale}
		r.adjIdx[e.I] = append(r.adjIdx[e.I], int32(idx))
		r.adjNbr[e.I] = append(r.adjNbr[e.I], int32(e.J))
		r.adjIdx[e.J] = append(r.adjIdx[e.J], int32(idx))
		r.adjNbr[e.J] = append(r.adjNbr[e.J], int32(e.I))
	}
	return r
}

// local recomputes spin i's local field from scratch.
func (r *refMachine) local(i int) float64 {
	f := r.hPert[i]
	for k, nb := range r.adjNbr[i] {
		f += r.jPert[r.adjIdx[i][k]] * float64(r.spins[nb])
	}
	return f
}

// sweep is the old Metropolis pass, verbatim.
func (r *refMachine) sweep(beta float64, src *rng.Source) {
	for i := 0; i < r.n; i++ {
		dE := -2 * float64(r.spins[i]) * r.local(i)
		if dE <= 0 || src.Float64() < math.Exp(-beta*dE) {
			r.spins[i] = -r.spins[i]
		}
	}
}

// anneal is the old forward annealing cycle, verbatim: ICE draw (fields,
// then couplers), random start, geometric ramp with the pause inserted.
// after is called with −1 once the start state is drawn, then with the
// sweep's ordinal once every sweep has finished.
func (r *refMachine) anneal(params Params, src *rng.Source, after func(sweep int)) {
	m, ice := r.m, r.m.ICE
	for i := range r.h {
		r.hPert[i] = r.h[i]
		if ice.Enabled {
			r.hPert[i] += src.Gauss(ice.HMean, ice.HStd)
		}
	}
	for i := range r.edges {
		r.jPert[i] = r.edges[i].W
		if ice.Enabled {
			r.jPert[i] += src.Gauss(ice.JMean, ice.JStd)
		}
	}
	for i := range r.spins {
		if src.Bool() {
			r.spins[i] = 1
		} else {
			r.spins[i] = -1
		}
	}
	after(-1)
	rampSweeps := int(math.Round(m.SweepsPerMicrosecond * params.AnnealTimeMicros))
	pauseSweeps := int(math.Round(m.SweepsPerMicrosecond * params.PauseTimeMicros))
	pauseAt := int(params.PausePosition * float64(rampSweeps))
	logRatio := math.Log(m.BetaFinal / m.BetaInitial)
	beta := func(sweep int) float64 {
		return m.BetaInitial * math.Exp(logRatio*float64(sweep)/float64(rampSweeps-1))
	}
	done := 0
	for sweep := 0; sweep < rampSweeps; sweep++ {
		r.sweep(beta(sweep), src)
		after(done)
		done++
		if pauseSweeps > 0 && sweep == pauseAt {
			for k := 0; k < pauseSweeps; k++ {
				r.sweep(beta(sweep), src)
				after(done)
				done++
			}
		}
	}
}

// chainStats accumulates, per sweep ordinal, how many spins the sweep flipped
// and how many spins face an uphill flip (dE > 0) in the state it left.
type chainStats struct {
	flips, uphill []int
	success       int
}

// rates turns the counts into per-sweep shares of all spin visits.
func (c *chainStats) rates(visitsPerSweep int) (flip, uphill []float64) {
	flip, uphill = make([]float64, len(c.flips)), make([]float64, len(c.flips))
	for s := range c.flips {
		flip[s] = float64(c.flips[s]) / float64(visitsPerSweep)
		uphill[s] = float64(c.uphill[s]) / float64(visitsPerSweep)
	}
	return flip, uphill
}

// observe folds one finished sweep into the stats: prev is the state before
// it (updated in place), spins the state after, field(i) spin i's local
// field recomputed from scratch.
func (c *chainStats) observe(sweep int, prev, spins []int8, field func(i int) float64) {
	for i, v := range spins {
		if v != prev[i] {
			c.flips[sweep]++
		}
		if float64(v)*field(i) < 0 {
			c.uphill[sweep]++
		}
	}
	copy(prev, spins)
}

// probe is one calibration workload: a physical program, its run knobs, and
// the predicate that says a final state solved it.
type probe struct {
	name     string
	prog     *qubo.Sparse
	improved bool
	ice      bool
	params   Params
	anneals  int
	solved   func(spins []int8) bool
}

// calibrationProbes rebuilds the three workloads of calibrate.go (the glass
// twice: without and with the pause).
func calibrationProbes(t *testing.T) []probe {
	t.Helper()
	ferro := qubo.NewSparse(16)
	for i := 0; i < 15; i++ {
		ferro.AddEdge(i, i+1, -1)
	}
	ferro.H[0] = -0.5 // break symmetry: prefer all +1

	embedded := func(logical *qubo.Ising, jf float64) (*qubo.Sparse, func([]int8) bool) {
		emb, err := embedding.Embed(chimera.New(4), logical.N)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := emb.EmbedIsing(logical, jf, true)
		if err != nil {
			t.Fatal(err)
		}
		_, ground := qubo.BruteForceIsing(logical)
		return ep.Phys, func(spins []int8) bool {
			e, _, _ := ep.UnembeddedEnergy(spins, nil)
			return math.Abs(e-ground) < 1e-9
		}
	}
	gsrc := rng.New(10)
	glass := qubo.NewIsing(12)
	for i := 0; i < 12; i++ {
		glass.H[i] = gsrc.Gauss(0, 0.3)
		for j := i + 1; j < 12; j++ {
			glass.SetJ(i, j, gsrc.Gauss(0, 1))
		}
	}
	glassProg, glassSolved := embedded(glass, 3)
	in, err := mimo.Generate(rng.New(12), mimo.Config{
		Mod: modulation.BPSK, Nt: 12, Nr: 12, Channel: channel.RandomPhase{}, SNRdB: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	mimoProg, mimoSolved := embedded(reduction.ReduceToIsing(in.Mod, in.H, in.Y), 4)

	pause := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35}
	return []probe{
		{"ferromagnet", ferro, false, false, Params{AnnealTimeMicros: 1}, 6000, func(spins []int8) bool {
			for _, v := range spins {
				if v != 1 {
					return false
				}
			}
			return true
		}},
		{"glass", glassProg, true, true, Params{AnnealTimeMicros: 1}, 3000, glassSolved},
		{"glass-pause", glassProg, true, true, pause, 3000, glassSolved},
		{"bpsk12", mimoProg, true, true, pause, 2000, mimoSolved},
	}
}

// TestDeviceReadsMatchReferenceChain holds the engine's device reads to the
// old simulator's statistics on the calibration probes. It drives the reads
// sweep by sweep through the same deviceRead the machine's workers use, and
// on the way asserts that the cached doubled fields never drift from a
// from-scratch recompute.
func TestDeviceReadsMatchReferenceChain(t *testing.T) {
	for _, pr := range calibrationProbes(t) {
		t.Run(pr.name, func(t *testing.T) {
			m := NewMachine()
			m.ICE.Enabled = pr.ice
			betas := ScheduleFromParams(m, pr.params).betas()
			newStats := func() *chainStats {
				return &chainStats{flips: make([]int, len(betas)), uphill: make([]int, len(betas))}
			}
			prev := make([]int8, pr.prog.N)

			ref, refStats := newRefMachine(m, pr.prog, pr.improved), newStats()
			src := rng.New(91)
			for a := 0; a < pr.anneals; a++ {
				ref.anneal(pr.params, src, func(sweep int) {
					if sweep < 0 {
						copy(prev, ref.spins)
						return
					}
					refStats.observe(sweep, prev, ref.spins, ref.local)
				})
				if pr.solved(ref.spins) {
					refStats.success++
				}
			}

			pp := m.PrepareProgram(pr.prog, pr.improved)
			scale := pp.scale(pr.prog.H)
			rd, engStats := new(deviceRead), newStats()
			rd.warm([]Slot{{PP: pp}})
			sigma := func(i int32) float64 { return float64(rd.s.spins[i]) }
			for a := 0; a < pr.anneals; a++ {
				rd.begin(pp, pr.prog.H, scale, m.ICE, nil, 92, a)
				copy(prev, rd.s.spins)
				for s, beta := range betas {
					rd.s.SetBeta(beta)
					rd.s.Sweep()
					engStats.observe(s, prev, rd.s.spins, func(i int) float64 {
						lam := rd.k.localField2(i, sigma)
						if math.Abs(lam-rd.s.lam[i]) > 1e-9 {
							t.Fatalf("anneal %d sweep %d: cached field of spin %d is %v, recomputed %v",
								a, s, i, rd.s.lam[i], lam)
						}
						return lam
					})
				}
				if pr.solved(rd.s.spins) {
					engStats.success++
				}
			}

			// Success counts: two independent binomial samples of the same
			// rate differ by N(0, 2·A·p(1−p)); allow four standard deviations
			// at the pooled rate (false alarm < 1e-4 per probe).
			p := float64(refStats.success+engStats.success) / float64(2*pr.anneals)
			tol := 4 * math.Sqrt(2*float64(pr.anneals)*p*(1-p))
			if d := math.Abs(float64(refStats.success - engStats.success)); d > tol {
				t.Errorf("success over %d anneals: reference %d, engine %d (|Δ| %.0f > %.1f)",
					pr.anneals, refStats.success, engStats.success, d, tol)
			}
			t.Logf("success over %d anneals: reference %d, engine %d (tolerance %.1f)",
				pr.anneals, refStats.success, engStats.success, tol)

			visits := pr.anneals * pr.prog.N
			refFlip, refUp := refStats.rates(visits)
			engFlip, engUp := engStats.rates(visits)
			for s := range betas {
				if d := math.Abs(refFlip[s] - engFlip[s]); d > 0.01 {
					t.Errorf("sweep %d: flip rate reference %.4f, engine %.4f", s, refFlip[s], engFlip[s])
				}
				if d := math.Abs(refUp[s] - engUp[s]); d > 0.01 {
					t.Errorf("sweep %d: uphill share reference %.4f, engine %.4f", s, refUp[s], engUp[s])
				}
			}
		})
	}
}
