// Package anneal simulates the D-Wave 2000Q quantum annealer that QuAMax
// runs on (paper §2.2, §4). It is the repository's substitute for the real
// QPU: problems arrive already embedded on the Chimera graph as sparse
// physical Ising programs (see internal/embedding), and every device
// mechanism the paper's evaluation manipulates is reproduced:
//
//   - Analog programming range. Fields are clipped to h ∈ [−2,2] and
//     couplers to J ∈ [−1,+1]; the "improved coupling dynamic range" option
//     (§4) extends valid negative couplers to −2. Out-of-range programs are
//     auto-scaled down, which is what squeezes problem information when
//     |J_F| is set too large.
//   - ICE (intrinsic control error). Every anneal perturbs the programmed
//     coefficients with Gaussian noise of the magnitude the paper measured:
//     ⟨δf⟩ ≈ 0.008 ± 0.02 and ⟨δg⟩ ≈ −0.015 ± 0.025 (§4).
//   - Annealing schedule. Each anneal performs Metropolis dynamics under an
//     inverse-temperature ramp β(s) that mirrors the A(t)/B(t) signal swap,
//     with the anneal time Ta setting the sweep budget and an optional
//     mid-anneal pause of duration Tp at schedule position sp (§4, [43]).
//   - Batching. A run executes Na anneals (one QA "job", §4) with fresh
//     ICE noise and fresh initial states, parallelized across goroutines
//     with independent deterministic random streams.
//
// The only non-reproduced aspect is the sampler's physics: Metropolis
// dynamics replace quantum dynamics, so absolute success probabilities are
// calibrated (sweeps-per-µs constant) rather than emergent. Every
// experimental shape — J_F washout vs. chain breakage, pause thermalization
// benefit, size scaling, SNR trends — comes out of the same code path the
// paper exercised.
package anneal

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// Params are the per-run user knobs of §4 ("Annealer Parameter Setting").
type Params struct {
	AnnealTimeMicros float64 // Ta ∈ [1, 300] µs on the DW2Q
	PauseTimeMicros  float64 // Tp; 0 disables the pause
	PausePosition    float64 // sp ∈ (0,1), schedule fraction where the pause sits
	NumAnneals       int     // Na, anneals per run (batch size)
}

// DefaultParams returns the paper's chosen operating point (§5.3.1/§5.3.2):
// Ta = 1 µs with a 1 µs pause; the pause position default corresponds to the
// red-circled optimum of Fig. 7.
func DefaultParams() Params {
	return Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 100}
}

// AnnealWallMicros returns the wall-clock compute time of ONE anneal,
// Ta + Tp — the quantity TTB multiplies by Na (§5.3.2: "each anneal in the
// former (Ta + Tp) takes twice as much time").
func (p Params) AnnealWallMicros() float64 { return p.AnnealTimeMicros + p.PauseTimeMicros }

// Validate checks the knobs against device limits.
func (p Params) Validate() error {
	if p.AnnealTimeMicros < 1 || p.AnnealTimeMicros > 300 {
		return fmt.Errorf("anneal: Ta = %g µs outside the DW2Q range [1,300]", p.AnnealTimeMicros)
	}
	if p.PauseTimeMicros < 0 {
		return errors.New("anneal: negative pause time")
	}
	if p.PauseTimeMicros > 0 && (p.PausePosition <= 0 || p.PausePosition >= 1) {
		return fmt.Errorf("anneal: pause position %g outside (0,1)", p.PausePosition)
	}
	if p.NumAnneals < 1 {
		return errors.New("anneal: need at least one anneal")
	}
	return nil
}

// ICEModel is the intrinsic-control-error noise of §4: per-anneal Gaussian
// perturbation of the programmed coefficients.
type ICEModel struct {
	Enabled bool
	HMean   float64 // ⟨δf⟩ mean
	HStd    float64 // ⟨δf⟩ std
	JMean   float64 // ⟨δg⟩ mean
	JStd    float64 // ⟨δg⟩ std
}

// DefaultICE returns the noise magnitudes measured on the DW2Q
// (§4 "Precision Issues"): δf ≈ 0.008 ± 0.02, δg ≈ −0.015 ± 0.025.
func DefaultICE() ICEModel {
	return ICEModel{Enabled: true, HMean: 0.008, HStd: 0.02, JMean: -0.015, JStd: 0.025}
}

// RangeSpec is the analog programming range of the device.
type RangeSpec struct {
	HMax    float64 // |h| limit (2 on the DW2Q)
	JPosMax float64 // positive coupler limit (+1)
	JNegMax float64 // negative coupler magnitude limit (1 standard, 2 improved)
}

// Range returns the device range for the given dynamic-range option.
func Range(improved bool) RangeSpec {
	r := RangeSpec{HMax: 2, JPosMax: 1, JNegMax: 1}
	if improved {
		r.JNegMax = 2
	}
	return r
}

// Machine is the simulated annealer. Fields are calibration constants; the
// zero value is unusable — construct with NewMachine.
type Machine struct {
	// SweepsPerMicrosecond converts Ta/Tp into Metropolis sweep budgets.
	// This is the single calibration constant of the simulator (see calibrate.go).
	SweepsPerMicrosecond float64
	// BetaInitial/BetaFinal bound the geometric inverse-temperature ramp,
	// the classical analog of the A(t)/B(t) signal swap.
	BetaInitial, BetaFinal float64
	// ICE is the control-error model applied to every anneal.
	ICE ICEModel
	// Workers bounds run concurrency (≤ 0 means 1).
	Workers int
}

// NewMachine returns a machine with the repository's calibrated constants
// (see calibrate.go for how they were chosen).
func NewMachine() *Machine {
	return &Machine{
		SweepsPerMicrosecond: CalibratedSweepsPerMicrosecond,
		BetaInitial:          CalibratedBetaInitial,
		BetaFinal:            CalibratedBetaFinal,
		ICE:                  DefaultICE(),
		Workers:              8,
	}
}

// Sample is one anneal outcome: the final physical spin configuration.
type Sample struct {
	Spins []int8
}

// Run executes one QA job: Na anneals of the given physical program under
// params, returning every sample. improvedRange selects the coupler range
// used for the rescale step. The run is deterministic given src.
func (m *Machine) Run(prog *qubo.Sparse, params Params, improvedRange bool, src *rng.Source) ([]Sample, error) {
	if prog.N == 0 {
		return nil, errors.New("anneal: empty program")
	}
	return m.RunPrepared(m.PrepareProgram(prog, improvedRange), prog.H, params, src)
}

// RunPrepared is the prepared-program entry point: it executes one QA job of
// a coupling program prepared once with PrepareProgram, under fresh linear
// fields h. Receivers decoding a coherence window reprogram only the per-spin
// biases between symbols — the device's couplers stay programmed — so the
// adjacency build and coupler range scan of PrepareProgram are not redone per
// symbol. Results are bit-identical to Run on the equivalent full program.
func (m *Machine) RunPrepared(pp *PreparedProgram, h []float64, params Params, src *rng.Source) ([]Sample, error) {
	return m.run(pp, h, params, nil, src)
}

// run is the one worker loop behind every entry point: Na anneals of the
// prepared program under fields h, fanned out over independent deterministic
// random streams. initial == nil runs forward anneals from random states;
// otherwise every anneal is a reverse anneal started from initial.
func (m *Machine) run(pp *PreparedProgram, h []float64, params Params, initial []int8, src *rng.Source) ([]Sample, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(h) != pp.n {
		return nil, fmt.Errorf("anneal: %d fields for a %d-qubit prepared program", len(h), pp.n)
	}
	prepared := m.rescale(pp, h)

	workers := m.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > params.NumAnneals {
		workers = params.NumAnneals
	}
	sources := src.SplitN(workers)
	samples := make([]Sample, params.NumAnneals)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := newAnnealState(prepared, m)
			for a := w; a < params.NumAnneals; a += workers {
				if initial == nil {
					samples[a] = Sample{Spins: st.anneal(params, sources[w])}
				} else {
					samples[a] = Sample{Spins: st.reverseAnneal(params, initial, sources[w])}
				}
			}
		}(w)
	}
	wg.Wait()
	return samples, nil
}

// prepared is the rescaled program plus CSR adjacency.
type prepared struct {
	n      int
	h      []float64
	edges  []qubo.SparseEdge // rescaled weights
	adjIdx [][]int32         // per spin: indices into edges
	adjNbr [][]int32         // per spin: the other endpoint
	scale  float64           // the auto-scale divisor that was applied
}

// PreparedProgram is the field-independent half of a programmed machine: the
// coupler list, its CSR adjacency, and the coupler contribution to the
// analog-range auto-scale. Build it once per compiled channel with
// PrepareProgram; run it with fresh per-symbol fields via RunPrepared. A
// PreparedProgram is immutable and safe for concurrent RunPrepared calls.
type PreparedProgram struct {
	n         int
	improved  bool
	edges     []qubo.SparseEdge // raw (unscaled) weights
	adjIdx    [][]int32         // per spin: indices into edges
	adjNbr    [][]int32         // per spin: the other endpoint
	edgeScale float64           // max over edges of |W|/limit (≥ 0)
}

// N returns the physical qubit count the program was prepared for.
func (pp *PreparedProgram) N() int { return pp.n }

// PrepareProgram performs the field-independent half of programming the
// device: it scans the couplers against the analog range and builds the CSR
// adjacency. Only prog.N and prog.Edges are read; fields arrive per run.
func (m *Machine) PrepareProgram(prog *qubo.Sparse, improvedRange bool) *PreparedProgram {
	r := Range(improvedRange)
	pp := &PreparedProgram{
		n:        prog.N,
		improved: improvedRange,
		edges:    prog.Edges,
	}
	for _, e := range prog.Edges {
		var s float64
		if e.W >= 0 {
			s = e.W / r.JPosMax
		} else {
			s = -e.W / r.JNegMax
		}
		if s > pp.edgeScale {
			pp.edgeScale = s
		}
	}
	deg := make([]int, prog.N)
	for _, e := range prog.Edges {
		deg[e.I]++
		deg[e.J]++
	}
	pp.adjIdx = make([][]int32, prog.N)
	pp.adjNbr = make([][]int32, prog.N)
	for i := range pp.adjIdx {
		pp.adjIdx[i] = make([]int32, 0, deg[i])
		pp.adjNbr[i] = make([]int32, 0, deg[i])
	}
	for idx, e := range prog.Edges {
		pp.adjIdx[e.I] = append(pp.adjIdx[e.I], int32(idx))
		pp.adjNbr[e.I] = append(pp.adjNbr[e.I], int32(e.J))
		pp.adjIdx[e.J] = append(pp.adjIdx[e.J], int32(idx))
		pp.adjNbr[e.J] = append(pp.adjNbr[e.J], int32(e.I))
	}
	return pp
}

// rescale applies the hardware auto-scaling for one run (programs must fit
// the analog range; out-of-range programs are scaled down globally, which is
// the mechanism that erases problem information at large |J_F|). The coupler
// half of the scan was folded into pp.edgeScale at prepare time; only the
// fields are scanned here. The resulting divisor — max(1, fields, couplers)
// — is exactly what a one-shot prepare over the full program computes.
func (m *Machine) rescale(pp *PreparedProgram, h []float64) *prepared {
	r := Range(pp.improved)
	scale := 1.0
	for _, v := range h {
		if s := math.Abs(v) / r.HMax; s > scale {
			scale = s
		}
	}
	if pp.edgeScale > scale {
		scale = pp.edgeScale
	}
	p := &prepared{
		n:      pp.n,
		h:      make([]float64, pp.n),
		edges:  make([]qubo.SparseEdge, len(pp.edges)),
		adjIdx: pp.adjIdx,
		adjNbr: pp.adjNbr,
		scale:  scale,
	}
	for i, v := range h {
		p.h[i] = v / scale
	}
	for i, e := range pp.edges {
		p.edges[i] = qubo.SparseEdge{I: e.I, J: e.J, W: e.W / scale}
	}
	return p
}

// Scale exposes the auto-scale divisor a run would apply — used by tests
// and the J_F microbenchmarks.
func (m *Machine) Scale(prog *qubo.Sparse, improvedRange bool) float64 {
	return m.rescale(m.PrepareProgram(prog, improvedRange), prog.H).scale
}

// annealState holds per-worker scratch buffers.
type annealState struct {
	p       *prepared
	machine *Machine
	spins   []int8
	hPert   []float64 // ICE-perturbed fields for the current anneal
	jPert   []float64 // ICE-perturbed edge weights
}

func newAnnealState(p *prepared, m *Machine) *annealState {
	return &annealState{
		p:       p,
		machine: m,
		spins:   make([]int8, p.n),
		hPert:   make([]float64, p.n),
		jPert:   make([]float64, len(p.edges)),
	}
}

// perturb draws this anneal's ICE: a fresh perturbation of the programmed
// values each anneal (§4: "noise fluctuating at a time scale of the order of
// the anneal time").
func (st *annealState) perturb(src *rng.Source) {
	p, ice := st.p, st.machine.ICE
	if ice.Enabled {
		for i := range p.h {
			st.hPert[i] = p.h[i] + src.Gauss(ice.HMean, ice.HStd)
		}
		for i := range p.edges {
			st.jPert[i] = p.edges[i].W + src.Gauss(ice.JMean, ice.JStd)
		}
		return
	}
	copy(st.hPert, p.h)
	for i := range p.edges {
		st.jPert[i] = p.edges[i].W
	}
}

// anneal performs one full annealing cycle and returns a copy of the final
// spins.
func (st *annealState) anneal(params Params, src *rng.Source) []int8 {
	p := st.p
	m := st.machine

	st.perturb(src)

	// Initial superposition analog: uniformly random state.
	for i := range st.spins {
		if src.Bool() {
			st.spins[i] = 1
		} else {
			st.spins[i] = -1
		}
	}

	rampSweeps := int(math.Round(m.SweepsPerMicrosecond * params.AnnealTimeMicros))
	if rampSweeps < 1 {
		rampSweeps = 1
	}
	pauseSweeps := 0
	if params.PauseTimeMicros > 0 {
		pauseSweeps = int(math.Round(m.SweepsPerMicrosecond * params.PauseTimeMicros))
	}
	pauseAt := int(params.PausePosition * float64(rampSweeps))

	logRatio := math.Log(m.BetaFinal / m.BetaInitial)
	beta := func(sweep int) float64 {
		s := float64(sweep) / float64(rampSweeps-1)
		if rampSweeps == 1 {
			s = 1
		}
		return m.BetaInitial * math.Exp(logRatio*s)
	}

	for sweep := 0; sweep < rampSweeps; sweep++ {
		st.sweep(beta(sweep), src)
		if pauseSweeps > 0 && sweep == pauseAt {
			// Anneal pause: hold the schedule (fixed temperature) to let the
			// system thermalize [43].
			bp := beta(sweep)
			for k := 0; k < pauseSweeps; k++ {
				st.sweep(bp, src)
			}
		}
	}
	out := make([]int8, p.n)
	copy(out, st.spins)
	return out
}

// sweep performs one Metropolis pass over all spins.
func (st *annealState) sweep(beta float64, src *rng.Source) {
	p := st.p
	for i := 0; i < p.n; i++ {
		local := st.hPert[i]
		nbrs := p.adjNbr[i]
		idxs := p.adjIdx[i]
		for k, nb := range nbrs {
			local += st.jPert[idxs[k]] * float64(st.spins[nb])
		}
		dE := -2 * float64(st.spins[i]) * local
		if dE <= 0 || src.Float64() < math.Exp(-beta*dE) {
			st.spins[i] = -st.spins[i]
		}
	}
}
