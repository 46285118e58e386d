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
//   - Batching. A run executes Na anneals (one QA "job", §4) per slot, each
//     with fresh ICE noise and a fresh initial state drawn from a stream keyed
//     by (slot, read), so workers share out reads without changing any.
//
// The only non-reproduced aspect is the sampler's physics: Metropolis
// dynamics replace quantum dynamics, so absolute success probabilities are
// calibrated (sweeps-per-µs constant) rather than emergent. Every
// experimental shape — J_F washout vs. chain breakage, pause thermalization
// benefit, size scaling, SNR trends — comes out of the same code path the
// paper exercised.
//
// The package holds ONE Metropolis engine (multispin.go): a flat-CSR kernel
// with cached local fields and one sweep body, MSScalar.Sweep, over it. The
// device simulator here runs each read through it on that read's
// ICE-perturbed weights; the classical solvers (RunMultiSpin behind
// detector.ClassicalSA, RunPT in pt.go) run their restarts and rungs through
// it on a shared program.
package anneal

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

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

	scratch sync.Pool // *Scratch behind the allocating entry points (Run, RunPrepared, RunReverse)
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
		scratch:              sync.Pool{New: func() any { return new(Scratch) }},
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
	return m.collect(Slot{PP: pp, H: h}, params, src)
}

// collect is the allocating form of a run of one slot (Run, RunPrepared,
// RunReverse): it borrows a pooled Scratch and keeps every read, in index
// order, in samples sharing one backing array.
func (m *Machine) collect(sl Slot, params Params, src *rng.Source) ([]Sample, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := sl.PP.N()
	samples, spins := make([]Sample, params.NumAnneals), make([]int8, params.NumAnneals*n)
	sc := m.scratch.Get().(*Scratch)
	sc.one[0] = sl
	err := m.RunSlots(sc, sc.one[:], params, src, func(_ int, read []int8) bool {
		a := sc.handed[0] // the read in hand: deliver counts it once this returns
		samples[a].Spins = append(spins[a*n:a*n:(a+1)*n], read...)
		return false
	})
	m.scratch.Put(sc)
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// Scratch is the working set of a device run: one deviceRead per worker, the β
// list of the last schedule run, and the run in flight — its slots and their
// stream seeds, how far each slot's reads have been handed out, and the
// finished reads that wait for a predecessor, in one reads × qubits array. A
// caller that keeps a Scratch across runs (core pools one per decode)
// allocates nothing here once it is warm. The zero value is ready; a Scratch
// must not be copied after first use and is not safe for concurrent runs.
type Scratch struct {
	crew    crew
	work    func(w int) // claim, bound once
	reads   []deviceRead
	betaKey betaKey
	betas   []float64
	one     [1]Slot // the run of one an allocating entry point builds

	slots   []Slot
	read    func(slot int, spins []int8) (settled bool)
	seeds   []uint64 // slot i's stream seed
	scale   float64
	ice     ICEModel
	na      int
	next    atomic.Int64 // the next unclaimed (slot, read) pair, read-major
	mu      sync.Mutex   // guards handed and waiting
	handed  []int        // per slot: reads handed to read so far; na once settled
	waiting []bool       // per (slot, read) pair: finished, its row in spins
	spins   []int8       // one row of stride spins per (slot, read) pair
	stride  int
}

// betaKey names a per-sweep β list: the forward schedule (turnAt == 0), or
// the reverse cycle over it turning at schedule position turnAt.
type betaKey struct {
	sc     MSSchedule
	turnAt float64
}

// schedule returns the β of every sweep of sc — forward, or the reverse
// cycle turning at turnAt — rebuilt only when it differs from the last list
// this scratch ran.
func (s *Scratch) schedule(sc MSSchedule, turnAt float64) []float64 {
	if key := (betaKey{sc, turnAt}); key != s.betaKey {
		s.betaKey = key
		if turnAt == 0 {
			s.betas = sc.appendBetas(s.betas[:0])
		} else {
			s.betas = sc.appendReverseBetas(s.betas[:0], turnAt)
		}
	}
	return s.betas
}

// Slot is one member of a run: its prepared program, this run's fields, and —
// for a reverse anneal — the state every read starts from.
type Slot struct {
	PP   *PreparedProgram
	H    []float64
	Init []int8
}

// RunSlots executes one QA job that programs one or several problems side by
// side (§4 parallelization). The slots are qubit-disjoint with no coupler
// between them, so the chip's Metropolis chain is a product of per-slot chains
// tied only by the analog range: the auto-scale is the max over the slots
// (what a scan of the combined program computes), and read a of slot i draws
// from the stream keyed by (src's i-th draw, a). Workers claim (slot, read)
// pairs, so no read depends on the worker count or on the neighbors. Each
// slot's reads go to read in index order, one call at a time per slot (spins
// valid during the call), until NumAnneals or until read reports the slot
// settled, which ends its claims: a prefix of its uncut self. Slots with an
// Init anneal in reverse from it (RunReverse); a run does not mix the two.
func (m *Machine) RunSlots(sc *Scratch, slots []Slot, params Params, src *rng.Source, read func(slot int, spins []int8) (settled bool)) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if len(slots) == 0 {
		return errors.New("anneal: a run needs a slot")
	}
	turnAt := 0.0
	if slots[0].Init != nil {
		if turnAt = params.PausePosition; turnAt <= 0 || turnAt >= 1 {
			return errors.New("anneal: reverse annealing requires a turning point in (0,1)")
		}
	}
	sc.scale, sc.stride = 1, 0
	sc.seeds = grow(sc.seeds, len(slots))
	for i, sl := range slots {
		n := sl.PP.N()
		if len(sl.H) != n {
			return fmt.Errorf("anneal: %d fields for a %d-qubit prepared program", len(sl.H), n)
		}
		if (sl.Init != nil) != (turnAt != 0) || (sl.Init != nil && len(sl.Init) != n) {
			return errors.New("anneal: every slot of a reverse run needs an initial state per qubit, a forward run none")
		}
		sc.scale, sc.stride = max(sc.scale, sl.PP.scale(sl.H)), max(sc.stride, n)
		sc.seeds[i] = src.Uint64()
	}
	pairs := len(slots) * params.NumAnneals
	sc.slots, sc.read, sc.ice, sc.na = slots, read, m.ICE, params.NumAnneals
	sc.schedule(ScheduleFromParams(m, params), turnAt)
	sc.handed, sc.waiting, sc.spins = grow(sc.handed, len(slots)), grow(sc.waiting, pairs), grow(sc.spins, pairs*sc.stride)
	clear(sc.handed)
	clear(sc.waiting)
	workers := max(1, min(m.Workers, pairs))
	sc.reads = append(sc.reads, make([]deviceRead, max(0, workers-len(sc.reads)))...)
	for w := range sc.reads[:workers] {
		sc.reads[w].warm(slots)
	}
	sc.next.Store(0)
	if sc.work == nil {
		sc.work = sc.claim
	}
	sc.crew.run(workers, sc.work)
	sc.slots, sc.read, sc.one[0] = nil, nil, Slot{} // the pooled scratch must not pin the run
	return nil
}

// claim is worker w's body: it runs (slot, read) pairs in read-major order —
// read 0 of every slot, then read 1, … — skipping slots that take no more.
func (sc *Scratch) claim(w int) {
	rd, n := &sc.reads[w], len(sc.slots)
	for k := int(sc.next.Add(1)) - 1; k < n*sc.na; k = int(sc.next.Add(1)) - 1 {
		i, a := k%n, k/n
		sc.mu.Lock()
		done := sc.handed[i] == sc.na
		sc.mu.Unlock()
		if done {
			continue
		}
		sl := &sc.slots[i]
		rd.bind(sl.PP)
		sc.deliver(k, rd.read(sl.PP, sl.H, sc.scale, sc.ice, sl.Init, sc.betas, sc.seeds[i], a))
	}
}

// deliver hands finished pair k to read in its slot's index order: a read
// whose predecessors are still out waits in its row; the next one goes at once
// (outside the lock), then every successor already waiting. Reads past a
// settled slot's last are dropped.
func (sc *Scratch) deliver(k int, spins []int8) {
	n := len(sc.slots)
	i, a := k%n, k/n
	sc.mu.Lock()
	if a != sc.handed[i] {
		if a > sc.handed[i] {
			sc.waiting[k] = true
			copy(sc.spins[k*sc.stride:], spins)
		}
		sc.mu.Unlock()
		return
	}
	for {
		sc.mu.Unlock()
		settled := sc.read(i, spins)
		sc.mu.Lock()
		if sc.handed[i]++; settled {
			sc.handed[i] = sc.na
		}
		if k += n; sc.handed[i] == sc.na || !sc.waiting[k] {
			sc.mu.Unlock()
			return
		}
		spins = sc.spins[k*sc.stride : k*sc.stride+len(spins)]
	}
}

// Adjacency is the coupler layout of a device program, the half every
// channel programmed on one placement shares: the engine's flat-CSR rows and,
// per coupler, its two directed slots. It is built once with NewAdjacency,
// immutable, and safe to share among any number of programs and runs.
type Adjacency struct {
	n          int
	start, nbr []int32 // CSR row offsets (len n+1) and neighbors, ascending within a row
	up, lo     []int32 // per coupler: its slot in the lower spin's row, and the mirror slot
}

// NewAdjacency compiles an undirected edge list over n qubits into the
// engine's CSR adjacency (duplicate edges merge into one coupler) and returns
// each coupler's merged weight, in coupler order. It is the one builder of
// device adjacencies. A caller whose edges are distinct may carry any value
// per edge through W and read it back per coupler.
func NewAdjacency(n int, edges []qubo.SparseEdge) (*Adjacency, []float64) {
	var k MSKernel
	k.buildCSR(n, edges)
	adj := &Adjacency{n: n, start: k.start, nbr: k.nbr, up: make([]int32, 0, len(k.w)/2), lo: make([]int32, 0, len(k.w)/2)}
	// Rows are sorted, so row j's slots for neighbors below j come first and
	// in the order the walk below reaches them: a cursor per row finds every
	// mirror slot. The weights compact into k.w in place: coupler e lands at
	// index e, at or below its slot, which the walk has already read.
	w := k.w[:0]
	cur := append([]int32(nil), k.start[:n]...)
	for i := int32(0); int(i) < n; i++ {
		for p := k.start[i]; p < k.start[i+1]; p++ {
			if j := k.nbr[p]; j >= i {
				adj.up, adj.lo, w = append(adj.up, p), append(adj.lo, cur[j]), append(w, k.w[p])
				cur[j]++
			}
		}
	}
	return adj, w
}

// PreparedProgram is the field-independent half of a programmed machine: a
// shared Adjacency, a weight per coupler, and the couplers' share of the
// analog-range auto-scale. Build it with PrepareProgram, or with NewProgram
// over a shared adjacency; run it with per-symbol fields (RunPrepared,
// RunSlots). Between Reprogram calls it is immutable and safe for concurrent
// runs.
type PreparedProgram struct {
	improved  bool
	adj       *Adjacency
	w         []float64 // programmed (unscaled) weight per coupler, in adj's coupler order
	edgeScale float64   // max over couplers of |W|/limit (≥ 0)
}

// N returns the physical qubit count the program was prepared for.
func (pp *PreparedProgram) N() int { return pp.adj.n }

// EdgeScale returns the couplers' share of the auto-scale: the largest
// coupler weight over its analog limit (0 for a program without couplers).
func (pp *PreparedProgram) EdgeScale() float64 { return pp.edgeScale }

// PrepareProgram performs the field-independent half of programming the
// device: the adjacency of prog.Edges (NewAdjacency), then its weights
// (NewProgram). Only prog.N and prog.Edges are read; fields arrive per run.
func (m *Machine) PrepareProgram(prog *qubo.Sparse, improvedRange bool) *PreparedProgram {
	adj, w := NewAdjacency(prog.N, prog.Edges)
	return NewProgram(adj, w, improvedRange)
}

// NewProgram programs adj with w, one weight per coupler in adj's coupler
// order (referenced, not copied), and scans the weights against the analog
// range.
func NewProgram(adj *Adjacency, w []float64, improvedRange bool) *PreparedProgram {
	pp := new(PreparedProgram)
	pp.Reprogram(adj, w, improvedRange)
	return pp
}

// Reprogram is NewProgram in pp's own storage, for a caller that keeps one
// program for channel after channel. No run may be using pp.
func (pp *PreparedProgram) Reprogram(adj *Adjacency, w []float64, improvedRange bool) {
	r, scale := Range(improvedRange), 0.0
	for _, v := range w {
		s := v / r.JPosMax
		if v < 0 {
			s = -v / r.JNegMax
		}
		scale = max(scale, s)
	}
	*pp = PreparedProgram{improved: improvedRange, adj: adj, w: w, edgeScale: scale}
}

// scale is the hardware auto-scaling divisor for one run (programs must fit
// the analog range; out-of-range programs are scaled down globally, which is
// the mechanism that erases problem information at large |J_F|). The coupler
// half of the scan was folded into pp.edgeScale at prepare time; only the
// fields are scanned here. The resulting divisor — max(1, fields, couplers)
// — is exactly what a one-shot scan over the full program computes.
func (pp *PreparedProgram) scale(h []float64) float64 {
	hMax := Range(pp.improved).HMax
	scale := max(1, pp.edgeScale)
	for _, v := range h {
		scale = max(scale, math.Abs(v)/hMax)
	}
	return scale
}

// Scale exposes the auto-scale divisor a run would apply — used by tests
// and the J_F microbenchmarks.
func (m *Machine) Scale(prog *qubo.Sparse, improvedRange bool) float64 {
	return m.PrepareProgram(prog, improvedRange).scale(prog.H)
}

// deviceRead is one worker's scratch: a private kernel that shares the
// prepared program's adjacency and whose fields and weights are reprogrammed
// for every read, the scalar engine that sweeps it, and the stream a read
// draws from, re-seeded in place for every read.
type deviceRead struct {
	k   MSKernel
	s   MSScalar
	pcg *rand.PCG
	src *rand.Rand // draws from pcg
}

// warm sizes the scratch for every slot of a run and makes its stream before
// the run fans out. A worker claims no read at all when the others take them
// first, so without this the first read it ever claims would allocate, and a
// warm Scratch's allocations would depend on how its workers were scheduled.
func (rd *deviceRead) warm(slots []Slot) {
	for i := range slots {
		rd.bind(slots[i].PP)
	}
	if rd.pcg == nil {
		rd.pcg = new(rand.PCG)
		rd.src = rand.New(rd.pcg)
	}
}

// bind points the scratch at pp's adjacency and sizes its buffers.
func (rd *deviceRead) bind(pp *PreparedProgram) {
	k := &rd.k
	k.n, k.start, k.nbr = pp.adj.n, pp.adj.start, pp.adj.nbr
	k.h = grow(k.h, k.n)
	k.w = grow(k.w, len(k.nbr))
	k.flipW = grow(k.flipW, len(k.nbr))
	rd.s.bind(k)
}

// begin sets up read a of the slot whose stream seed is seed. It re-seeds the
// read's stream from (seed, a) — a PCG re-seed, O(1) — then writes the read's
// coefficients into the scratch kernel: the programmed values divided by the
// run's auto-scale, each perturbed by a fresh ICE draw (§4: "noise fluctuating
// at a time scale of the order of the anneal time"), fields first, then
// couplers, one draw per coefficient; then seeds the twin's stream with one
// Uint64 and starts it from initial, or from a random state (the initial
// superposition analog) when initial is nil.
func (rd *deviceRead) begin(pp *PreparedProgram, h []float64, scale float64, ice ICEModel, initial []int8, seed uint64, a int) {
	rd.pcg.Seed(seed, mix64(uint64(a+1)*smixGamma))
	k := &rd.k
	for i, v := range h {
		k.h[i] = v / scale
		if ice.Enabled {
			k.h[i] += ice.HMean + ice.HStd*rd.src.NormFloat64()
		}
	}
	for e, p := range pp.adj.up {
		w := pp.w[e] / scale
		if ice.Enabled {
			w += ice.JMean + ice.JStd*rd.src.NormFloat64()
		}
		q := pp.adj.lo[e]
		k.w[p], k.w[q] = w, w
		k.flipW[p], k.flipW[q] = 4*w, 4*w
	}
	rd.s.state = rd.pcg.Uint64()
	rd.s.start(initial)
}

// read anneals read a (begin) and returns its spins, which the next overwrites.
func (rd *deviceRead) read(pp *PreparedProgram, h []float64, scale float64, ice ICEModel, initial []int8, betas []float64, seed uint64, a int) []int8 {
	rd.begin(pp, h, scale, ice, initial, seed, a)
	for _, beta := range betas {
		rd.s.SetBeta(beta)
		rd.s.Sweep()
	}
	return rd.s.spins
}
