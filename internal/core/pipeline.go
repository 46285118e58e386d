package core

import (
	"errors"
	"fmt"
	"slices"

	"quamax/internal/anneal"
	"quamax/internal/detector"
	"quamax/internal/embedding"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// Request is one decode: a received vector Y observed through a channel
// given either compiled (CC) or raw (Mod and H) — exactly one of the two.
type Request struct {
	CC  *CompiledChannel
	Mod modulation.Modulation
	H   *linalg.Mat
	Y   []complex128
	// Soft, when non-nil, additionally fills the Outcome's LLR fields from
	// the read ensemble. The hard fields are unaffected. NoiseVar ≤ 0 takes
	// Truth's σ² when Truth is given.
	Soft *softout.Spec
	// Reverse seeds a reverse anneal (§8, [68]) from the zero-forcing
	// decision — MMSE at Truth's σ² if the channel defeats ZF — and keeps the
	// seed as a candidate, so the result is never worse than the seed. It
	// errors with ErrNoSeed when no linear seed exists. Solo hard decodes
	// only: the ensemble clusters around the seed, which would bias LLRs, and
	// a shared run has no per-slot initial state.
	Reverse bool
	// Truth, when non-nil, fills the evaluation fields of the Outcome
	// (Distribution, TxEnergy) from the instance's transmitted bits.
	Truth *mimo.Instance
}

// Budget is the operating point of one annealer run. The zero value is the
// decoder's configured one; Params and JF (|J_F|, ≤ 0 = configured) override
// it per call — how the QoS planner right-sizes reads and chain strength.
type Budget struct {
	Params anneal.Params
	JF     float64
}

// ErrNoSeed reports that a Reverse request could not compute its linear
// starting state (the channel is too ill-conditioned). Callers distinguish
// it from device errors: a missing seed means "run a forward anneal instead".
var ErrNoSeed = errors.New("core: no linear seed for reverse annealing")

// Decode runs one request through its own annealer run. src drives the
// annealer and tie-breaking; reuse one source across calls for independent
// randomness.
func (d *Decoder) Decode(req Request, b Budget, src *rng.Source) (*Outcome, error) {
	if req.Reverse && req.Soft != nil {
		return nil, errors.New("core: reverse annealing has no soft output")
	}
	params, jf, err := d.budget(b, src)
	if err != nil {
		return nil, err
	}
	cc, err := d.resolve(&req)
	if err != nil {
		return nil, err
	}
	pp, err := cc.templates.soloFor(cc, jf)
	if err != nil {
		return nil, err
	}
	var seed, init []int8
	if req.Reverse {
		if seed, err = linearSeed(cc, &req); err != nil {
			return nil, err
		}
		init = cc.emb.PhysicalInit(seed)
	}
	logical := cc.prog.Biases(req.Y)
	sc := d.borrow()
	sc.hphys = slices.Grow(sc.hphys[:0], pp.N())[:pp.N()]
	fillChainFields(sc.hphys, logical.H, cc.emb, jf)
	var samples []anneal.Sample
	if req.Reverse {
		samples, err = d.opts.Machine.RunPreparedReverseInto(&sc.run, pp, sc.hphys, params, init, src)
	} else {
		samples, err = d.opts.Machine.RunPreparedInto(&sc.run, pp, sc.hphys, params, src)
	}
	if err != nil {
		return nil, err
	}
	out := d.collect(sc, &req, cc, logical, cc.emb, 0, seed, samples, params, cc.slots, src)
	d.scratch.Put(sc)
	return out, nil
}

// scratch is the working set of one Decode or DecodeRun call, pooled on the
// decoder: the annealer's run scratch (worker kernels, streams, β list and the
// samples themselves), the physical program a call writes, and the read
// scorer's buffers. The one rule — a decode allocates only what it returns —
// holds through it: nothing reachable from an Outcome aliases it, so it goes
// back to the pool once the call has its outcomes (a call that fails or
// panics just drops it).
type scratch struct {
	run      anneal.Scratch
	hphys    []float64   // solo: the chain-spread fields of this y
	combined qubo.Sparse // shared run: the slots' programs side by side
	spins    []int8      // one read, unembedded
	qbits    []byte      // … as QuAMax-transform bits
	best     []byte      // the minimum-energy read's qbits so far
	gray     []byte      // … post-translated, for the truth and soft tallies
	ens      softout.Ensemble
}

// borrow takes a scratch from the decoder's pool.
func (d *Decoder) borrow() *scratch {
	if sc, ok := d.scratch.Get().(*scratch); ok {
		return sc
	}
	return new(scratch)
}

// DecodeRun decodes up to BatchSlots(N) requests in ONE annealer run by
// programming each into its own disjoint clique-embedding slot — the §4
// parallelization applied across requests instead of within one. Requests may
// mix channels, modulations and hard/soft output but must share the logical
// size N. The run's wall clock is shared, so each Outcome reports
// Pf = len(reqs) under AmortizeParallel; so is the device's analog range, so
// the auto-scale divisor is the max over the run — the squeeze a real shared
// chip applies.
func (d *Decoder) DecodeRun(reqs []Request, b Budget, src *rng.Source) ([]*Outcome, error) {
	if len(reqs) == 0 {
		return nil, errors.New("core: empty run")
	}
	params, jf, err := d.budget(b, src)
	if err != nil {
		return nil, err
	}
	ccs := make([]*CompiledChannel, len(reqs))
	for i := range reqs {
		if reqs[i].Reverse {
			return nil, errors.New("core: reverse annealing cannot share a run")
		}
		if ccs[i], err = d.resolve(&reqs[i]); err != nil {
			return nil, err
		}
		if ccs[i].prog.N != ccs[0].prog.N {
			return nil, fmt.Errorf("core: run mixes logical sizes %d and %d", ccs[0].prog.N, ccs[i].prog.N)
		}
	}
	n := ccs[0].prog.N
	packs, err := d.packsFor(n)
	if err != nil {
		return nil, err
	}
	if len(reqs) > len(packs) {
		return nil, fmt.Errorf("core: run of %d exceeds the %d parallel slots for N=%d", len(reqs), len(packs), n)
	}

	// Slots are qubit-disjoint, so concatenating each channel's slot template
	// at an index offset yields the exact combined program: couplers are
	// copied, fields computed fresh per received vector.
	offsets := make([]int, len(reqs))
	total := 0
	for i := range reqs {
		offsets[i] = total
		total += packs[i].NumPhysical()
	}
	sc := d.borrow()
	combined := &sc.combined
	combined.N, combined.H, combined.Edges = total, slices.Grow(combined.H[:0], total)[:total], combined.Edges[:0]
	logicals := make([]*qubo.Ising, len(reqs))
	for i, cc := range ccs {
		phys, err := cc.templates.slotFor(cc, i, packs[i], jf)
		if err != nil {
			return nil, err
		}
		logicals[i] = cc.prog.Biases(reqs[i].Y)
		off := offsets[i]
		fillChainFields(combined.H[off:off+packs[i].NumPhysical()], logicals[i].H, packs[i], jf)
		for _, e := range phys.Edges {
			combined.Edges = append(combined.Edges, qubo.SparseEdge{I: e.I + off, J: e.J + off, W: e.W})
		}
	}
	pp := d.opts.Machine.PrepareProgram(combined, d.opts.ImprovedRange)
	samples, err := d.opts.Machine.RunPreparedInto(&sc.run, pp, combined.H, params, src)
	if err != nil {
		return nil, err
	}
	outs := make([]*Outcome, len(reqs))
	for i := range reqs {
		outs[i] = d.collect(sc, &reqs[i], ccs[i], logicals[i], packs[i], offsets[i], nil, samples, params, len(reqs), src)
	}
	d.scratch.Put(sc)
	return outs, nil
}

// budget resolves a call's operating point against the decoder's configured
// one (and rejects a nil source, the other argument every call shares).
func (d *Decoder) budget(b Budget, src *rng.Source) (anneal.Params, float64, error) {
	if src == nil {
		return b.Params, 0, errors.New("core: nil random source")
	}
	if b.Params == (anneal.Params{}) {
		b.Params = d.opts.Params
	}
	if b.JF <= 0 {
		b.JF = d.opts.JF
	}
	return b.Params, b.JF, b.Params.Validate()
}

// resolve validates a request and returns its channel: the given compiled
// one, or a raw (Mod, H) compiled for this call only — never inserted in the
// LRU, so one-shot channels do not churn the cache.
func (d *Decoder) resolve(req *Request) (*CompiledChannel, error) {
	cc, h := req.CC, req.H
	switch {
	case (cc == nil) == (h == nil):
		return nil, errors.New("core: a request names exactly one of CC and H")
	case cc != nil && cc.dec != d:
		return nil, errors.New("core: compiled channel belongs to a different decoder")
	case cc != nil:
		h = cc.Channel()
	case h.Rows < 1 || h.Cols < 1:
		return nil, fmt.Errorf("core: empty %d×%d channel", h.Rows, h.Cols)
	}
	if len(req.Y) != h.Rows {
		return nil, fmt.Errorf("core: y has %d entries, H has %d rows", len(req.Y), h.Rows)
	}
	if req.Soft != nil {
		if err := req.Soft.Validate(); err != nil {
			return nil, err
		}
	}
	if cc == nil {
		if _, err := modulation.Parse(req.Mod.String()); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		var err error
		if cc, err = d.newChannel(req.Mod, h); err != nil {
			return nil, err
		}
	}
	if req.Truth != nil && req.Truth.NumVariables() != cc.prog.N {
		return nil, fmt.Errorf("core: truth has %d bits, the problem %d", req.Truth.NumVariables(), cc.prog.N)
	}
	return cc, nil
}

// linearSeed is the reverse anneal's start state: the linear detector's
// symbols as QuAMax-transform bits, as spins.
func linearSeed(cc *CompiledChannel, req *Request) ([]int8, error) {
	mod, h := cc.prog.Mod, cc.Channel()
	res, err := detector.ZeroForcing(mod, h, req.Y)
	if err != nil && req.Truth != nil {
		res, err = detector.MMSE(mod, h, req.Y, req.Truth.NoiseVariance())
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSeed, err)
	}
	return qubo.SpinsFromBits(mod.GrayToQuAMaxBits(res.Bits)), nil
}

// fillChainFields spreads the logical fields along each chain per Eq. 11:
// every chain qubit of logical spin i carries f_i/(|J_F|·chainLen) — the
// same arithmetic EmbedIsing performs, applied to a zeroed field vector.
func fillChainFields(hphys, logicalH []float64, emb *embedding.Embedding, jf float64) {
	chainLen := float64(embedding.ChainLength(emb.N))
	for i, chain := range emb.DenseChainIndices() {
		v := logicalH[i] / (jf * chainLen)
		for _, q := range chain {
			hphys[q] = v
		}
	}
}

// collect distills one request's view of a run — the samples' qubits
// [off, off+emb.NumPhysical()) — into an Outcome: majority-vote unembedding,
// logical-energy scoring, minimum-energy selection and post-translation. It
// is the only read-scoring loop, which is what makes every request shape
// bit-identical on the same random stream. seed, when non-nil, competes as a
// candidate ahead of the reads. Truth and Soft only retain what the hard
// decision already computed — each distinct read's (Gray bits, energy) — as
// the ranked distribution and as the candidate ensemble internal/softout
// turns into max-log-MAP LLRs, so neither costs an objective evaluation nor
// moves a hard field. slots is the Pf the run amortizes over.
//
// Every per-read buffer is sc's (a read's bits are copied only when it becomes
// the best so far), so the loop allocates nothing for a hard request and one
// map key per distinct candidate for a soft one, and what collect allocates
// besides — the Outcome, its Bits, Symbols and LLRs — is what it returns.
func (d *Decoder) collect(sc *scratch, req *Request, cc *CompiledChannel, logical *qubo.Ising, emb *embedding.Embedding, off int, seed []int8, samples []anneal.Sample, params anneal.Params, slots int, src *rng.Source) *Outcome {
	mod, truth := cc.prog.Mod, req.Truth
	out := &Outcome{Pf: 1, WallMicrosPerAnneal: params.AnnealWallMicros()}
	if d.opts.AmortizeParallel {
		out.Pf = float64(slots)
	}
	var acc *metrics.Accumulator
	if truth != nil {
		acc = metrics.NewAccumulator(logical.N)
		out.TxEnergy = logical.Energy(qubo.SpinsFromBits(truth.TxQUBOBits()))
	}
	var ens *softout.Ensemble
	var spec softout.Spec
	if req.Soft != nil {
		spec = req.Soft.WithDefaults()
		if spec.NoiseVar <= 0 && truth != nil {
			spec.NoiseVar = truth.NoiseVariance() // the instance knows its σ²
		}
		ens = &sc.ens
		ens.Reset(logical.N, spec.MaxCandidates)
	}

	bestE, scored := 0.0, false
	score := func(spins []int8) {
		energy := logical.Energy(spins)
		sc.qbits = qubo.AppendBitsFromSpins(sc.qbits[:0], spins)
		if !scored || energy < bestE {
			bestE, scored = energy, true
			sc.best = append(sc.best[:0], sc.qbits...)
		}
		if acc == nil && ens == nil {
			return
		}
		sc.gray = mod.AppendPostTranslate(sc.gray[:0], sc.qbits)
		if acc != nil {
			acc.Add(string(sc.qbits), energy, truth.BitErrors(sc.gray))
		}
		if ens != nil {
			ens.Add(sc.gray, energy)
		}
	}
	if seed != nil {
		score(seed)
	}
	np := emb.NumPhysical()
	sc.spins = slices.Grow(sc.spins[:0], emb.N)[:emb.N]
	for _, s := range samples {
		out.BrokenChains += emb.UnembedInto(sc.spins, s.Spins[off:off+np], src)
		score(sc.spins)
	}
	out.Energy = bestE
	out.Bits = mod.PostTranslate(sc.best)
	out.Symbols = reduction.BitsToSymbols(mod, sc.best)
	if acc != nil {
		out.Distribution = acc.Distribution()
	}
	if ens != nil {
		out.LLRs, out.LLRSaturated = ens.LLRs(spec)
		out.SoftCandidates = ens.Len()
	}
	d.recordQuality(mod, logical.N, len(samples), out)
	return out
}

// The four methods below keep the signatures bench/ladder.go calls (the
// benchmark may not be edited); the benchmark ladder is their only caller.
// Each only fills a Request and a Budget.

// DecodeWithParams is Decode on a raw channel. Benchmark ladder only.
func (d *Decoder) DecodeWithParams(mod modulation.Modulation, h *linalg.Mat, y []complex128, params anneal.Params, jf float64, src *rng.Source) (*Outcome, error) {
	return d.Decode(Request{Mod: mod, H: h, Y: y}, Budget{Params: params, JF: jf}, src)
}

// DecodeCompiledWithParams is Decode on a compiled channel. Benchmark ladder
// only.
func (d *Decoder) DecodeCompiledWithParams(cc *CompiledChannel, y []complex128, params anneal.Params, jf float64, src *rng.Source) (*Outcome, error) {
	return d.Decode(Request{CC: cc, Y: y}, Budget{Params: params, JF: jf}, src)
}

// DecodeCompiledSoftWithParams is a soft Decode on a compiled channel.
// Benchmark ladder only.
func (d *Decoder) DecodeCompiledSoftWithParams(cc *CompiledChannel, y []complex128, spec softout.Spec, params anneal.Params, jf float64, src *rng.Source) (*Outcome, error) {
	return d.Decode(Request{CC: cc, Y: y, Soft: &spec}, Budget{Params: params, JF: jf}, src)
}

// CompiledBatchItem is Request under the name bench/ladder.go builds run
// items with (which is why Request's fields are CC and Y). Benchmark ladder
// only.
type CompiledBatchItem = Request

// DecodeCompiledSharedRunWithParams is DecodeRun. Benchmark ladder only.
func (d *Decoder) DecodeCompiledSharedRunWithParams(items []CompiledBatchItem, params anneal.Params, jf float64, src *rng.Source) ([]*Outcome, error) {
	return d.DecodeRun(items, Budget{Params: params, JF: jf}, src)
}
