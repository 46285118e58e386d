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
	"quamax/internal/telemetry"
)

// Request is one decode: a received vector Y observed through a channel
// given compiled (CC), as a coherence window (Window) or raw (Mod and H). A
// Window request decodes through the decoder's window store: the window's
// channel is compiled on its first symbol, under its key, and the store holds
// it for the run. Mod and H may ride along with a Window; when they are not
// the window's own channel, the request runs raw — a window that is not the
// request's costs a compile, never a wrong answer. CC goes alone.
type Request struct {
	CC     *CompiledChannel
	Window *Window
	Mod    modulation.Modulation
	H      *linalg.Mat
	Y      []complex128
	// Soft, when non-nil, additionally fills the Outcome's LLR fields from
	// the read ensemble. The hard fields are unaffected. NoiseVar ≤ 0 takes
	// Truth's σ² when Truth is given.
	Soft *softout.Spec
	// Reverse seeds a reverse anneal (§8, [68]) from the zero-forcing
	// decision — MMSE at Truth's σ² if the channel defeats ZF — and keeps the
	// seed as a candidate, so the result is never worse than the seed. It
	// errors with ErrNoSeed when no linear seed exists. Solo hard decodes
	// only: the ensemble clusters around the seed, which would bias LLRs, and
	// a chip runs one schedule, so a reverse run has no forward co-members.
	Reverse bool
	// Radius, when positive, ends the request's reads at the first whose ML
	// metric ‖y − Hv‖² (the logical energy) is inside it — a Soft one's not
	// before softout.MinEnsemble reads — solo or sharing a run alike.
	Radius float64
	// Truth, when non-nil, fills the evaluation fields of the Outcome
	// (Distribution, TxEnergy) from the instance's transmitted bits.
	Truth *mimo.Instance
	// Answer, when non-nil, lends the caller's storage for the outcome: the
	// decode overwrites *Answer — nothing of what it held survives — appending
	// its Bits, Symbols and LLRs to the capacity Answer's own hold (a hard
	// decode's LLRs left empty), and returns Answer.
	Answer *Outcome
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

// Decode runs one request as a run of one: the channel's own embedding, the
// geometric slot count for time amortization (Outcome.Pf), and, alone of
// all runs, a reverse anneal when asked. src drives the annealer and
// tie-breaking; reuse one source across calls for independent randomness.
// The outcome is the request's Answer when it lends one.
func (d *Decoder) Decode(req Request, b Budget, src *rng.Source) (*Outcome, error) {
	var out [1]*Outcome
	outs, err := d.run([]Request{req}, b, src, out[:0])
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// scratch is the working set of one Decode or DecodeRun call, pooled on the
// decoder, through which a decode allocates only what it returns — nothing,
// into a lent Answer: no Outcome aliases it, so it goes back to the pool once
// the call has its outcomes (a call that fails or panics just drops it).
// raw[k] is the k-th raw request's channel, which lives only for its run:
// compileInto rebuilds it in place. pinned holds the window-store entries
// the call's Window requests run through, until the call unpins them.
type scratch struct {
	run     anneal.Scratch
	tallies []tally
	slots   []anneal.Slot                     // what the annealer programs
	read    func(slot int, spins []int8) bool // tallies[slot].read, bound once
	raw     []*CompiledChannel
	nraw    int // raw channels this call has compiled
	pinned  []*windowEntry[CompiledChannel]
}

// DecodeRun decodes up to BatchSlots(N) requests in ONE annealer run by
// programming each into its own disjoint clique-embedding slot — the §4
// parallelization applied across requests instead of within one. Requests may
// mix channels, modulations and hard/soft output but must share the logical
// size N. The run's wall clock is shared, so each Outcome of a run of two or
// more reports Pf = len(reqs) under AmortizeParallel; so is the device's
// analog range, so the auto-scale divisor is the max over the run — the
// squeeze a real shared chip applies. Nothing else is: each request anneals
// in its slot on streams of its own, is scored read by read, and stops alone.
// A run of one is Decode.
func (d *Decoder) DecodeRun(reqs []Request, b Budget, src *rng.Source) ([]*Outcome, error) {
	// DecodeRun inlines, so a caller that keeps the slice it returns to
	// itself keeps a run of up to four on its stack.
	var short [4]*Outcome
	return d.run(reqs, b, src, short[:0])
}

// run is the one decode body: it programs request i into slot i of one
// annealer run (a lone request on its channel's own embedding), runs it with
// every read scored as it arrives, and appends request i's outcome to outs.
// The store entries its Window requests pinned are unpinned when it returns,
// however it returns.
func (d *Decoder) run(reqs []Request, b Budget, src *rng.Source, outs []*Outcome) ([]*Outcome, error) {
	if len(reqs) == 0 {
		return nil, errors.New("core: empty run")
	}
	params, jf, err := d.budget(b, src)
	if err != nil {
		return nil, err
	}
	sc, ok := d.scratch.Get().(*scratch)
	if !ok {
		sc = new(scratch)
		sc.read = func(slot int, spins []int8) bool { return sc.tallies[slot].read(spins) }
	}
	done := false
	defer func() {
		for _, e := range sc.pinned {
			d.channels.unpin(e)
		}
		clear(sc.pinned)
		sc.pinned = sc.pinned[:0]
		if done {
			d.scratch.Put(sc)
		}
	}()
	sc.tallies = append(sc.tallies, make([]tally, max(0, len(reqs)-len(sc.tallies)))...)
	sc.slots, sc.nraw = sc.slots[:0], 0
	solo, pf := len(reqs) == 1, len(reqs) // pf: the Pf the outcomes amortize over
	var packs []*embedding.Embedding
	for i := range reqs {
		req := &reqs[i]
		cc, compile, hit, err := d.resolve(req, sc)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			packs = cc.packs
		}
		if n := packs[0].N; cc.prog.N != n {
			return nil, fmt.Errorf("core: run mixes logical sizes %d and %d", n, cc.prog.N)
		} else if len(reqs) > len(packs) {
			return nil, fmt.Errorf("core: run of %d exceeds the %d parallel slots for N=%d", len(reqs), len(packs), n)
		}
		emb := packs[i]
		if solo {
			emb, pf = cc.emb, len(packs)
		}
		pp := cc.programFor(emb, jf)
		// Tie-break streams are split in slot order, ahead of the slots' own.
		t := &sc.tallies[i]
		t.begin(req, cc, emb, jf, src)
		t.compile, t.hit = compile, hit
		slot := anneal.Slot{PP: pp, H: t.h}
		if req.Reverse {
			if !solo {
				return nil, errors.New("core: reverse annealing cannot share a run")
			}
			seed, err := linearSeed(cc, req)
			if err != nil {
				return nil, err
			}
			slot.Init = emb.PhysicalInit(seed)
			t.score(seed) // a candidate: the result is never worse than the seed
		}
		sc.slots = append(sc.slots, slot)
	}
	if err := d.opts.Machine.RunSlots(&sc.run, sc.slots, params, src, sc.read); err != nil {
		return nil, err
	}
	for i := range reqs {
		outs = append(outs, sc.tallies[i].outcome(d, params, pf))
	}
	done = true
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
// one; a Window's from the window store, pinned in sc, with the lookup's wall
// time and whether it hit; or a raw (Mod, H) compiled into sc's next raw
// channel, with the compile's wall time — never inserted in the window store,
// so one-shot channels do not churn it.
func (d *Decoder) resolve(req *Request, sc *scratch) (*CompiledChannel, float64, bool, error) {
	cc, compile, hit := req.CC, 0.0, false
	switch {
	case cc != nil && (req.Window != nil || req.H != nil), cc == nil && req.Window == nil && req.H == nil:
		return nil, 0, false, errors.New("core: a request names exactly one of CC and a Window or H")
	case cc != nil && cc.dec != d:
		return nil, 0, false, errors.New("core: compiled channel belongs to a different decoder")
	case cc == nil && (req.H == nil || req.Window.holds(req.Mod, req.H)):
		e, micros, ok, err := d.pinWindow(req.Window)
		if err != nil {
			return nil, 0, false, err
		}
		sc.pinned = append(sc.pinned, e)
		cc, compile, hit = &e.val, micros, ok
	case cc == nil:
		if sc.nraw == len(sc.raw) {
			sc.raw = append(sc.raw, new(CompiledChannel))
		}
		var err error
		if cc, compile, err = d.compileInto(sc.raw[sc.nraw], req.Mod, req.H); err != nil {
			return nil, 0, false, err
		}
		sc.nraw++
	}
	if h := cc.Channel(); len(req.Y) != h.Rows {
		return nil, 0, false, fmt.Errorf("core: y has %d entries, H has %d rows", len(req.Y), h.Rows)
	}
	if req.Soft != nil {
		if req.Reverse {
			return nil, 0, false, errors.New("core: reverse annealing has no soft output")
		}
		if err := req.Soft.Validate(); err != nil {
			return nil, 0, false, err
		}
	}
	if req.Truth != nil && req.Truth.NumVariables() != cc.prog.N {
		return nil, 0, false, fmt.Errorf("core: truth has %d bits, the problem %d", req.Truth.NumVariables(), cc.prog.N)
	}
	return cc, compile, hit, nil
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

// tally is one request's read scorer — majority-vote unembedding, logical
// energy, minimum-energy selection, post-translation — and the only one: every
// run feeds it each read as it arrives, in read order, which lets a request
// stop when its answer is in. Truth and Soft only retain what the hard
// decision computed — each distinct read's (Gray bits, energy) — as the ranked
// distribution and the ensemble softout turns into LLRs, so neither moves a
// hard field. Its buffers are its own: scoring allocates one map key per soft
// candidate, outcome what it returns (nothing into a lent Answer), and a run's
// workers drive tallies apart.
type tally struct {
	truth   *mimo.Instance // the request's Truth
	answer  *Outcome       // the request's Answer
	mod     modulation.Modulation
	emb     *embedding.Embedding
	logical qubo.Ising // this y's program: the channel's couplings, fields of its own
	radius  float64    // settled once the best energy is inside it (0 = never)
	acc     *metrics.Accumulator
	spec    softout.Spec

	bestE         float64
	scored, soft  bool // soft: the request asked for LLRs
	reads, broken int
	compile       float64 // µs the request's channel took to compile or look up
	hit           bool    // its window was in the store

	own         rng.Source // breaks majority-vote ties
	h           []float64  // the chain-spread fields of this y on emb
	spins       []int8     // one read, unembedded
	qbits, gray []byte     // … as QuAMax-transform bits; post-translated, for the truth and soft tallies
	best        []byte     // the minimum-energy candidate's qbits so far
	ens         softout.Ensemble
}

// begin resets the tally for one request on placement emb, splitting its tie
// stream from src and spreading its y's fields along each chain per Eq. 11:
// f_i/(|J_F|·chainLen) on every qubit of chain i, as EmbedIsing computes it.
func (t *tally) begin(req *Request, cc *CompiledChannel, emb *embedding.Embedding, jf float64, src *rng.Source) {
	src.SplitInto(&t.own)
	t.truth, t.answer, t.soft, t.mod, t.emb = req.Truth, req.Answer, req.Soft != nil, cc.prog.Mod, emb
	cc.prog.BiasesInto(&t.logical, req.Y)
	t.radius, t.acc, t.scored, t.reads, t.broken = req.Radius, nil, false, 0, 0
	t.spins = slices.Grow(t.spins[:0], emb.N)[:emb.N]
	t.h = slices.Grow(t.h[:0], emb.NumPhysical())[:emb.NumPhysical()]
	chainLen := float64(embedding.ChainLength(emb.N))
	for i, chain := range emb.DenseChainIndices() {
		for _, q := range chain {
			t.h[q] = t.logical.H[i] / (jf * chainLen)
		}
	}
	if t.truth != nil {
		t.acc = metrics.NewAccumulator(t.logical.N)
	}
	if t.soft {
		t.spec = req.Soft.WithDefaults()
		if t.spec.NoiseVar <= 0 && t.truth != nil {
			t.spec.NoiseVar = t.truth.NoiseVariance() // the instance knows its σ²
		}
		t.ens.Reset(t.logical.N, t.spec.MaxCandidates)
	}
}

// score enters one candidate (a read, or a reverse anneal's seed) as spins.
func (t *tally) score(spins []int8) {
	energy := t.logical.Energy(spins)
	t.qbits = qubo.AppendBitsFromSpins(t.qbits[:0], spins)
	if !t.scored || energy < t.bestE {
		t.bestE, t.scored = energy, true
		t.best = append(t.best[:0], t.qbits...)
	}
	if t.acc == nil && !t.soft {
		return
	}
	t.gray = t.mod.AppendPostTranslate(t.gray[:0], t.qbits)
	if t.acc != nil {
		t.acc.Add(string(t.qbits), energy, t.truth.BitErrors(t.gray))
	}
	if t.soft {
		t.ens.Add(t.gray, energy)
	}
}

// read scores one read (physical spins in the placement's dense order) and
// reports whether the request is settled.
func (t *tally) read(phys []int8) (settled bool) {
	t.broken += t.emb.UnembedInto(t.spins, phys, &t.own)
	t.score(t.spins)
	t.reads++
	return t.radius > 0 && t.bestE <= t.radius && (!t.soft || t.reads >= softout.MinEnsemble)
}

// outcome distills what was scored (slots is the Pf the run amortizes over)
// into the request's Answer, or a new Outcome, and reports its anneal
// quality, over the reads run, to d's recorder if any.
func (t *tally) outcome(d *Decoder, params anneal.Params, slots int) *Outcome {
	out := t.answer
	if out == nil {
		out = new(Outcome)
	}
	*out = Outcome{
		Bits:    t.mod.AppendPostTranslate(slices.Grow(out.Bits[:0], len(t.best)), t.best),
		Symbols: reduction.AppendBitsToSymbols(out.Symbols[:0], t.mod, t.best), Energy: t.bestE,
		Reads: t.reads, BrokenChains: t.broken, Pf: 1, WallMicrosPerAnneal: params.AnnealWallMicros(),
		CompileMicros: t.compile, CacheHit: t.hit, LLRs: out.LLRs[:0],
	}
	if d.opts.AmortizeParallel {
		out.Pf = float64(slots)
	}
	if t.acc != nil {
		out.TxEnergy = t.logical.Energy(qubo.SpinsFromBits(t.truth.TxQUBOBits()))
		out.Distribution = t.acc.Distribution()
	}
	if t.soft {
		out.LLRs, out.LLRSaturated = t.ens.AppendLLRs(out.LLRs, t.spec)
		out.SoftCandidates = t.ens.Len()
	}
	if rec := d.telem.Load(); rec != nil {
		rec.ObserveQuality(telemetry.Class(t.mod.String(), t.logical.N/t.mod.BitsPerSymbol()), telemetry.QualityObservation{
			BestEnergy: out.Energy, Reads: out.Reads, ChainBreaks: out.BrokenChains, LLRBits: len(out.LLRs), LLRSaturated: out.LLRSaturated})
	}
	t.truth, t.answer, t.acc = nil, nil, nil // the pooled tally must not pin the request or its channel
	t.logical = qubo.Ising{H: t.logical.H}
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
