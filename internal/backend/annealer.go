package backend

import (
	"context"
	"errors"
	"slices"
	"sync"

	"quamax/internal/anneal"
	"quamax/internal/core"
	"quamax/internal/metrics"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// Annealer adapts the simulated QPU (internal/core over internal/anneal) to
// the Backend interface. One Annealer models one annealer chip plus its
// classical control plane; a pool of them is the paper's §7 "QPU pool".
//
// It implements BatchBackend: batch-compatible problems are programmed into
// disjoint clique-embedding slots of the chip and share a single annealer run
// (core.DecodeRun), which is the §4 parallelization applied across requests
// instead of within one.
type Annealer struct {
	name    string
	dec     *core.Decoder
	caps    *Capabilities
	lends   sync.Pool // *lent: what a solve lends the decoder
	batches sync.Pool // *batch: what a shared run lends it
}

// lent is the storage one problem's decode lends the decoder, pooled on the
// annealer: the Outcome the decoder overwrites (its Symbols' capacity kept
// from solve to solve, its Bits and LLRs the Result's) and the soft spec the
// request points at.
type lent struct {
	out  core.Outcome
	spec softout.Spec
}

// lend takes a lent from the pool for a decode answering in res: the
// outcome's Bits and LLRs are res's own, so the decoder appends to their
// capacity.
func (a *Annealer) lend(res *Result) *lent {
	l, ok := a.lends.Get().(*lent)
	if !ok {
		l = new(lent)
	}
	l.out.Bits, l.out.LLRs = res.Bits, res.LLRs
	return l
}

// reclaim returns l to the pool, which must not pin what res took over.
func (a *Annealer) reclaim(l *lent) {
	l.out.Bits, l.out.LLRs = nil, nil
	a.lends.Put(l)
}

// NewAnnealer builds a simulated QPU backend on a decoder of its own with the
// given options (zero Options select the paper's DW2Q operating point): the
// shorthand for a one-annealer pool.
func NewAnnealer(name string, opts core.Options) (*Annealer, error) {
	dec, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return AnnealerFromDecoder(name, dec), nil
}

// AnnealerFromDecoder wraps an existing decoder as a Backend. The annealers
// of one pool wrap one decoder: a window's symbols then compile once
// whichever annealer serves them, and the embedding searches and chip
// adjacencies are shared too (the decoder is safe for concurrent use).
func AnnealerFromDecoder(name string, dec *core.Decoder) *Annealer {
	a := &Annealer{name: name, dec: dec}
	slots, err := dec.BatchSlots(2)
	if err != nil || slots < 1 {
		slots = 1
	}
	a.caps = &Capabilities{
		Name:          name,
		Latency:       a.occupancyMicros,
		Cost:          DefaultQPUCostModel,
		Qubits:        dec.Options().Graph.NumWorkingQubits(),
		MaxBatchSlots: slots,
		Features:      FeatureBatch | FeatureReverse | FeatureSoft | FeatureQuantum,
	}
	return a
}

// Describe implements Backend: quantum hardware with batch, reverse-anneal and
// soft-output support, priced at the leased-QPU cost model.
func (a *Annealer) Describe() *Capabilities { return a.caps }

// Decoder exposes the wrapped QuAMax decoder.
func (a *Annealer) Decoder() *core.Decoder { return a.dec }

// params resolves the effective run knobs for p: its planner-sized override
// when present, the decoder's configured Params otherwise.
func (a *Annealer) params(p *Problem) anneal.Params {
	if p.Anneal != nil {
		return *p.Anneal
	}
	return a.dec.Options().Params
}

// occupancyMicros is the descriptor's latency hook: the modeled device
// occupancy of one run at its read budget, Na·(Ta+Tp). The chip is busy for
// the full run regardless of slot amortization, so this — not the amortized
// per-problem time — is what queue waits accumulate. A shared run whose
// members all settle early ends sooner, so like ClassicalSA.estimate this is
// an upper bound, used for admission only.
func (a *Annealer) occupancyMicros(p *Problem) float64 {
	params := a.params(p)
	return float64(params.NumAnneals) * params.AnnealWallMicros()
}

// request turns a problem into the decoder's request shape, decoding into
// l, and starts res, the Result its outcome will complete (answerFor). A
// problem carrying a Window (a coherence-window symbol) names its channel
// by the window: the decoder resolves it through its compiled-channel store
// under the window's key — compiled on the window's first symbol, only the
// biases rewritten after — and reports the lookup's time and hit on the
// outcome. One without a window goes as a raw channel, compiled in the run's
// own storage so one-shot channels don't churn the store.
func (a *Annealer) request(p *Problem, l *lent) core.Request {
	// A soft problem asking for reverse annealing runs forward: the reverse
	// ensemble clusters around the linear seed, which would bias the LLRs
	// toward the seed's decision (the planner never plans soft reverse either).
	req := core.Request{Window: p.Window, Mod: p.Mod, H: p.H, Y: p.Y, Reverse: p.Reverse && !p.Soft, Radius: p.StopRadius, Answer: &l.out}
	if p.Soft {
		l.spec = softout.Spec{NoiseVar: p.NoiseVar, Clamp: p.LLRClamp}
		req.Soft = &l.spec
	}
	return req
}

// Solve runs the QuAMax pipeline on one problem, honoring its Anneal, ChainJF,
// Reverse, Soft, StopRadius and Answer fields. A reverse decode that cannot
// compute its linear seed (ill-conditioned channel, core.ErrNoSeed) falls
// back to a forward anneal; any other error is a real failure and surfaces.
func (a *Annealer) Solve(ctx context.Context, p *Problem, src *rng.Source) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := answerFor(p, a.name)
	l := a.lend(res)
	defer a.reclaim(l)
	req := a.request(p, l)
	budget := core.Budget{Params: a.params(p), JF: p.ChainJF}
	out, err := a.dec.Decode(req, budget, src)
	if errors.Is(err, core.ErrNoSeed) {
		req.Reverse = false
		out, err = a.dec.Decode(req, budget, src)
	}
	if err != nil {
		return nil, err
	}
	return a.result(res, out, budget.Params, out.Reads, 1), nil
}

// BatchSlots implements BatchBackend via the chip's geometric slot packing.
func (a *Annealer) BatchSlots(p *Problem) int {
	slots, err := a.dec.BatchSlots(p.LogicalSpins())
	if err != nil || slots < 1 {
		return 1
	}
	return slots
}

// SolveBatch decodes all ps in one shared annealer run (core.DecodeRun). The
// run's schedule comes from the batch's (Batchable-compatible) anneal
// overrides, with the read budget the max over the batch — extra reads only
// improve the co-scheduled problems. A problem with a StopRadius ends its own
// reads when its answer is in; the device is charged the reads the run
// executed, the most any member ran. Each problem's Answer is honored as in
// Solve; the run's requests and the storage they lend come from a pooled
// batch, so when every problem lends its Answer the returned slice is all
// SolveBatch allocates.
func (a *Annealer) SolveBatch(ctx context.Context, ps []*Problem, src *rng.Source) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	budget := core.Budget{Params: a.params(ps[0]), JF: ps[0].ChainJF}
	b, ok := a.batches.Get().(*batch)
	if !ok {
		b = new(batch)
	}
	defer a.release(b)
	b.reqs, b.ls = slices.Grow(b.reqs[:0], len(ps))[:len(ps)], slices.Grow(b.ls[:0], len(ps))[:len(ps)]
	results := make([]*Result, len(ps))
	for i, p := range ps {
		if na := a.params(p).NumAnneals; na > budget.Params.NumAnneals {
			budget.Params.NumAnneals = na
		}
		results[i] = answerFor(p, a.name)
		l := &b.ls[i]
		l.out.Bits, l.out.LLRs = results[i].Bits, results[i].LLRs
		b.reqs[i] = a.request(p, l)
	}
	outs, err := a.dec.DecodeRun(b.reqs, budget, src)
	if err != nil {
		return nil, err
	}
	ran := 0
	for _, out := range outs {
		ran = max(ran, out.Reads)
	}
	for i, out := range outs {
		a.result(results[i], out, budget.Params, ran, len(ps))
	}
	return results, nil
}

// batch is one shared run's working set, pooled on the annealer: the
// decoder's requests and, per member, the storage its decode lends.
type batch struct {
	reqs []core.Request
	ls   []lent
}

// release returns b to the pool, which must not pin what the run's problems
// and results hold.
func (a *Annealer) release(b *batch) {
	clear(b.reqs)
	for i := range b.ls {
		b.ls[i].out.Bits, b.ls[i].out.LLRs = nil, nil
	}
	a.batches.Put(b)
}

// ChannelCacheStats exposes the decoder's compiled-channel cache counters.
func (a *Annealer) ChannelCacheStats() metrics.ChannelCacheStats {
	return a.dec.ChannelCacheStats()
}

// result completes res (answerFor, then request) from a decoder outcome,
// taking over its Bits and LLRs and applying the Na·(Ta+Tp)/Pf compute-time
// model the fronthaul reports for TTB accounting, with Na the reads the run
// executed (ran).
func (a *Annealer) result(res *Result, out *core.Outcome, params anneal.Params, ran, batched int) *Result {
	res.Bits = out.Bits
	res.Energy = out.Energy
	res.CompileMicros, res.CacheHit = out.CompileMicros, out.CacheHit
	res.ComputeMicros = float64(ran) * out.WallMicrosPerAnneal / max(out.Pf, 1)
	res.Batched = batched
	res.LLRs = out.LLRs
	res.LLRSaturated = out.LLRSaturated
	res.Reads, res.ReadsPlanned = out.Reads, params.NumAnneals
	res.BrokenChains = out.BrokenChains
	return res
}
