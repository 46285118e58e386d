// Package core is QuAMax itself: the quantum-annealing ML MIMO decoder that
// ties the reduction, embedding, annealer and post-translation together
// (paper §3–§4). One Decode call performs the paper's full receive pipeline:
//
//	H, y ──ReduceToIsing──▶ logical Ising ──EmbedIsing──▶ physical program
//	      ──Machine.Run (Na anneals)──▶ samples ──Unembed + majority vote──▶
//	      logical solutions ──min energy──▶ QUBO bits ──PostTranslate──▶ b̂
//
// The decoder caches clique embeddings and parallel-slot packings per
// problem size, mirroring a deployment where the C-RAN data center programs
// the same embedding template for every subcarrier of a given user count.
package core

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"quamax/internal/anneal"
	"quamax/internal/chimera"
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

// Options configure a Decoder. The zero value is completed by New with the
// paper's defaults.
type Options struct {
	// Graph is the QPU topology (default: the DW2Q chip model).
	Graph *chimera.Graph
	// Machine simulates the QPU (default: anneal.NewMachine()).
	Machine *anneal.Machine
	// JF is the ferromagnetic chain strength |J_F| (default 4, a robust
	// improved-range setting per Fig. 5).
	JF float64
	// ImprovedRange enables the doubled negative coupler range (§4); the
	// paper selects it as the default operating point (§5.3.1).
	ImprovedRange bool
	// Params are the per-run annealer knobs (default anneal.DefaultParams()).
	Params anneal.Params
	// AmortizeParallel enables the §4 parallelization accounting: TTB/TTF
	// are divided by the geometric slot count Pf.
	AmortizeParallel bool
	// ChannelCache bounds the compiled-channel LRU cache in entries — one
	// entry pins a channel's Ising couplings, clique embedding and prepared
	// physical program for the coherence window (see CompiledChannel).
	// 0 selects DefaultChannelCache; negative values are rejected.
	ChannelCache int
}

// DefaultChannelCache is the compiled-channel LRU capacity when Options
// leaves ChannelCache zero: comfortably more channels than the DW2Q holds
// embedding slots, small enough that stale coherence windows age out.
const DefaultChannelCache = 64

// Decoder is a reusable QuAMax decoder. It is safe for concurrent use.
type Decoder struct {
	opts Options

	mu    sync.Mutex
	embs  map[int]*embedding.Embedding   // by logical size N
	packs map[int][]*embedding.Embedding // parallel slot packings by N
	slots map[int]int                    // geometric Pf by N

	// Compiled-channel LRU (see compiled.go).
	cacheMu      sync.Mutex
	cache        map[ChannelKey]*list.Element
	lru          *list.List
	hits, misses uint64
	evictions    uint64

	// telem, when set, receives per-solve anneal-quality samples and
	// channel-compile timings (SetTelemetry).
	telem atomic.Pointer[telemetry.Recorder]
}

// New returns a Decoder, filling unset options with the paper's defaults.
func New(opts Options) (*Decoder, error) {
	if opts.Graph == nil {
		opts.Graph = chimera.DW2Q()
	}
	if opts.Machine == nil {
		opts.Machine = anneal.NewMachine()
	}
	if opts.JF == 0 {
		opts.JF = 4
		opts.ImprovedRange = true
	}
	if opts.JF < 0 {
		return nil, errors.New("core: |J_F| must be positive")
	}
	if opts.Params == (anneal.Params{}) {
		opts.Params = anneal.DefaultParams()
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.ChannelCache == 0 {
		opts.ChannelCache = DefaultChannelCache
	}
	if opts.ChannelCache < 0 {
		return nil, errors.New("core: channel cache size must be positive")
	}
	return &Decoder{
		opts:  opts,
		embs:  make(map[int]*embedding.Embedding),
		packs: make(map[int][]*embedding.Embedding),
		slots: make(map[int]int),
		cache: make(map[ChannelKey]*list.Element),
		lru:   list.New(),
	}, nil
}

// Options returns the decoder's effective configuration.
func (d *Decoder) Options() Options { return d.opts }

// SetTelemetry attaches (or, with nil, detaches) a telemetry recorder: every
// subsequent decode reports its anneal quality (best energy, chain breaks,
// LLR saturation) per problem class, and every Compile reports its duration
// and cache outcome. Safe to call concurrently with decodes.
func (d *Decoder) SetTelemetry(rec *telemetry.Recorder) { d.telem.Store(rec) }

// recordQuality reports one solve's anneal-quality sample to the attached
// recorder, if any. n is the logical spin count; reads the sample count of
// the run the outcome was distilled from.
func (d *Decoder) recordQuality(mod modulation.Modulation, n, reads int, out *Outcome) {
	rec := d.telem.Load()
	if rec == nil {
		return
	}
	rec.ObserveQuality(telemetry.Class(mod.String(), n/mod.BitsPerSymbol()), telemetry.QualityObservation{
		BestEnergy:   out.Energy,
		Reads:        reads,
		ChainBreaks:  out.BrokenChains,
		LLRBits:      len(out.LLRs),
		LLRSaturated: out.LLRSaturated,
	})
}

// embeddingFor returns (and caches) the clique embedding for N logical spins.
func (d *Decoder) embeddingFor(n int) (*embedding.Embedding, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.embs[n]; ok {
		return e, d.slots[n], nil
	}
	e, err := embedding.Embed(d.opts.Graph, n)
	if err != nil {
		return nil, 0, fmt.Errorf("core: %d logical spins: %w", n, err)
	}
	packs := embedding.PackSlots(d.opts.Graph, n)
	if len(packs) == 0 {
		// No disjoint pack fits (possible with defects at large N even
		// though a single placement exists): the lone embedding is the one
		// slot, keeping BatchSlots ≥ 1 honest for DecodeSharedRun.
		packs = []*embedding.Embedding{e}
	}
	slots := len(packs)
	d.embs[n] = e
	d.packs[n] = packs
	d.slots[n] = slots
	return e, slots, nil
}

// packsFor returns (and caches) the disjoint parallel slot packing for N
// logical spins — the embeddings a shared run programs side by side.
func (d *Decoder) packsFor(n int) ([]*embedding.Embedding, error) {
	if _, _, err := d.embeddingFor(n); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.packs[n], nil
}

// Outcome is the result of one decode (one channel use).
type Outcome struct {
	// Bits are the decoded, post-translated (Gray) data bits.
	Bits []byte
	// Symbols are the decoded constellation points.
	Symbols []complex128
	// Energy is the logical Ising energy of the best sample; by
	// construction it equals the ML metric ‖y − H·Symbols‖².
	Energy float64
	// BrokenChains totals broken logical chains across all anneals
	// (annealer health diagnostic).
	BrokenChains int
	// Pf is the parallelization factor used for time amortization
	// (1 when AmortizeParallel is off).
	Pf float64
	// WallMicrosPerAnneal is Ta+Tp.
	WallMicrosPerAnneal float64
	// Distribution is the rank-ordered solution distribution with bit
	// errors against ground truth. Populated only by DecodeInstance (bit
	// errors need the transmitted bits — footnote 7); Decode leaves it nil.
	Distribution *metrics.Distribution
	// TxEnergy is the logical energy of the transmitted configuration
	// (DecodeInstance only); on a noise-free channel this is the ground
	// energy 0.
	TxEnergy float64
	// LLRs are the per-data-bit max-log-MAP log-likelihood ratios computed
	// over the read ensemble (positive favors bit 1, see internal/softout).
	// Populated only by the soft decode paths (DecodeSoft and friends, or a
	// batch item carrying a Soft spec); hard decodes leave it nil. Bits is
	// always the hard decision of the best read, so soft outputs never
	// change the hard result.
	LLRs []float64
	// LLRSaturated counts the LLR entries that hit the clamp (including
	// ensemble-unanimous bits). Soft decodes only.
	LLRSaturated int
	// SoftCandidates is the number of distinct candidates the ensemble
	// retained for LLR extraction. Soft decodes only.
	SoftCandidates int
}

// Decode runs the QuAMax pipeline on a raw channel use. src drives the
// annealer and tie-breaking; reuse one source across calls for independent
// randomness.
func (d *Decoder) Decode(mod modulation.Modulation, h *linalg.Mat, y []complex128, src *rng.Source) (*Outcome, error) {
	return d.decode(mod, h, y, nil, d.opts.Params, nil, src)
}

// DecodeWithParams is Decode with per-call run knobs overriding the
// decoder's configuration — the entry point the QoS planner uses to
// right-size the read budget (and match the fitted chain strength) per
// request while reusing this decoder's embedding caches. jf ≤ 0 selects the
// decoder's configured |J_F|.
func (d *Decoder) DecodeWithParams(mod modulation.Modulation, h *linalg.Mat, y []complex128, params anneal.Params, jf float64, src *rng.Source) (*Outcome, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return d.decodeJF(mod, h, y, nil, params, jf, nil, src)
}

// DecodeInstance decodes a generated instance and additionally fills the
// evaluation fields (Distribution, TxEnergy) using the instance's ground
// truth.
func (d *Decoder) DecodeInstance(in *mimo.Instance, src *rng.Source) (*Outcome, error) {
	return d.decode(in.Mod, in.H, in.Y, in, d.opts.Params, nil, src)
}

func (d *Decoder) decode(mod modulation.Modulation, h *linalg.Mat, y []complex128, truth *mimo.Instance, params anneal.Params, soft *softout.Spec, src *rng.Source) (*Outcome, error) {
	return d.decodeJF(mod, h, y, truth, params, 0, soft, src)
}

// chainJF resolves a per-call chain-strength override (≤ 0 = configured).
func (d *Decoder) chainJF(jf float64) float64 {
	if jf > 0 {
		return jf
	}
	return d.opts.JF
}

func (d *Decoder) decodeJF(mod modulation.Modulation, h *linalg.Mat, y []complex128, truth *mimo.Instance, params anneal.Params, jf float64, soft *softout.Spec, src *rng.Source) (*Outcome, error) {
	if src == nil {
		return nil, errors.New("core: nil random source")
	}
	logical := reduction.ReduceToIsing(mod, h, y)
	emb, slots, err := d.embeddingFor(logical.N)
	if err != nil {
		return nil, err
	}
	ep, err := emb.EmbedIsing(logical, d.chainJF(jf), d.opts.ImprovedRange)
	if err != nil {
		return nil, err
	}
	samples, err := d.opts.Machine.Run(ep.Phys, params, d.opts.ImprovedRange, src)
	if err != nil {
		return nil, err
	}
	return d.collect(mod, logical, emb, samples, truth, params, slots, soft, src), nil
}

// collect post-processes one run's samples into an Outcome: majority-vote
// unembedding, logical-energy scoring against the (possibly per-symbol)
// logical program, minimum-energy selection, and post-translation. It is
// shared by the recompiling and compiled-channel decode paths, which is what
// makes the two bit-identical given the same random stream. soft, when
// non-nil, additionally retains the read ensemble and fills the Outcome's
// LLR fields (the hard fields are computed exactly as before — soft output
// is purely additive).
func (d *Decoder) collect(mod modulation.Modulation, logical *qubo.Ising, emb *embedding.Embedding, samples []anneal.Sample, truth *mimo.Instance, params anneal.Params, slots int, soft *softout.Spec, src *rng.Source) *Outcome {
	out := &Outcome{
		Pf:                  1,
		WallMicrosPerAnneal: params.AnnealWallMicros(),
	}
	if d.opts.AmortizeParallel {
		out.Pf = float64(slots)
	}

	var acc *metrics.Accumulator
	if truth != nil {
		acc = metrics.NewAccumulator(logical.N)
		out.TxEnergy = logical.Energy(qubo.SpinsFromBits(truth.TxQUBOBits()))
	}
	sc := newSoftCollector(soft, mod, logical.N)

	bestE := 0.0
	var bestBits []byte
	for _, s := range samples {
		spins, broken := emb.Unembed(s.Spins, src)
		energy := logical.Energy(spins)
		out.BrokenChains += broken
		qbits := qubo.BitsFromSpins(spins)
		if bestBits == nil || energy < bestE {
			bestE = energy
			bestBits = qbits
		}
		if acc != nil {
			rx := mod.PostTranslate(qbits)
			acc.Add(string(qbits), energy, truth.BitErrors(rx))
		}
		sc.add(qbits, energy)
	}
	out.Energy = bestE
	out.Bits = mod.PostTranslate(bestBits)
	out.Symbols = reduction.BitsToSymbols(mod, bestBits)
	if acc != nil {
		out.Distribution = acc.Distribution()
	}
	sc.finish(out)
	d.recordQuality(mod, logical.N, len(samples), out)
	return out
}
