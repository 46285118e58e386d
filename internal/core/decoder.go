// Package core is QuAMax itself: the quantum-annealing ML MIMO decoder that
// ties the reduction, embedding, annealer and post-translation together
// (paper §3–§4). Every decode — hard or soft, forward or reverse, alone or
// sharing a run — is one Request through one four-stage pipeline
// (pipeline.go), under one Budget per run:
//
//	resolve  the channel: a *CompiledChannel as given, or a raw (Mod, H)
//	         compiled for this call into the run's pooled storage
//	         (CompileChannelInto → clique embedding)
//	program  the chip: the placement's adjacency (built once per layout and
//	         nonzero couplings, shared by every channel), then the channel's
//	         coupler weights over it (one pass, once per |J_F|), plus this
//	         y's biases spread along the chains; a shared run programs one
//	         slot per request
//	run      Na anneals per slot, forward, or reverse from the seed (solo)
//	tally    Unembed + majority vote ──▶ logical energies ──▶ min energy
//	         ──▶ QUBO bits ──PostTranslate──▶ b̂ (+ distribution, + LLRs)
//
// The raw-vs-compiled rule: a raw channel costs a compile on every call and
// is never cached, which suits a channel seen once. It never outlives its
// run, so its compile — couplings, template list, weights, chip program —
// lives in the run scratch the decoder pools, rebuilt in place for the next
// raw channel, and the decode allocates only its Outcome — nothing, when the
// request lends one (Request.Answer). A receiver decoding a coherence window
// calls Compile once — the result lives in the decoder's WindowStore, under
// the channel's key — and sends each symbol as a Request carrying the
// *CompiledChannel, paying only the bias rewrite. The two are bit-identical
// on the same random stream.
//
// The decoder also caches clique embeddings and parallel-slot packings per
// problem size, and the chip adjacency of each placement layout, mirroring a
// deployment where the C-RAN data center programs the same embedding template
// for every subcarrier of a given user count.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"quamax/internal/anneal"
	"quamax/internal/chimera"
	"quamax/internal/embedding"
	"quamax/internal/metrics"
	"quamax/internal/qubo"
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
	// entry pins a channel's Ising couplings, clique embedding and coupler
	// weights for the coherence window (see CompiledChannel).
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
	packs map[int][]*embedding.Embedding // parallel slot packings by N (their count is the geometric Pf)
	chips []*chip                        // chip adjacencies, oldest first (chipFor)

	channels *WindowStore[*CompiledChannel] // Compile's artifacts

	scratch sync.Pool // *scratch: a call's working set (pipeline.go)

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
		opts:     opts,
		embs:     make(map[int]*embedding.Embedding),
		packs:    make(map[int][]*embedding.Embedding),
		channels: NewWindowStore[*CompiledChannel](opts.ChannelCache),
	}, nil
}

// Options returns the decoder's effective configuration.
func (d *Decoder) Options() Options { return d.opts }

// SetTelemetry attaches (or, with nil, detaches) a telemetry recorder: every
// subsequent decode reports its anneal quality (best energy, chain breaks,
// LLR saturation) per problem class, and every Compile reports its duration
// and cache outcome. Safe to call concurrently with decodes.
func (d *Decoder) SetTelemetry(rec *telemetry.Recorder) { d.telem.Store(rec) }

// embeddingFor returns (and caches) the clique embedding for N logical spins
// and the disjoint slot packing a shared run programs side by side.
func (d *Decoder) embeddingFor(n int) (*embedding.Embedding, []*embedding.Embedding, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.embs[n]; ok {
		return e, d.packs[n], nil
	}
	e, err := embedding.Embed(d.opts.Graph, n)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %d logical spins: %w", n, err)
	}
	packs := embedding.PackSlots(d.opts.Graph, n)
	if len(packs) == 0 {
		// No disjoint pack fits (possible with defects at large N though one
		// placement exists): the lone embedding is the one slot of DecodeRun.
		packs = []*embedding.Embedding{e}
	}
	d.embs[n], d.packs[n] = e, packs
	return e, packs, nil
}

// chip is what every channel with the same nonzero couplings shares on a
// placement, and on every placement laid out alike: the adjacency, and each
// coupler's source (embedding.Couplers).
type chip struct {
	emb *embedding.Embedding
	nz  []bool // per logical pair: its coupling is nonzero
	adj *anneal.Adjacency
	src []float64
}

// maxChips bounds the chips a decoder keeps, oldest first out, so that a
// stream of unusual zero patterns cannot grow the list without end.
const maxChips = 16

// chipFor returns (building on first use) the chip for couplings p on emb.
// Callers meeting a new one build it once: the build holds the decoder's
// lock, as a placement search does.
func (d *Decoder) chipFor(emb *embedding.Embedding, p *qubo.Ising) *chip {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.chips {
		if (c.emb == emb || c.emb.SameLayout(emb)) && slices.EqualFunc(c.nz, p.J, func(nz bool, g float64) bool { return nz == (g != 0) }) {
			return c
		}
	}
	c := &chip{emb: emb, nz: make([]bool, len(p.J))}
	for k, g := range p.J {
		c.nz[k] = g != 0
	}
	c.adj, c.src = anneal.NewAdjacency(emb.NumPhysical(), emb.Couplers(p))
	if len(d.chips) == maxChips {
		d.chips = d.chips[1:]
	}
	d.chips = append(d.chips, c)
	return c
}

// BatchSlots returns how many independent N-spin problems fit one annealer
// run (≥ 1) — the geometric slot count of §4 and the capacity of DecodeRun.
func (d *Decoder) BatchSlots(n int) (int, error) {
	_, packs, err := d.embeddingFor(n)
	return len(packs), err
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
	// Reads is the number of anneals scored for this request: the run's read
	// budget, or fewer when the request's Radius settled it.
	Reads int
	// BrokenChains totals broken logical chains across those anneals
	// (annealer health diagnostic).
	BrokenChains int
	// Pf is the parallelization factor used for time amortization
	// (1 when AmortizeParallel is off).
	Pf float64
	// WallMicrosPerAnneal is Ta+Tp.
	WallMicrosPerAnneal float64
	// CompileMicros is the wall time the decode spent compiling a raw
	// channel (0 for a compiled one).
	CompileMicros float64
	// Distribution is the rank-ordered solution distribution with bit
	// errors against ground truth — non-nil iff the request carried Truth
	// (bit errors need the transmitted bits, footnote 7).
	Distribution *metrics.Distribution
	// TxEnergy is the logical energy of the transmitted configuration
	// (requests with Truth only); on a noise-free channel this is the
	// ground energy 0.
	TxEnergy float64
	// LLRs are the per-data-bit max-log-MAP log-likelihood ratios computed
	// over the read ensemble (positive favors bit 1, see internal/softout).
	// Populated only for requests carrying a Soft spec. Bits is always the
	// hard decision of the best read, so soft output never changes the hard
	// result.
	LLRs []float64
	// LLRSaturated counts the LLR entries that hit the clamp (including
	// ensemble-unanimous bits). Soft decodes only.
	LLRSaturated int
	// SoftCandidates is the number of distinct candidates the ensemble
	// retained for LLR extraction. Soft decodes only.
	SoftCandidates int
}
