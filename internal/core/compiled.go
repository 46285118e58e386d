// Compiled channels: everything H-dependent about a decode, built once and
// reused for every received vector y observed through the same channel. The
// paper's C-RAN model (and its channel-coherence footnote) has the data
// center decode MANY y — every OFDM symbol of a coherence window, across
// subcarrier groups — through ONE estimated H, so the pipeline splits at the
// H/y boundary:
//
//	per placement: layout + nonzero couplings ──Couplers──▶ coupler sources
//	    ──NewAdjacency──▶ shared CSR adjacency (Decoder.chipFor, once)
//	per channel:  H ──CompileChannel──▶ couplings g_ij(H) ──one pass over
//	    the adjacency's couplers──▶ weights + range scan (NewProgram)
//	per symbol:   y ──BiasesInto──▶ fields f_i(H,y) ──chain spread──▶
//	    physical fields ──RunSlots──▶ reads ──Unembed──▶ bits
//
// Compile keeps its artifacts in the decoder's WindowStore (store.go), so a
// serving pool recognizes returning coherence windows without any caller
// bookkeeping. A raw Request's channel lives only for its run, so its
// artifacts live in the pooled run scratch (pipeline.go), rebuilt in place.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/embedding"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/reduction"
)

// ChannelKey names a (modulation, H) pair — a Window's — to the decoder's
// WindowStore, the router's shard ring and the pool scheduler's
// coherence-window grouping. Zero is reserved as "no key". Equal keys are
// expected to mean identical channels; the store checks that on a hit, so a
// key of lesser quality than FingerprintChannel's can only cost scheduling
// locality and rebuilds, never correctness.
type ChannelKey uint64

// FingerprintChannel mints the key for (mod, H): a hash of the modulation, the
// shape and H's exact float64 bit patterns (FNV-1a, never zero). It is O(Nt·Nr)
// — 68 µs at 48×48 — so it runs once where H enters the process (NewWindow,
// a key-less Compile), never per symbol.
func FingerprintChannel(mod modulation.Modulation, h *linalg.Mat) ChannelKey {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			hash ^= v & 0xff
			hash *= prime64
			v >>= 8
		}
	}
	mix(uint64(mod))
	mix(uint64(h.Rows))
	mix(uint64(h.Cols))
	for _, c := range h.Data {
		mix(math.Float64bits(real(c)))
		mix(math.Float64bits(imag(c)))
	}
	if hash == 0 {
		hash = 1 // 0 is the "no key" sentinel
	}
	return ChannelKey(hash)
}

// CompiledChannel pins together everything H-dependent about a decode: the
// compiled Ising couplings (reduction.ChannelProgram), the clique embedding,
// the parallel slots for N, and — lazily — its coupler weights over the
// decoder's shared chip adjacency, one program per chain strength. It is
// produced by Decoder.Compile (or, for a raw request, for the duration of one
// call), owned by that decoder, and safe for concurrent use.
type CompiledChannel struct {
	prog  reduction.ChannelProgram
	emb   *embedding.Embedding
	packs []*embedding.Embedding // their count is the geometric Pf
	dec   *Decoder

	mu        sync.Mutex
	templates []template
}

// template is one of a channel's chip programs: the decoder's adjacency for
// its placement layout and nonzero couplings, with this channel's weights w
// at one chain strength (no fields — the program stage fills those per y). It
// depends on its placement only through the dense layout, so the primary
// placement and every slot laid out alike (all, where slots are defect free)
// share one; each chain strength a planner supplies reprograms the chip.
type template struct {
	emb *embedding.Embedding
	jf  float64
	w   []float64
	pp  *anneal.PreparedProgram
}

// programFor returns (building on first use) the template for emb at jf: one
// pass over the shared adjacency's couplers, each weighed as EmbedIsing
// weighs it, in the storage of a template a rebuilt channel left past the
// list's length (compileInto) where there is one.
func (cc *CompiledChannel) programFor(emb *embedding.Embedding, jf float64) *anneal.PreparedProgram {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, t := range cc.templates {
		if t.jf == jf && (t.emb == emb || t.emb.SameLayout(emb)) {
			return t.pp
		}
	}
	improved, p := cc.dec.opts.ImprovedRange, cc.prog.CouplingTemplate()
	c := cc.dec.chipFor(emb, p)
	cc.templates = slices.Grow(cc.templates, 1)[:len(cc.templates)+1]
	t := &cc.templates[len(cc.templates)-1]
	if t.pp == nil {
		t.pp = new(anneal.PreparedProgram)
	}
	t.emb, t.jf, t.w = emb, jf, slices.Grow(t.w[:0], len(c.src))[:len(c.src)]
	for e, src := range c.src {
		t.w[e] = c.emb.CouplerWeight(src, p, jf, improved)
	}
	t.pp.Reprogram(c.adj, t.w, improved)
	return t.pp
}

// Mod returns the modulation the channel was compiled for.
func (cc *CompiledChannel) Mod() modulation.Modulation { return cc.prog.Mod }

// Channel returns the channel matrix (shared, not copied; do not mutate).
func (cc *CompiledChannel) Channel() *linalg.Mat { return cc.prog.Channel() }

// LogicalSpins returns N, the Ising problem size of every decode through
// this channel.
func (cc *CompiledChannel) LogicalSpins() int { return cc.prog.N }

// Compile returns the compiled artifact for (mod, h) from the decoder's
// window store — Options.ChannelCache channels, least recently used first
// out. A miss compiles the couplings and resolves the (itself cached) clique
// embedding. This is the entry for a caller holding no key: H enters here, so
// the key is minted here.
func (d *Decoder) Compile(mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, error) {
	cc, _, err := d.CompileKeyed(0, mod, h)
	return cc, err
}

// CompileTracked is Compile, additionally reporting whether the artifact was
// already in the store.
func (d *Decoder) CompileTracked(mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, bool, error) {
	return d.CompileKeyed(0, mod, h)
}

// CompileKeyed is CompileTracked for a caller that already holds the key
// minted for (mod, h) — the key of a backend.Problem's or a VP program's
// Window — so a warm window costs no hash of H (WindowStore states the contract). The
// hit report is the signal backends surface as Result.CacheHit and the
// telemetry plane's compile-stage feeder. key 0 mints the fingerprint here.
func (d *Decoder) CompileKeyed(key ChannelKey, mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, bool, error) {
	start := time.Now()
	// The build runs outside the store's lock: the first embedding for a new
	// problem size is a placement search that must not stall other lookups.
	// Without a key, H enters the process here, only lent (WindowStore).
	lent := key == 0
	if lent {
		key = FingerprintChannel(mod, h)
	}
	cc, hit, err := d.channels.Get(key, mod, h, lent, func(h *linalg.Mat) (*CompiledChannel, error) {
		return d.build(new(CompiledChannel), mod, h)
	})
	if rec := d.telem.Load(); rec != nil && err == nil {
		rec.ObserveCompile(float64(time.Since(start))/float64(time.Microsecond), hit)
	}
	return cc, hit, err
}

// compileInto compiles (mod, h) into cc, outside the window store — the
// build a raw Request runs into run storage: the store is neither searched
// nor filled, and an attached recorder sees it as a miss. cc's storage from
// an earlier channel is rebuilt in place; the compile's wall time in µs is
// returned with it.
func (d *Decoder) compileInto(cc *CompiledChannel, mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, float64, error) {
	if h.Rows < 1 || h.Cols < 1 {
		return nil, 0, fmt.Errorf("core: empty %d×%d channel", h.Rows, h.Cols)
	}
	if _, err := modulation.Parse(mod.String()); err != nil {
		return nil, 0, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	if _, err := d.build(cc, mod, h); err != nil {
		return nil, 0, err
	}
	micros := float64(time.Since(start)) / float64(time.Microsecond)
	if rec := d.telem.Load(); rec != nil {
		rec.ObserveCompile(micros, false)
	}
	return cc, micros, nil
}

// build compiles (mod, h) into cc and returns it: the couplings plus the —
// itself cached — clique embedding for N. cc's templates are emptied, their
// storage kept.
func (d *Decoder) build(cc *CompiledChannel, mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, error) {
	reduction.CompileChannelInto(&cc.prog, mod, h)
	emb, packs, err := d.embeddingFor(cc.prog.N)
	if err != nil {
		return nil, err
	}
	cc.emb, cc.packs, cc.dec, cc.templates = emb, packs, d, cc.templates[:0]
	return cc, nil
}

// ChannelCacheStats snapshots the compiled-channel store's counters.
func (d *Decoder) ChannelCacheStats() metrics.ChannelCacheStats { return d.channels.Stats() }
