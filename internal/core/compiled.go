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
// A Window request and Compile keep their artifacts in the decoder's
// WindowStore (store.go), so a serving pool recognizes returning coherence
// windows without any caller bookkeeping; the store rebuilds an evicted
// window's artifacts in place for the next window. A raw Request's channel
// lives only for its run, so its artifacts live in the pooled run scratch
// (pipeline.go), rebuilt in place too.
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
// decoder's shared chip adjacency, one program per chain strength. It lives
// in the decoder's window store (Decoder.Compile, a Window request) or, for a
// raw request, in run storage for the duration of one call; it is owned by
// that decoder, and safe for concurrent use.
type CompiledChannel struct {
	prog  reduction.ChannelProgram
	emb   *embedding.Embedding
	packs []*embedding.Embedding // their count is the geometric Pf
	dec   *Decoder

	mu        sync.Mutex
	templates []template
	first     [1]template // templates' storage until a second chain strength
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
	pp  anneal.PreparedProgram
}

// programFor returns (building on first use) the template for emb at jf: one
// pass over the shared adjacency's couplers, each weighed as EmbedIsing
// weighs it, in the storage of a template a rebuilt channel left past the
// list's length (build) where there is one.
func (cc *CompiledChannel) programFor(emb *embedding.Embedding, jf float64) *anneal.PreparedProgram {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for i := range cc.templates {
		if t := &cc.templates[i]; t.jf == jf && (t.emb == emb || t.emb.SameLayout(emb)) {
			return &t.pp
		}
	}
	improved, p := cc.dec.opts.ImprovedRange, cc.prog.CouplingTemplate()
	c := cc.dec.chipFor(emb, p)
	cc.templates = slices.Grow(cc.templates, 1)[:len(cc.templates)+1]
	t := &cc.templates[len(cc.templates)-1]
	t.emb, t.jf, t.w = emb, jf, slices.Grow(t.w[:0], len(c.src))[:len(c.src)]
	for e, src := range c.src {
		t.w[e] = c.emb.CouplerWeight(src, p, jf, improved)
	}
	t.pp.Reprogram(c.adj, t.w, improved)
	return &t.pp
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
// the key is minted here. The artifact is the caller's to keep: the store
// never rebuilds it for another window (a Window request, which the decoder
// holds only for its run, lets it).
func (d *Decoder) Compile(mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, error) {
	cc, _, err := d.CompileTracked(mod, h)
	return cc, err
}

// CompileTracked is Compile, additionally reporting whether the artifact was
// already in the store.
func (d *Decoder) CompileTracked(mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, bool, error) {
	start := time.Now()
	// The build runs outside the store's lock: the first embedding for a new
	// problem size is a placement search that must not stall other lookups.
	// H enters the process here, only lent (WindowStore).
	cc, hit, err := d.channels.Get(FingerprintChannel(mod, h), mod, h, true, func(cc *CompiledChannel, h *linalg.Mat) error {
		_, err := d.build(cc, mod, h)
		return err
	})
	if err == nil {
		d.observeCompile(start, hit)
	}
	return cc, hit, err
}

// pinWindow resolves a Window request's channel through the window store,
// pinned until the run unpins it, with the lookup's wall time in µs (the
// build's, on a miss) and whether it hit. The window's H is registered, so
// the store keeps it as given.
func (d *Decoder) pinWindow(w *Window) (*windowEntry[CompiledChannel], float64, bool, error) {
	start := time.Now()
	e, hit, err := d.channels.pin(w.key, w.mod, w.Channel(), false, false, func(cc *CompiledChannel, h *linalg.Mat) error {
		_, err := d.build(cc, w.mod, h)
		return err
	})
	if err != nil {
		return nil, 0, false, err
	}
	return e, d.observeCompile(start, hit), hit, nil
}

// observeCompile returns the µs since start, a compile or lookup's wall time,
// and reports it to the attached recorder, if any.
func (d *Decoder) observeCompile(start time.Time, hit bool) float64 {
	micros := float64(time.Since(start)) / float64(time.Microsecond)
	if rec := d.telem.Load(); rec != nil {
		rec.ObserveCompile(micros, hit)
	}
	return micros
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
	return cc, d.observeCompile(start, false), nil
}

// build compiles (mod, h) into cc and returns it: the couplings plus the —
// itself cached — clique embedding for N. cc's storage from an earlier
// channel is rebuilt in place: its couplings', and its templates' (emptied),
// whose list starts in cc itself.
func (d *Decoder) build(cc *CompiledChannel, mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, error) {
	reduction.CompileChannelInto(&cc.prog, mod, h)
	emb, packs, err := d.embeddingFor(cc.prog.N)
	if err != nil {
		return nil, err
	}
	if cc.templates == nil {
		cc.templates = cc.first[:0]
	}
	cc.emb, cc.packs, cc.dec, cc.templates = emb, packs, d, cc.templates[:0]
	return cc, nil
}

// ChannelCacheStats snapshots the compiled-channel store's counters.
func (d *Decoder) ChannelCacheStats() metrics.ChannelCacheStats { return d.channels.Stats() }
