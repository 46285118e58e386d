// Compiled channels: everything H-dependent about a decode, built once and
// reused for every received vector y observed through the same channel. The
// paper's C-RAN model (and its channel-coherence footnote) has the data
// center decode MANY y — every OFDM symbol of a coherence window, across
// subcarrier groups — through ONE estimated H, so the pipeline splits at the
// H/y boundary:
//
//	per channel:  H ──CompileChannel──▶ couplings g_ij(H) ──EmbedIsing──▶
//	    physical coupler program ──PrepareProgram──▶ adjacency + range scan
//	per symbol:   y ──Biases──▶ fields f_i(H,y) ──chain spread──▶ physical
//	    fields ──RunPrepared──▶ samples ──Unembed──▶ bits
//
// Compile keeps its artifacts in a per-decoder LRU keyed by the channel
// fingerprint (hash of modulation, Nt/Nr shape, and H's exact float bits),
// so a serving pool recognizes returning coherence windows without any
// caller bookkeeping.
package core

import (
	"math"
	"sync"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/embedding"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
)

// ChannelKey fingerprints a (modulation, H) pair for the compiled-channel
// cache and for coherence-window grouping in the pool scheduler. Zero is
// reserved as "no key". Equal keys are expected to mean identical channels;
// the decoder's cache hashes the full matrix contents, so a caller-supplied
// key of lesser quality can only degrade scheduling locality, never
// correctness.
type ChannelKey uint64

// FingerprintChannel hashes (mod, H) — shape and exact float64 bit patterns
// — into a ChannelKey (FNV-1a, never zero).
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
// the slot packing metadata, and — lazily, per chain strength — the embedded
// physical coupler program with its prepared adjacency and pre-scanned
// coupler range. It is produced by Decoder.Compile (or, for a raw request,
// for the duration of one call), owned by that decoder, and safe for
// concurrent use.
type CompiledChannel struct {
	key   ChannelKey
	prog  *reduction.ChannelProgram
	emb   *embedding.Embedding
	slots int
	dec   *Decoder

	templates templateCache
}

// templateCache lazily materializes a channel's physical coupler programs
// (edges final, fields all zero — the program stage fills those per y): one
// solo program on the primary clique placement, prepared for RunPrepared, and
// one per parallel slot, concatenated into shared-run programs. They are
// keyed by chain strength so planner-supplied |J_F| overrides each get their
// own program, exactly as a real chip would be reprogrammed when the
// operating point changes.
type templateCache struct {
	mu    sync.Mutex
	solo  map[float64]*anneal.PreparedProgram
	slots map[slotJF]*qubo.Sparse
}

// slotJF keys a per-slot template: the (decoder-stable) slot index within
// the packing for N, plus the chain strength the couplers were scaled at.
type slotJF struct {
	slot int
	jf   float64
}

// soloFor returns (building on first use) the prepared primary-slot coupler
// program for chain strength jf.
func (tc *templateCache) soloFor(cc *CompiledChannel, jf float64) (*anneal.PreparedProgram, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if pp, ok := tc.solo[jf]; ok {
		return pp, nil
	}
	ep, err := cc.emb.EmbedIsing(cc.prog.CouplingTemplate(), jf, cc.dec.opts.ImprovedRange)
	if err != nil {
		return nil, err
	}
	if tc.solo == nil {
		tc.solo = make(map[float64]*anneal.PreparedProgram)
	}
	tc.solo[jf] = cc.dec.opts.Machine.PrepareProgram(ep.Phys, cc.dec.opts.ImprovedRange)
	return tc.solo[jf], nil
}

// slotFor returns (building on first use) the coupler program for one
// parallel embedding slot at chain strength jf.
func (tc *templateCache) slotFor(cc *CompiledChannel, slot int, pack *embedding.Embedding, jf float64) (*qubo.Sparse, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	key := slotJF{slot: slot, jf: jf}
	if phys, ok := tc.slots[key]; ok {
		return phys, nil
	}
	ep, err := pack.EmbedIsing(cc.prog.CouplingTemplate(), jf, cc.dec.opts.ImprovedRange)
	if err != nil {
		return nil, err
	}
	if tc.slots == nil {
		tc.slots = make(map[slotJF]*qubo.Sparse)
	}
	tc.slots[key] = ep.Phys
	return ep.Phys, nil
}

// Key returns the channel fingerprint the artifact is cached under.
func (cc *CompiledChannel) Key() ChannelKey { return cc.key }

// Mod returns the modulation the channel was compiled for.
func (cc *CompiledChannel) Mod() modulation.Modulation { return cc.prog.Mod }

// Channel returns the channel matrix (shared, not copied; do not mutate).
func (cc *CompiledChannel) Channel() *linalg.Mat { return cc.prog.Channel() }

// LogicalSpins returns N, the Ising problem size of every decode through
// this channel.
func (cc *CompiledChannel) LogicalSpins() int { return cc.prog.N }

// Compile returns the compiled artifact for (mod, h), reusing the decoder's
// LRU cache when the channel fingerprint is warm. A miss compiles the
// couplings and resolves the (itself cached) clique embedding; an insert past
// the configured capacity evicts the least-recently-used channel.
func (d *Decoder) Compile(mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, error) {
	cc, _, err := d.CompileTracked(mod, h)
	return cc, err
}

// CompileTracked is Compile, additionally reporting whether the artifact was
// served from the compiled-channel cache — the signal backends surface as
// Result.CacheHit and the telemetry plane's compile-stage feeder.
func (d *Decoder) CompileTracked(mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, bool, error) {
	rec := d.telem.Load()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	cc, hit, err := d.compile(mod, h)
	if rec != nil && err == nil {
		rec.ObserveCompile(float64(time.Since(start))/float64(time.Microsecond), hit)
	}
	return cc, hit, err
}

func (d *Decoder) compile(mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, bool, error) {
	key := FingerprintChannel(mod, h)
	d.cacheMu.Lock()
	if el, ok := d.cache[key]; ok {
		d.lru.MoveToFront(el)
		d.hits++
		cc := el.Value.(*CompiledChannel)
		d.cacheMu.Unlock()
		return cc, true, nil
	}
	d.misses++
	d.cacheMu.Unlock()

	// Compile outside the cache lock: the first embedding for a new problem
	// size runs a placement search that must not stall concurrent lookups.
	cc, err := d.newChannel(key, mod, h)
	if err != nil {
		return nil, false, err
	}

	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if el, ok := d.cache[key]; ok {
		// A concurrent Compile won the race; keep the incumbent so every
		// caller shares one artifact (and one set of physical templates).
		d.lru.MoveToFront(el)
		return el.Value.(*CompiledChannel), false, nil
	}
	d.cache[key] = d.lru.PushFront(cc)
	for d.lru.Len() > d.opts.ChannelCache {
		back := d.lru.Back()
		d.lru.Remove(back)
		delete(d.cache, back.Value.(*CompiledChannel).key)
		d.evictions++
	}
	return cc, false, nil
}

// newChannel compiles (mod, h) into an artifact that is not (yet) in the
// cache: the couplings plus the — itself cached — clique embedding for N.
func (d *Decoder) newChannel(key ChannelKey, mod modulation.Modulation, h *linalg.Mat) (*CompiledChannel, error) {
	prog := reduction.CompileChannel(mod, h)
	emb, slots, err := d.embeddingFor(prog.N)
	if err != nil {
		return nil, err
	}
	return &CompiledChannel{key: key, prog: prog, emb: emb, slots: slots, dec: d}, nil
}

// ChannelCacheStats snapshots the compiled-channel cache counters.
func (d *Decoder) ChannelCacheStats() metrics.ChannelCacheStats {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	return metrics.ChannelCacheStats{Hits: d.hits, Misses: d.misses, Evictions: d.evictions}
}
