// Compiled-channel decode path: the decoder-level half of the
// compile/execute split. The paper's C-RAN model (and its channel-coherence
// footnote) has the data center decode MANY received vectors y through ONE
// estimated channel H — every OFDM symbol of a coherence window, across
// subcarrier groups. Decode recompiles everything per call; the compiled
// path splits the pipeline at the H/y boundary instead:
//
//	compile (once per channel):  H ──CompileChannel──▶ couplings g_ij(H)
//	    ──EmbedIsing──▶ physical coupler program ──PrepareProgram──▶
//	    adjacency + coupler range scan
//	execute (per symbol):  y ──Biases──▶ fields f_i(H,y) ──chain spread──▶
//	    physical fields ──RunPrepared──▶ samples ──Unembed──▶ bits
//
// Compiled artifacts live in a per-decoder LRU keyed by the channel
// fingerprint (hash of modulation, Nt/Nr shape, and H's exact float bits),
// so a serving pool recognizes returning coherence windows without any
// caller bookkeeping. The execute phase is bit-identical to Decode on the
// same (H, y, random stream); property tests assert it.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"quamax/internal/anneal"
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
// coupler range. It is produced by Decoder.Compile, owned by that decoder,
// and safe for concurrent use.
type CompiledChannel struct {
	key   ChannelKey
	prog  *reduction.ChannelProgram
	emb   *embedding.Embedding
	slots int
	dec   *Decoder

	templates templateCache
}

// templateCache lazily materializes a channel's physical coupler programs:
// one solo template (the primary clique placement, fully prepared for
// RunPrepared) and one per parallel slot (couplers only, concatenated into
// combined shared-run programs). Templates are keyed by chain strength so
// planner-supplied |J_F| overrides each get their own program, exactly as a
// real chip would be reprogrammed when the operating point changes.
type templateCache struct {
	mu    sync.Mutex
	solo  map[float64]*physTemplate
	slots map[slotJF]*physTemplate
}

// slotJF keys a per-slot template: the (decoder-stable) slot index within
// the packing for N, plus the chain strength the couplers were scaled at.
type slotJF struct {
	slot int
	jf   float64
}

// physTemplate is one embedded coupler program: edges final, fields all
// zero, plus the dense chain indices the execute phase rewrites.
type physTemplate struct {
	phys     *qubo.Sparse            // coupler program (H all zero)
	pp       *anneal.PreparedProgram // prepared adjacency (solo templates only)
	chainIdx [][]int32
}

// soloFor returns (building on first use) the fully prepared primary-slot
// template for chain strength jf.
func (tc *templateCache) soloFor(cc *CompiledChannel, jf float64) (*physTemplate, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := tc.solo[jf]; ok {
		return t, nil
	}
	ep, err := cc.emb.EmbedIsing(cc.prog.CouplingTemplate(), jf, cc.dec.opts.ImprovedRange)
	if err != nil {
		return nil, err
	}
	t := &physTemplate{
		phys:     ep.Phys,
		pp:       cc.dec.opts.Machine.PrepareProgram(ep.Phys, cc.dec.opts.ImprovedRange),
		chainIdx: cc.emb.DenseChainIndices(),
	}
	if tc.solo == nil {
		tc.solo = make(map[float64]*physTemplate)
	}
	tc.solo[jf] = t
	return t, nil
}

// slotFor returns (building on first use) the coupler template for one
// parallel embedding slot at chain strength jf.
func (tc *templateCache) slotFor(cc *CompiledChannel, slot int, pack *embedding.Embedding, jf float64) (*physTemplate, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	key := slotJF{slot: slot, jf: jf}
	if t, ok := tc.slots[key]; ok {
		return t, nil
	}
	ep, err := pack.EmbedIsing(cc.prog.CouplingTemplate(), jf, cc.dec.opts.ImprovedRange)
	if err != nil {
		return nil, err
	}
	t := &physTemplate{phys: ep.Phys, chainIdx: pack.DenseChainIndices()}
	if tc.slots == nil {
		tc.slots = make(map[slotJF]*physTemplate)
	}
	tc.slots[key] = t
	return t, nil
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
	prog := reduction.CompileChannel(mod, h)
	emb, slots, err := d.embeddingFor(prog.N)
	if err != nil {
		return nil, false, err
	}
	cc := &CompiledChannel{key: key, prog: prog, emb: emb, slots: slots, dec: d}

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

// ChannelCacheStats snapshots the compiled-channel cache counters.
func (d *Decoder) ChannelCacheStats() metrics.ChannelCacheStats {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	return metrics.ChannelCacheStats{Hits: d.hits, Misses: d.misses, Evictions: d.evictions}
}

// DecodeCompiled runs the execute phase on one received vector: fill the
// y-dependent biases into the already-programmed channel and anneal. The
// result is bit-identical to Decode(cc.Mod(), cc.Channel(), y, src) with the
// same random stream.
func (d *Decoder) DecodeCompiled(cc *CompiledChannel, y []complex128, src *rng.Source) (*Outcome, error) {
	return d.decodeCompiled(cc, y, nil, d.opts.Params, 0, nil, src)
}

// DecodeCompiledWithParams is DecodeCompiled with per-call run knobs
// (jf ≤ 0 selects the decoder's configured |J_F|) — the compiled-path
// counterpart of DecodeWithParams for planner-sized budgets.
func (d *Decoder) DecodeCompiledWithParams(cc *CompiledChannel, y []complex128, params anneal.Params, jf float64, src *rng.Source) (*Outcome, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return d.decodeCompiled(cc, y, nil, params, jf, nil, src)
}

func (d *Decoder) decodeCompiled(cc *CompiledChannel, y []complex128, truth *mimo.Instance, params anneal.Params, jf float64, soft *softout.Spec, src *rng.Source) (*Outcome, error) {
	if src == nil {
		return nil, errors.New("core: nil random source")
	}
	if cc.dec != d {
		return nil, errors.New("core: compiled channel belongs to a different decoder")
	}
	jfEff := d.chainJF(jf)
	tmpl, err := cc.templates.soloFor(cc, jfEff)
	if err != nil {
		return nil, err
	}
	logical := cc.prog.Biases(y)
	hphys := make([]float64, tmpl.pp.N())
	fillChainFields(hphys, logical.H, tmpl.chainIdx, jfEff, cc.prog.N)
	samples, err := d.opts.Machine.RunPrepared(tmpl.pp, hphys, params, src)
	if err != nil {
		return nil, err
	}
	return d.collect(cc.prog.Mod, logical, cc.emb, samples, truth, params, cc.slots, soft, src), nil
}

// fillChainFields spreads the logical fields along each chain per Eq. 11:
// every chain qubit of logical spin i carries f_i/(|J_F|·chainLen) — the
// same arithmetic EmbedIsing performs, applied to a zeroed field vector.
func fillChainFields(hphys, logicalH []float64, chainIdx [][]int32, jf float64, n int) {
	chainLen := float64(embedding.ChainLength(n))
	for i, f := range logicalH {
		v := f / (jf * chainLen)
		for _, q := range chainIdx[i] {
			hphys[q] = v
		}
	}
}

// CompiledBatchItem is one decode of a compiled shared run: a compiled
// channel plus the received vector observed through it. Truth, when non-nil,
// fills the evaluation fields like DecodeInstance. Soft, when non-nil,
// requests per-bit LLRs for this item (the shared-run soft variant): each
// slot retains its own read ensemble, so soft and hard items mix freely in
// one run without affecting each other's results.
type CompiledBatchItem struct {
	CC    *CompiledChannel
	Y     []complex128
	Truth *mimo.Instance
	Soft  *softout.Spec
}

// DecodeCompiledSharedRun is DecodeSharedRun for compiled channels: up to
// BatchSlots(N) symbols — typically one coherence window's worth, possibly
// from different channels — share ONE annealer run, with each problem's
// couplers taken from its channel's cached per-slot template and only the
// biases rewritten. Results are bit-identical to DecodeSharedRun on the same
// items and random stream.
func (d *Decoder) DecodeCompiledSharedRun(items []CompiledBatchItem, src *rng.Source) ([]*Outcome, error) {
	return d.DecodeCompiledSharedRunWithParams(items, d.opts.Params, 0, src)
}

// DecodeCompiledSharedRunWithParams is DecodeCompiledSharedRun with per-run
// knobs (jf ≤ 0 = configured |J_F|), mirroring DecodeSharedRunWithParams.
func (d *Decoder) DecodeCompiledSharedRunWithParams(items []CompiledBatchItem, params anneal.Params, jf float64, src *rng.Source) ([]*Outcome, error) {
	if len(items) == 0 {
		return nil, errors.New("core: empty batch")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("core: nil random source")
	}
	n := items[0].CC.prog.N
	for _, it := range items {
		if it.CC.dec != d {
			return nil, errors.New("core: compiled channel belongs to a different decoder")
		}
		if it.CC.prog.N != n {
			return nil, fmt.Errorf("core: batch mixes logical sizes %d and %d", n, it.CC.prog.N)
		}
		if it.Soft != nil {
			if err := it.Soft.Validate(); err != nil {
				return nil, err
			}
		}
	}
	packs, err := d.packsFor(n)
	if err != nil {
		return nil, err
	}
	if len(items) > len(packs) {
		return nil, fmt.Errorf("core: batch of %d exceeds the %d parallel slots for N=%d",
			len(items), len(packs), n)
	}

	// Assemble the combined physical program from each channel's cached slot
	// template: couplers are copied, fields are computed fresh per symbol.
	jfEff := d.chainJF(jf)
	logicals := make([]*qubo.Ising, len(items))
	offsets := make([]int, len(items))
	total := 0
	for i := range items {
		offsets[i] = total
		total += packs[i].NumPhysical()
	}
	combined := qubo.NewSparse(total)
	for i, it := range items {
		tmpl, err := it.CC.templates.slotFor(it.CC, i, packs[i], jfEff)
		if err != nil {
			return nil, err
		}
		logicals[i] = it.CC.prog.Biases(it.Y)
		off := offsets[i]
		fillChainFields(combined.H[off:off+packs[i].NumPhysical()], logicals[i].H, tmpl.chainIdx, jfEff, n)
		for _, e := range tmpl.phys.Edges {
			combined.Edges = append(combined.Edges, qubo.SparseEdge{I: e.I + off, J: e.J + off, W: e.W})
		}
	}

	samples, err := d.opts.Machine.Run(combined, params, d.opts.ImprovedRange, src)
	if err != nil {
		return nil, err
	}

	outs := make([]*Outcome, len(items))
	for i, it := range items {
		out := &Outcome{
			Pf:                  1,
			WallMicrosPerAnneal: params.AnnealWallMicros(),
		}
		if d.opts.AmortizeParallel {
			out.Pf = float64(len(items))
		}
		var acc *metrics.Accumulator
		if it.Truth != nil {
			acc = metrics.NewAccumulator(n)
			out.TxEnergy = logicals[i].Energy(qubo.SpinsFromBits(it.Truth.TxQUBOBits()))
		}
		sc := newSoftCollector(it.Soft, it.CC.prog.Mod, n)
		off, np := offsets[i], packs[i].NumPhysical()
		bestE := 0.0
		var bestBits []byte
		for _, s := range samples {
			spins, broken := packs[i].Unembed(s.Spins[off:off+np], src)
			energy := logicals[i].Energy(spins)
			out.BrokenChains += broken
			qbits := qubo.BitsFromSpins(spins)
			if bestBits == nil || energy < bestE {
				bestE = energy
				bestBits = qbits
			}
			if acc != nil {
				rx := it.CC.prog.Mod.PostTranslate(qbits)
				acc.Add(string(qbits), energy, it.Truth.BitErrors(rx))
			}
			sc.add(qbits, energy)
		}
		out.Energy = bestE
		out.Bits = it.CC.prog.Mod.PostTranslate(bestBits)
		out.Symbols = reduction.BitsToSymbols(it.CC.prog.Mod, bestBits)
		if acc != nil {
			out.Distribution = acc.Distribution()
		}
		sc.finish(out)
		d.recordQuality(it.CC.prog.Mod, n, len(samples), out)
		outs[i] = out
	}
	return outs, nil
}
