package anneal

// The packed 64-lane block — the multi-spin-coded sweep that served the
// classical tier until the scalar twin overtook it on every program the
// repository runs — kept as a test-only oracle: an independent second
// implementation of the engine's Metropolis pass (bit-packed spins, mask
// gathers, per-lane scatter; its own from-scratch field and energy walks
// through a spin-reader closure) that the differential, metamorphic and fuzz
// harnesses hold MSScalar.Sweep bit-identical to, lane by lane. It is
// unchanged from the product code it was; oracleRunMultiSpin and oracleRunPT
// below drive it the way RunMultiSpin and RunPT did, so the replica runner's
// outputs are pinned against it too (runner_test.go).

import (
	"fmt"
	"math"
	"math/bits"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// localField2 computes spin i's DOUBLED local field 2·(h_i + Σ J_ik·σ_k)
// from scratch for one replica's spin reader (σ(j) ∈ {−1,+1}). Both sweep
// paths initialize their cached fields through this one walk so their float
// operation order is identical. (Doubling by 2 is exact in IEEE-754, so the
// doubled representation tracks the plain field bit-for-bit.)
func (k *MSKernel) localField2(i int, sigma func(int32) float64) float64 {
	f := k.h[i]
	for p := k.start[i]; p < k.start[i+1]; p++ {
		f += k.w[p] * sigma(k.nbr[p])
	}
	return 2 * f
}

// energyOf evaluates the program energy of one replica from scratch, in the
// fixed field-then-edge order both paths share (each coupling counted once,
// from its lower-index spin's row).
func (k *MSKernel) energyOf(sigma func(int32) float64) float64 {
	e := k.offset
	for i := 0; i < k.n; i++ {
		e += k.h[i] * sigma(int32(i))
	}
	for i := int32(0); int(i) < k.n; i++ {
		for p := k.start[i]; p < k.start[i+1]; p++ {
			if j := k.nbr[p]; j > i {
				e += k.w[p] * sigma(i) * sigma(j)
			}
		}
	}
	return e
}

// MSBlock is one bit-packed group of up to 64 replicas annealing one kernel.
// Bit r of words[i] holds spin i of replica r (set = +1); lam caches every
// replica's doubled local fields; energy tracks every replica's program
// energy incrementally; beta is each replica's current inverse temperature
// (a shared schedule for plain SA, one ladder rung each under parallel
// tempering). A block is not safe for concurrent use — concurrency comes
// from running independent blocks (RunMultiSpin, RunPT).
type MSBlock struct {
	k        *MSKernel
	replicas int
	mask     uint64    // low `replicas` bits set
	words    []uint64  // len n
	lam      []float64 // doubled fields, len n·replicas, row-major by spin
	energy   []float64 // len replicas
	beta     []float64 // len replicas
	bscaled  []float64 // beta·yPerBeta, the sweep's grid-unit multiplier
	state    []uint64  // splitmix64 stream per replica

	rScratch []int32  // flipped-replica indices, per-spin scratch
	sScratch []uint64 // matching pre-flip sign bits (bit 63)
}

// NewBlock allocates a block of `replicas` trajectories, consuming one Uint64
// per replica from src, in replica order, to seed each replica's splitmix64
// stream (the stream discipline the differential harness pins). Everything a
// replica draws afterwards — its initial spins, its Metropolis draws — comes
// from its own stream.
func (k *MSKernel) NewBlock(replicas int, src *rng.Source) (*MSBlock, error) {
	if replicas < 1 || replicas > MaxReplicasPerBlock {
		return nil, fmt.Errorf("anneal: block of %d replicas outside [1,%d]", replicas, MaxReplicasPerBlock)
	}
	b := new(MSBlock)
	b.reset(k, replicas, src)
	return b, nil
}

// reset makes b a block of `replicas` trajectories over k with freshly seeded
// streams, reusing whatever buffers b already owns. The block's spins, fields
// and energies are unspecified until Init or InitFrom.
func (b *MSBlock) reset(k *MSKernel, replicas int, src *rng.Source) {
	b.k, b.replicas, b.mask = k, replicas, ^uint64(0)>>uint(64-replicas)
	b.words = grow(b.words, k.n)
	b.lam = grow(b.lam, k.n*replicas)
	b.energy = grow(b.energy, replicas)
	b.beta = grow(b.beta, replicas)
	b.bscaled = grow(b.bscaled, replicas)
	b.state = grow(b.state, replicas)
	b.rScratch = grow(b.rScratch, replicas)
	b.sScratch = grow(b.sScratch, replicas)
	for r := range b.state {
		b.state[r] = src.Uint64()
	}
}

// Replicas returns the number of packed trajectories.
func (b *MSBlock) Replicas() int { return b.replicas }

// SetBeta sets replica r's inverse temperature.
func (b *MSBlock) SetBeta(r int, beta float64) {
	b.beta[r] = beta
	b.bscaled[r] = beta * yPerBeta
}

// SetAllBeta sets every replica's inverse temperature (the SA schedule).
func (b *MSBlock) SetAllBeta(beta float64) {
	for r := range b.beta {
		b.beta[r] = beta
		b.bscaled[r] = beta * yPerBeta
	}
}

// Beta returns replica r's current inverse temperature.
func (b *MSBlock) Beta(r int) float64 { return b.beta[r] }

// Init draws every replica's initial state uniformly at random — one coin
// per spin from the replica's own stream, in spin order, exactly as the
// scalar twin draws — then rebuilds the cached fields and energies.
func (b *MSBlock) Init() {
	for i := range b.words {
		var w uint64
		for r := 0; r < b.replicas; r++ {
			if nextSpinUp(&b.state[r]) {
				w |= 1 << uint(r)
			}
		}
		b.words[i] = w
	}
	b.recompute()
}

// InitFrom installs explicit initial states (spins[r][i] ∈ {−1,+1}), the
// warm-start/metamorphic entry point: no randomness is consumed.
func (b *MSBlock) InitFrom(spins [][]int8) error {
	if len(spins) != b.replicas {
		return fmt.Errorf("anneal: %d initial states for %d replicas", len(spins), b.replicas)
	}
	for r, s := range spins {
		if len(s) != b.k.n {
			return fmt.Errorf("anneal: replica %d initial state has %d spins, want %d", r, len(s), b.k.n)
		}
		for i, v := range s {
			if v == 1 {
				b.words[i] |= 1 << uint(r)
			} else {
				b.words[i] &^= 1 << uint(r)
			}
		}
	}
	b.recompute()
	return nil
}

// recompute rebuilds lam and energy from the current spins via the kernel's
// shared from-scratch walks.
func (b *MSBlock) recompute() {
	R := b.replicas
	for r := 0; r < R; r++ {
		sigma := b.sigmaReader(r)
		for i := 0; i < b.k.n; i++ {
			b.lam[i*R+r] = b.k.localField2(i, sigma)
		}
		b.energy[r] = b.k.energyOf(sigma)
	}
}

// sigmaReader returns replica r's ±1 spin reader.
func (b *MSBlock) sigmaReader(r int) func(int32) float64 {
	mask := uint64(1) << uint(r)
	return func(i int32) float64 {
		if b.words[i]&mask != 0 {
			return 1
		}
		return -1
	}
}

// Sweep performs one Metropolis pass over all spins for every replica in
// the block. Per spin: a branchless pass gathers the downhill replicas
// (dE = −σ_i·λ_i has its sign bit set) into an accept mask; the uphill
// remainder walks the draw path (rejection cut, then one splitmix64 draw
// against expNeg); the flips land as one XOR; and only flipped replicas pay
// the neighbor walk that scatters the precomputed ±4J deltas.
func (b *MSBlock) Sweep() {
	k := b.k
	R := b.replicas
	lam := b.lam
	words := b.words
	bscaled := b.bscaled
	state := b.state
	energy := b.energy
	rS := b.rScratch
	sS := b.sScratch
	starts := k.start
	nbrs := k.nbr
	flipWs := k.flipW
	for i := 0; i < k.n; i++ {
		w := words[i]
		base := i * R
		row := lam[base : base+R : base+R]
		// Pass 1 (branchless): dE = −σ_i·λ_i as a sign transfer on the
		// doubled field; sign bit set ⇒ dE < 0 (or −0) ⇒ accept outright.
		var flips uint64
		for r := 0; r < R; r++ {
			deb := math.Float64bits(row[r]) ^ (((w >> uint(r)) & 1) << 63)
			flips |= (deb >> 63) << uint(r)
		}
		// Pass 2: the uphill remainder runs the Metropolis draw in grid
		// units (dE = |λ| here — the sign transfer came out non-negative).
		// The accept bit is a flag materialization, not a branch, so the
		// draw's inherent unpredictability never stalls the pipeline.
		for f := b.mask &^ flips; f != 0; f &= f - 1 {
			r := trailingZeros(f)
			y := bscaled[r] * math.Abs(row[r])
			if y >= rejectCutY {
				continue // acceptance below draw resolution: reject, no draw
			}
			var bit uint64
			if nextFloat(&state[r]) < expNegY(y) {
				bit = 1
			}
			flips |= bit << uint(r)
		}
		if flips == 0 {
			continue
		}
		words[i] = w ^ flips
		// Collect flipped replicas once (index + pre-flip sign bit), paying
		// the accepted dE into each energy; then scatter the flip deltas:
		// flipping σ_i moves every neighbor's doubled field by −4·σ_i·J.
		nf := 0
		for f := flips; f != 0; f &= f - 1 {
			r := trailingZeros(f)
			sgn := ((w >> uint(r)) & 1) << 63
			rS[nf] = int32(r)
			sS[nf] = sgn
			energy[r] += math.Float64frombits(math.Float64bits(row[r]) ^ sgn)
			nf++
		}
		for p := starts[i]; p < starts[i+1]; p++ {
			jb := int(nbrs[p]) * R
			d4 := math.Float64bits(flipWs[p])
			for c := 0; c < nf; c++ {
				lam[jb+int(rS[c])] += math.Float64frombits(d4 ^ sS[c])
			}
		}
	}
}

// Energy returns replica r's incrementally-maintained program energy.
func (b *MSBlock) Energy(r int) float64 { return b.energy[r] }

// Energies copies all replica energies.
func (b *MSBlock) Energies() []float64 { return append([]float64(nil), b.energy...) }

// Spins extracts replica r's configuration as ±1 spins.
func (b *MSBlock) Spins(r int) []int8 {
	out := make([]int8, b.k.n)
	b.spinsInto(r, out)
	return out
}

// spinsInto writes replica r's configuration into out (len n).
func (b *MSBlock) spinsInto(r int, out []int8) {
	mask := uint64(1) << uint(r)
	for i, w := range b.words {
		if w&mask != 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
}

// trailingZeros finds the lowest set bit's index (bits.TrailingZeros64 is a
// compiler intrinsic on amd64, so this is a single TZCNT in the hot loop).
func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }

// oracleRunMultiSpin is RunMultiSpin as the packed engine ran it: replicas
// pack into 64-wide blocks in replica order, every block's streams are seeded
// from src before any block runs, and each block walks the schedule's β list.
func oracleRunMultiSpin(prog *qubo.Sparse, sched MSSchedule, replicas int, src *rng.Source) ([]Sample, []float64, error) {
	k, err := NewMSKernel(prog)
	if err != nil {
		return nil, nil, err
	}
	var blocks []*MSBlock
	for r := 0; r < replicas; r += MaxReplicasPerBlock {
		b, err := k.NewBlock(min(MaxReplicasPerBlock, replicas-r), src)
		if err != nil {
			return nil, nil, err
		}
		blocks = append(blocks, b)
	}
	samples := make([]Sample, 0, replicas)
	energies := make([]float64, 0, replicas)
	for _, blk := range blocks {
		blk.Init()
		for _, beta := range sched.betas() {
			blk.SetAllBeta(beta)
			blk.Sweep()
		}
		for r := 0; r < blk.replicas; r++ {
			samples = append(samples, Sample{Spins: blk.Spins(r)})
			energies = append(energies, blk.Energy(r))
		}
	}
	return samples, energies, nil
}

// oraclePTLadder is one tempering ladder packed into the bit-lanes of one
// block: lane r holds one replica, an exchange swaps two lanes' temperatures.
type oraclePTLadder struct {
	block      *MSBlock
	exch       *rng.Source
	betas      []float64 // rung temperatures, hottest first
	lane       []int     // rung → bit-lane holding that rung's replica
	bestEnergy float64
	bestSpins  []int8
	attempts   int
	swaps      int
}

func (l *oraclePTLadder) exchange(parity int) {
	for t := parity; t+1 < len(l.betas); t += 2 {
		a, b := l.lane[t], l.lane[t+1]
		delta := (l.betas[t] - l.betas[t+1]) * (l.block.Energy(a) - l.block.Energy(b))
		l.attempts++
		if delta < 0 && !(l.exch.Float64() < math.Exp(delta)) {
			continue
		}
		l.block.SetBeta(a, l.betas[t+1])
		l.block.SetBeta(b, l.betas[t])
		l.lane[t], l.lane[t+1] = b, a
		l.swaps++
	}
}

func (l *oraclePTLadder) checkpoint() {
	best := -1
	for r := 0; r < l.block.Replicas(); r++ {
		if e := l.block.Energy(r); e < l.bestEnergy {
			l.bestEnergy = e
			best = r
		}
	}
	if best >= 0 {
		l.bestSpins = l.block.Spins(best)
	}
}

// oracleRunPT is RunPT as the packed engine ran it, one ladder per block.
func oracleRunPT(prog *qubo.Sparse, params PTParams, src *rng.Source) (*PTResult, error) {
	p, err := params.withDefaults(prog)
	if err != nil {
		return nil, err
	}
	k, err := NewMSKernel(prog)
	if err != nil {
		return nil, err
	}
	betas := p.ladderBetas()
	res := &PTResult{
		BestEnergy: math.Inf(1),
		Samples:    make([]Sample, p.Ladders),
		Energies:   make([]float64, p.Ladders),
	}
	for i, ladderSrc := range src.SplitN(p.Ladders) {
		block, err := k.NewBlock(p.Rungs, ladderSrc)
		if err != nil {
			return nil, err
		}
		l := &oraclePTLadder{
			block:      block,
			exch:       ladderSrc,
			betas:      betas,
			lane:       make([]int, p.Rungs),
			bestEnergy: math.Inf(1),
		}
		for t := range l.lane {
			l.lane[t] = t
			block.SetBeta(t, betas[t])
		}
		if p.InitSpins != nil {
			warm := make([][]int8, p.Rungs)
			for r := range warm {
				warm[r] = p.InitSpins
			}
			if err := block.InitFrom(warm); err != nil {
				return nil, err
			}
		} else {
			block.Init()
		}
		for s := 1; s <= p.Sweeps; s++ {
			block.Sweep()
			if s%p.SwapEvery == 0 {
				l.exchange((s / p.SwapEvery) % 2)
				l.checkpoint()
			}
		}
		l.checkpoint()
		cold := l.lane[p.Rungs-1]
		res.Samples[i] = Sample{Spins: block.Spins(cold)}
		res.Energies[i] = block.Energy(cold)
		res.SwapAttempts += l.attempts
		res.Swaps += l.swaps
		if l.bestEnergy < res.BestEnergy {
			res.BestEnergy = l.bestEnergy
			res.BestSpins = l.bestSpins
		}
	}
	return res, nil
}
