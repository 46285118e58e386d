package anneal

// The Metropolis engine (ROADMAP "One Metropolis engine"). Every sweep in the
// repository — device reads (Machine.run), the classical-SA fallback
// (RunMultiSpin) and parallel tempering (pt.go) — runs one of the two sweep
// bodies in this file, MSBlock.Sweep and its scalar twin MSScalar.Sweep, over
// one kernel layout:
//
//   - Flat CSR. MSKernel stores the symmetric adjacency as row offsets plus
//     neighbor and weight arrays, rows sorted by neighbor, duplicates merged.
//   - Incremental local fields. lam[i·R+r] caches 2·(h_i + Σ_k J_ik·σ_k),
//     the doubled local field of spin i in replica r (doubled so the flip
//     energy dE = −2·σ_i·λ_i is a single sign transfer with no multiply).
//     A visit is then O(1); only an accepted flip pays the O(degree)
//     neighbor walk, scattering the precomputed per-edge deltas ±4·J_ik
//     (flipW) into the neighbors' cached doubled fields.
//   - Cheap draws. Each replica owns a splitmix64 stream, seeded with one
//     Uint64 from the run's rng.Source, that supplies both its initial spins
//     and its Metropolis draws; the acceptance probability uses expNegY, a
//     deterministic interpolated 2^(−k/32) table, not math.Exp. Uphill
//     proposals past the rejection cut (β·dE ≈ 36.74, acceptance below the
//     draw's resolution) are rejected without consuming a draw.
//   - Incremental energies. energy[r] accumulates the accepted dEs, so
//     per-replica energies are always available (the parallel-tempering
//     scheduler in pt.go reads them at every exchange attempt) without an
//     O(n + |E|) evaluation.
//
// MSBlock adds multi-spin coding on top: up to 64 replicas that SHARE one
// coupling program run in one block, spin i of replica r being bit r of
// words[i], so a flip is one XOR against an accept mask, downhill moves are
// gathered branchlessly from the sign bits, and one CSR walk serves 64
// trajectories. That is what restarts of one logical program (ClassicalSA)
// and the rungs of a tempering ladder are. Device reads do NOT share a
// program — ICE redraws every coupler per read — so they run the scalar twin
// over a per-read kernel (anneal.go); lane-packing reads with per-lane
// weights was measured and is slower than the scalar body (ROADMAP item 2).
//
// The two bodies have identical arithmetic, operation order and stream
// discipline: one stream per replica, one bit per spin at init, one draw per
// uphill proposal below the rejection cut, all in spin order. The
// differential harness (equiv_test.go), the metamorphic tests and
// FuzzSweepEquivalence prove they produce bit-identical per-replica
// trajectories, spins and energies, and that a device read is bit-identical
// to the twin on a kernel compiled from that read's perturbed program.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// MaxReplicasPerBlock is the multi-spin word width: how many independent
// replicas one MSBlock packs (bit r of every word belongs to replica r).
const MaxReplicasPerBlock = 64

// The acceptance probability exp(−β·dE) is evaluated on a 1/32-octave grid:
// expTab[k] = 2^(−k/32), linearly interpolated (relative error < 6e-5, well
// under Metropolis sampling noise; the bench gate's gsrate holds the
// sampling quality). Proposals are scored directly in grid units
// y = β·dE·32·log₂e, with β pre-scaled once per sweep, so a draw costs one
// multiply, one truncation, two adjacent loads and a fused interpolation —
// no math.Exp on the hot path.
//
// rejectCutY is the grid position above which an uphill proposal is
// rejected without consuming a random draw: it corresponds to
// β·dE ≈ 36.74, where exp(−β·dE) < 2⁻⁵³ — below the resolution of a
// Float64 draw. Both the packed and the scalar sweep apply the same cut, so
// the two paths stay bit-identical.
const (
	expTabLast = 1696 // last interpolation interval start; 1696/(32·log₂e) ≈ 36.74
	rejectCutY = float64(expTabLast)
	yPerBeta   = 32 * math.Log2E // grid units per unit of β·dE
)

// splitmix64 constants (Vigna). Each replica's acceptance stream is the
// splitmix64 sequence from its seed: state += smixGamma, output = mix64.
const smixGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output permutation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nextFloat advances replica stream s and returns a uniform draw in [0, 1)
// with 53 random bits — the engine's Metropolis draw on both sweep paths.
func nextFloat(s *uint64) float64 {
	*s += smixGamma
	return float64(mix64(*s)>>11) * 0x1p-53
}

// nextSpinUp advances replica stream s and returns a fair coin — one initial
// spin on both sweep paths.
func nextSpinUp(s *uint64) bool {
	*s += smixGamma
	return mix64(*s)>>63 != 0
}

// expTab[k] = 2^(−k/32) for k ≤ expTabLast+1 (one spare entry so
// interpolation at the cut has its right neighbor). The array is a power of
// two long so expNegY can mask its indices and carry no bounds checks.
var expTab = func() (t [2048]float64) {
	for k := range t[:expTabLast+2] {
		t[k] = math.Exp2(-float64(k) / 32)
	}
	return t
}()

// expNegY approximates exp(−β·dE) for a proposal already scored in grid
// units y = β·dE·yPerBeta ∈ [0, rejectCutY): table lookup plus linear
// interpolation. Deterministic by construction — both sweep paths call it
// with bit-identical arguments and get bit-identical probabilities.
func expNegY(y float64) float64 {
	n := int(y)
	a := expTab[n&2047]
	return a + (expTab[(n+1)&2047]-a)*(y-float64(n))
}

// MSKernel is a sparse Ising program compiled for the engine: the flat-CSR
// adjacency both sweep paths walk, with the per-edge doubled-field deltas
// (4·J, applied with the sign of the flipped spin). A kernel is immutable and
// shared by any number of concurrent blocks.
type MSKernel struct {
	n      int
	offset float64
	h      []float64 // linear fields, len n
	start  []int32   // CSR row offsets, len n+1
	nbr    []int32   // neighbor spin per directed edge, ascending within a row
	w      []float64 // coupling J per directed edge
	flipW  []float64 // precomputed doubled-field flip delta 4·J per directed edge
}

// NewMSKernel compiles a sparse Ising program (coefficients taken verbatim —
// callers wanting the device's analog-range normalization divide by
// Machine.Scale first). Duplicate edges are merged by summation, mirroring
// qubo.Sparse.ToDense.
func NewMSKernel(prog *qubo.Sparse) (*MSKernel, error) {
	if prog.N == 0 {
		return nil, errors.New("anneal: empty program")
	}
	k := new(MSKernel)
	k.compile(prog)
	return k, nil
}

// compile (re)builds the kernel for prog, reusing whatever buffers the
// kernel already owns.
func (k *MSKernel) compile(prog *qubo.Sparse) {
	k.offset = prog.Offset
	k.h = append(k.h[:0], prog.H...)
	k.buildCSR(prog.N, prog.Edges)
	k.flipW = grow(k.flipW, len(k.w))
	for p, w := range k.w {
		k.flipW[p] = 4 * w
	}
}

// buildCSR compiles an undirected edge list into the kernel's symmetric
// flat-CSR adjacency (n, start, nbr, w): row i lists spin i's neighbors in
// ascending order — the flip scatter walks ascending addresses, and the row
// order fixes the float summation order of localField2 for every sweep path —
// with duplicate edges merged by summation in edge-list order.
func (k *MSKernel) buildCSR(n int, edges []qubo.SparseEdge) {
	// Row i's count goes to start[i+2], so that after the prefix sum
	// start[i+1] is where row i begins: the fill uses it as row i's cursor
	// and leaves it at row i's end, which is start[i+1]'s final meaning.
	start := grow(k.start, n+2)
	clear(start)
	for _, e := range edges {
		start[e.I+2]++
		start[e.J+2]++
	}
	for i := 2; i < n+2; i++ {
		start[i] += start[i-1]
	}
	nbr, w := grow(k.nbr, 2*len(edges)), grow(k.w, 2*len(edges))
	for _, e := range edges {
		nbr[start[e.I+1]], w[start[e.I+1]] = int32(e.J), e.W
		start[e.I+1]++
		nbr[start[e.J+1]], w[start[e.J+1]] = int32(e.I), e.W
		start[e.J+1]++
	}
	// Insertion-sort every row by neighbor, in place, merging duplicates and
	// compacting as it goes (out never overtakes the read position). Rows are
	// short or arrive nearly sorted — chains and couplers on Chimera, pairs in
	// (i, j>i) order from a dense logical program — so this is linear in
	// practice, and it needs no scratch.
	out := int32(0)
	for i := 0; i < n; i++ {
		lo, hi := start[i], start[i+1]
		start[i] = out
		for p := lo; p < hi; p++ {
			j, wj := nbr[p], w[p]
			q := out
			for q > start[i] && nbr[q-1] > j {
				q--
			}
			if q > start[i] && nbr[q-1] == j {
				w[q-1] += wj
				continue
			}
			copy(nbr[q+1:out+1], nbr[q:out])
			copy(w[q+1:out+1], w[q:out])
			nbr[q], w[q] = j, wj
			out++
		}
	}
	start[n] = out
	k.n, k.start, k.nbr, k.w = n, start[:n+1], nbr[:out], w[:out]
}

// grow returns s resized to n elements, reallocating only when it must; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// N returns the spin count the kernel was compiled for.
func (k *MSKernel) N() int { return k.n }

// Offset returns the program's constant energy offset.
func (k *MSKernel) Offset() float64 { return k.offset }

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

// MSScalar is the engine's scalar twin: one replica, plain int8 spins, the
// same incremental doubled fields, the same arithmetic in the same order,
// and the same stream discipline as one bit-lane of MSBlock. It is the device
// simulator's sweep (one read = one twin over that read's ICE-perturbed
// kernel, see Machine.run), the readable reference for the packed loop's
// semantics, and what holds the packed path honest — the differential and
// fuzz harnesses require bit-identical trajectories.
type MSScalar struct {
	k       *MSKernel
	spins   []int8
	lam     []float64 // doubled fields
	energy  float64
	beta    float64
	bscaled float64 // beta·yPerBeta
	state   uint64
}

// NewScalar allocates a scalar twin over the kernel, consuming one Uint64
// from src to seed its stream (as NewBlock does per replica).
func (k *MSKernel) NewScalar(src *rng.Source) *MSScalar {
	return &MSScalar{
		k:     k,
		spins: make([]int8, k.n),
		lam:   make([]float64, k.n),
		state: src.Uint64(),
	}
}

// SetBeta sets the inverse temperature.
func (s *MSScalar) SetBeta(beta float64) {
	s.beta = beta
	s.bscaled = beta * yPerBeta
}

// Init draws a uniform random state (one coin per spin from the twin's
// stream, in spin order) and rebuilds fields and energy.
func (s *MSScalar) Init() {
	for i := range s.spins {
		if nextSpinUp(&s.state) {
			s.spins[i] = 1
		} else {
			s.spins[i] = -1
		}
	}
	s.recompute()
}

// InitFrom installs an explicit initial state; no randomness is consumed.
func (s *MSScalar) InitFrom(spins []int8) error {
	if len(spins) != s.k.n {
		return fmt.Errorf("anneal: initial state has %d spins, want %d", len(spins), s.k.n)
	}
	copy(s.spins, spins)
	s.recompute()
	return nil
}

func (s *MSScalar) recompute() {
	sigma := func(i int32) float64 { return float64(s.spins[i]) }
	for i := 0; i < s.k.n; i++ {
		s.lam[i] = s.k.localField2(i, sigma)
	}
	s.energy = s.k.energyOf(sigma)
}

// Sweep performs one Metropolis pass — the scalar mirror of MSBlock.Sweep,
// operation for operation.
func (s *MSScalar) Sweep() {
	spins := s.spins
	lam := s.lam[:len(spins)]
	starts, nbrs, flipWs := s.k.start[:len(spins)+1], s.k.nbr, s.k.flipW
	bscaled, state, energy := s.bscaled, s.state, s.energy
	for i := range spins {
		// The spin bit, in the float sign position (−1 → 0, +1 → 1<<63).
		sgn := uint64((uint8(spins[i])+1)>>1) << 63
		deb := math.Float64bits(lam[i]) ^ sgn
		if deb>>63 == 0 { // uphill (dE ≥ 0): Metropolis draw
			y := bscaled * math.Float64frombits(deb) // dE = |λ|: the sign transfer came out non-negative
			if y >= rejectCutY {
				continue
			}
			if !(nextFloat(&state) < expNegY(y)) {
				continue
			}
		}
		row := nbrs[starts[i]:starts[i+1]]
		deltas := flipWs[starts[i]:starts[i+1]]
		for p, j := range row {
			lam[j] += math.Float64frombits(math.Float64bits(deltas[p]) ^ sgn)
		}
		spins[i] = -spins[i]
		energy += math.Float64frombits(deb)
	}
	s.state, s.energy = state, energy
}

// Energy returns the incrementally-maintained program energy.
func (s *MSScalar) Energy() float64 { return s.energy }

// Spins returns a copy of the current configuration.
func (s *MSScalar) Spins() []int8 { return append([]int8(nil), s.spins...) }

// trailingZeros finds the lowest set bit's index (bits.TrailingZeros64 is a
// compiler intrinsic on amd64, so this is a single TZCNT in the hot loop).
func trailingZeros(v uint64) int { return bits.TrailingZeros64(v) }

// MSSchedule is the simulated-annealing schedule of an engine run: a
// geometric β ramp over Sweeps passes with an optional fixed-temperature
// pause — the device's Ta/Tp semantics, so an engine run is comparable
// sweep-for-sweep with Machine.Run, whose forward anneals walk this schedule.
type MSSchedule struct {
	// BetaInitial and BetaFinal bound the geometric ramp.
	BetaInitial, BetaFinal float64
	// Sweeps is the ramp length (≥ 1).
	Sweeps int
	// PauseSweeps holds the schedule for this many extra sweeps at the
	// PauseAt ramp position (0 disables).
	PauseSweeps int
	// PauseAt is the ramp index where the pause sits.
	PauseAt int
}

// ScheduleFromParams converts device-style run knobs into the sweep schedule
// under the machine's calibration constants: Ta and Tp become sweep budgets,
// the pause position a ramp index.
func ScheduleFromParams(m *Machine, p Params) MSSchedule {
	ramp := int(math.Round(m.SweepsPerMicrosecond * p.AnnealTimeMicros))
	if ramp < 1 {
		ramp = 1
	}
	pause := 0
	if p.PauseTimeMicros > 0 {
		pause = int(math.Round(m.SweepsPerMicrosecond * p.PauseTimeMicros))
	}
	return MSSchedule{
		BetaInitial: m.BetaInitial,
		BetaFinal:   m.BetaFinal,
		Sweeps:      ramp,
		PauseSweeps: pause,
		PauseAt:     int(p.PausePosition * float64(ramp)),
	}
}

// at evaluates the geometric ramp at schedule fraction f ∈ [0,1].
func (sc MSSchedule) at(f float64) float64 {
	return sc.BetaInitial * math.Exp(math.Log(sc.BetaFinal/sc.BetaInitial)*f)
}

// beta evaluates the geometric ramp at sweep index s.
func (sc MSSchedule) beta(s int) float64 {
	if sc.Sweeps == 1 {
		return sc.at(1)
	}
	return sc.at(float64(s) / float64(sc.Sweeps-1))
}

// validate checks the schedule knobs.
func (sc MSSchedule) validate() error {
	if sc.Sweeps < 1 {
		return errors.New("anneal: schedule needs at least one sweep")
	}
	if sc.BetaInitial <= 0 || sc.BetaFinal <= 0 {
		return errors.New("anneal: schedule betas must be positive")
	}
	if sc.PauseSweeps < 0 {
		return errors.New("anneal: negative pause sweeps")
	}
	return nil
}

// betas expands the schedule into the β of every sweep, in order: the ramp,
// with the pause's held sweeps (the anneal pause that lets the system
// thermalize [43]) inserted after ramp index PauseAt. A run computes the list
// once and every read or block walks it.
func (sc MSSchedule) betas() []float64 {
	out := make([]float64, 0, sc.Sweeps+sc.PauseSweeps)
	for s := 0; s < sc.Sweeps; s++ {
		b := sc.beta(s)
		out = append(out, b)
		if s == sc.PauseAt {
			for k := 0; k < sc.PauseSweeps; k++ {
				out = append(out, b)
			}
		}
	}
	return out
}

// msEngine is RunMultiSpin's working set — the compiled kernel and its
// blocks — pooled across runs so a run allocates only what it returns.
type msEngine struct {
	k      MSKernel
	blocks []MSBlock
}

var msEngines = sync.Pool{New: func() any { return new(msEngine) }}

// RunMultiSpin executes `replicas` independent simulated anneals of prog
// through the packed engine and returns every final state with its energy.
// Replicas pack into 64-wide blocks; blocks run on up to `workers` goroutines
// (≤ 0 means one). The run is deterministic given src: replica r always owns
// the stream seeded by the r-th Uint64 drawn from it, regardless of worker
// count. The returned samples share one backing array.
func RunMultiSpin(prog *qubo.Sparse, sched MSSchedule, replicas, workers int, src *rng.Source) ([]Sample, []float64, error) {
	if err := sched.validate(); err != nil {
		return nil, nil, err
	}
	if replicas < 1 {
		return nil, nil, errors.New("anneal: need at least one replica")
	}
	if prog.N == 0 {
		return nil, nil, errors.New("anneal: empty program")
	}
	eng := msEngines.Get().(*msEngine)
	defer msEngines.Put(eng)
	k := &eng.k
	k.compile(prog)
	eng.blocks = grow(eng.blocks, (replicas+MaxReplicasPerBlock-1)/MaxReplicasPerBlock)
	blocks := eng.blocks
	for b := range blocks {
		blocks[b].reset(k, min(MaxReplicasPerBlock, replicas-b*MaxReplicasPerBlock), src)
	}
	betas := sched.betas()
	samples := make([]Sample, replicas)
	energies := make([]float64, replicas)
	spins := make([]int8, replicas*k.n)
	var next atomic.Int32
	work := func(int) {
		for b := int(next.Add(1)) - 1; b < len(blocks); b = int(next.Add(1)) - 1 {
			blk := &blocks[b]
			blk.Init()
			for _, beta := range betas {
				blk.SetAllBeta(beta)
				blk.Sweep()
			}
			for r := 0; r < blk.replicas; r++ {
				a := b*MaxReplicasPerBlock + r
				samples[a].Spins = spins[a*k.n : (a+1)*k.n : (a+1)*k.n]
				blk.spinsInto(r, samples[a].Spins)
				energies[a] = blk.energy[r]
			}
		}
	}
	fanOut(min(workers, len(blocks)), work)
	return samples, energies, nil
}

// fanOut calls work(0) … work(workers−1) concurrently — work(0) on the
// caller's goroutine, so one worker (or workers ≤ 0) spawns nothing — and
// returns when all have.
func fanOut(workers int, work func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
