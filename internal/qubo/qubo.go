// Package qubo defines the two equivalent optimization forms a quantum
// annealer accepts (paper §3.1): the Ising spin-glass form over s ∈ {−1,+1}
// (Eq. 2) and the QUBO form over q ∈ {0,1} (Eq. 3), the exact conversion
// between them (Eq. 4), energy evaluation, and an exhaustive solver used as
// the test oracle and ML ground truth for small problems.
//
// Both forms carry an Offset so that the Ising/QUBO energy of a solution can
// equal the ML decoder's Euclidean metric ‖y−Hv‖² exactly (paper footnote 6:
// "the energy distribution ... corresponds to the distribution of ML decoder
// Euclidean distances").
package qubo

import (
	"fmt"
	"math"
	"slices"
)

// Ising is the spin-glass objective  Σ_{i<j} J_ij s_i s_j + Σ_i H_i s_i + Offset
// with s_i ∈ {−1,+1}. Couplings are stored densely upper-triangular.
//
// Mutate couplings through SetJ/AddJ only: they maintain a sparse index of
// structurally-nonzero entries that Clone and MaxAbsCoefficient use to skip
// the (typically mostly-zero) dense triangle. Fields (H) and Offset may be
// written directly.
type Ising struct {
	N      int
	H      []float64 // linear fields f_i, len N
	J      []float64 // upper-triangular couplings g_ij (i<j), len N(N−1)/2
	Offset float64

	// nz indexes the entries of J that have ever been set nonzero (a
	// superset of the currently-nonzero entries: clearing a coupling leaves
	// a stale zero, which is harmless to every consumer).
	nz []int32
}

// NewIsing returns a zero Ising problem over n spins.
func NewIsing(n int) *Ising {
	if n < 0 {
		panic("qubo: negative size")
	}
	pairs := n * (n - 1) / 2
	return &Ising{N: n, H: make([]float64, n), J: make([]float64, pairs), nz: make([]int32, 0, pairs)}
}

// Reset makes p NewIsing(n) in p's own storage where it has room, so one p
// rebuilt problem after problem allocates only to grow — fields and
// couplings in one block when both must. No problem sharing p's couplings
// (SharedCouplings) may be in use.
func (p *Ising) Reset(n int) {
	if n < 0 {
		panic("qubo: negative size")
	}
	pairs := n * (n - 1) / 2
	h, j := p.H, p.J
	switch {
	case cap(h) < n && cap(j) < pairs:
		block := make([]float64, n+pairs)
		h, j = block[:n:n], block[n:]
	case cap(h) < n:
		h = make([]float64, n)
	case cap(j) < pairs:
		j = make([]float64, pairs)
	}
	*p = Ising{N: n, H: h[:n], J: j[:pairs], nz: slices.Grow(p.nz[:0], pairs)}
	clear(p.H)
	clear(p.J)
}

// jIdx maps an (i,j) pair with i<j to the flat upper-triangular index.
func (p *Ising) jIdx(i, j int) int {
	if i >= j || j >= p.N || i < 0 {
		panic(fmt.Sprintf("qubo: bad coupling index (%d,%d) for N=%d", i, j, p.N))
	}
	// Row i starts after i rows of decreasing length: i*N − i(i+1)/2.
	return i*p.N - i*(i+1)/2 + (j - i - 1)
}

// jCoords inverts jIdx: the (i, j) spin pair of flat upper-triangular
// index k.
func (p *Ising) jCoords(k int) (int, int) {
	i, rowStart := 0, 0
	for {
		rowLen := p.N - i - 1
		if k < rowStart+rowLen {
			return i, k - rowStart + i + 1
		}
		rowStart += rowLen
		i++
	}
}

// SetJ sets the coupling between spins i and j (order-insensitive).
func (p *Ising) SetJ(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	k := p.jIdx(i, j)
	if p.J[k] == 0 && v != 0 {
		p.nz = append(p.nz, int32(k))
	}
	p.J[k] = v
}

// AddJ accumulates into the coupling between spins i and j.
func (p *Ising) AddJ(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	k := p.jIdx(i, j)
	if p.J[k] == 0 && v != 0 {
		p.nz = append(p.nz, int32(k))
	}
	p.J[k] += v
}

// GetJ returns the coupling between spins i and j (0 if i == j).
func (p *Ising) GetJ(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return p.J[p.jIdx(i, j)]
}

// Energy evaluates the Ising objective for a spin assignment (±1 entries).
func (p *Ising) Energy(s []int8) float64 {
	if len(s) != p.N {
		panic("qubo: spin vector length mismatch")
	}
	e := p.Offset
	for i := 0; i < p.N; i++ {
		e += p.H[i] * float64(s[i])
	}
	k := 0
	for i := 0; i < p.N; i++ {
		si := float64(s[i])
		for j := i + 1; j < p.N; j++ {
			e += p.J[k] * si * float64(s[j])
			k++
		}
	}
	return e
}

// MaxAbsCoefficient returns max(|H_i|, |J_ij|), the scale used when fitting a
// problem into the annealer's analog range. Only the sparse-indexed couplings
// are scanned — never-set entries are structurally zero and cannot raise the
// maximum.
func (p *Ising) MaxAbsCoefficient() float64 {
	var m float64
	for _, v := range p.H {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	for _, k := range p.nz {
		if a := math.Abs(p.J[k]); a > m {
			m = a
		}
	}
	return m
}

// Clone deep-copies the problem. Couplings are copied through the sparse
// index, so cloning a problem with few couplings does not pay for the dense
// zero triangle.
func (p *Ising) Clone() *Ising {
	c := NewIsing(p.N)
	copy(c.H, p.H)
	for _, k := range p.nz {
		c.J[k] = p.J[k]
	}
	c.nz = append([]int32(nil), p.nz...)
	c.Offset = p.Offset
	return c
}

// SharedCouplings returns a new Ising over the same spins that SHARES p's
// coupling storage (J and its sparse index) but carries fresh zero fields and
// a zero offset. It is the execute-phase primitive of the compile/execute
// split in internal/reduction: the channel-dependent couplings are built
// once, and each received vector only rewrites fields and offset. Neither
// problem may call SetJ/AddJ after sharing.
func (p *Ising) SharedCouplings() *Ising {
	c := new(Ising)
	p.ShareCouplingsInto(c)
	return c
}

// ShareCouplingsInto is SharedCouplings into dst: dst becomes a problem over
// p's couplings with a zero offset and fields of its own, kept in dst.H's
// storage when it has room (the fields are then unspecified, not zero) — a
// caller reusing one dst across problems allocates nothing.
func (p *Ising) ShareCouplingsInto(dst *Ising) {
	h := dst.H
	if cap(h) < p.N {
		h = make([]float64, p.N)
	}
	*dst = Ising{N: p.N, H: h[:p.N], J: p.J, nz: p.nz}
}

// QUBO is the binary objective  Σ_{i≤j} Q_ij q_i q_j + Offset with
// q_i ∈ {0,1}. Q is stored densely upper-triangular including the diagonal.
type QUBO struct {
	N      int
	Q      []float64 // upper-triangular including diagonal, len N(N+1)/2
	Offset float64
}

// NewQUBO returns a zero QUBO over n variables.
func NewQUBO(n int) *QUBO {
	if n < 0 {
		panic("qubo: negative size")
	}
	return &QUBO{N: n, Q: make([]float64, n*(n+1)/2)}
}

// qIdx maps (i,j) with i≤j to the flat index.
func (q *QUBO) qIdx(i, j int) int {
	if i > j || j >= q.N || i < 0 {
		panic(fmt.Sprintf("qubo: bad QUBO index (%d,%d) for N=%d", i, j, q.N))
	}
	return i*q.N - i*(i-1)/2 + (j - i)
}

// Set assigns Q_ij (order-insensitive).
func (q *QUBO) Set(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	q.Q[q.qIdx(i, j)] = v
}

// Add accumulates into Q_ij.
func (q *QUBO) Add(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	q.Q[q.qIdx(i, j)] += v
}

// Get returns Q_ij.
func (q *QUBO) Get(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return q.Q[q.qIdx(i, j)]
}

// Energy evaluates the QUBO objective for a 0/1 assignment.
func (q *QUBO) Energy(bits []byte) float64 {
	if len(bits) != q.N {
		panic("qubo: bit vector length mismatch")
	}
	e := q.Offset
	k := 0
	for i := 0; i < q.N; i++ {
		if bits[i] == 0 {
			k += q.N - i
			continue
		}
		for j := i; j < q.N; j++ {
			if bits[j] != 0 {
				e += q.Q[k]
			}
			k++
		}
	}
	return e
}

// ToIsing converts via Eq. 4 (q_i ↔ (s_i+1)/2), preserving energies exactly:
// Energy_QUBO(bits) == Energy_Ising(SpinsFromBits(bits)) for every assignment.
func (q *QUBO) ToIsing() *Ising {
	p := NewIsing(q.N)
	p.Offset = q.Offset
	for i := 0; i < q.N; i++ {
		qii := q.Get(i, i)
		p.H[i] += qii / 2
		p.Offset += qii / 2
		for j := i + 1; j < q.N; j++ {
			qij := q.Get(i, j)
			if qij == 0 {
				continue
			}
			p.AddJ(i, j, qij/4)
			p.H[i] += qij / 4
			p.H[j] += qij / 4
			p.Offset += qij / 4
		}
	}
	return p
}

// ToQUBO converts via s_i = 2q_i − 1, preserving energies exactly.
func (p *Ising) ToQUBO() *QUBO {
	q := NewQUBO(p.N)
	q.Offset = p.Offset
	for i := 0; i < p.N; i++ {
		q.Add(i, i, 2*p.H[i])
		q.Offset -= p.H[i]
		for j := i + 1; j < p.N; j++ {
			jij := p.GetJ(i, j)
			if jij == 0 {
				continue
			}
			q.Add(i, j, 4*jij)
			q.Add(i, i, -2*jij)
			q.Add(j, j, -2*jij)
			q.Offset += jij
		}
	}
	return q
}

// SpinsFromBits maps 0/1 bits to ±1 spins (0→−1, 1→+1), Eq. 4.
func SpinsFromBits(bits []byte) []int8 {
	s := make([]int8, len(bits))
	for i, b := range bits {
		if b != 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// BitsFromSpins maps ±1 spins to 0/1 bits (−1→0, +1→1). It is the
// allocating form of AppendBitsFromSpins.
func BitsFromSpins(s []int8) []byte {
	return AppendBitsFromSpins(make([]byte, 0, len(s)), s)
}

// AppendBitsFromSpins appends the bits of spins s to dst.
func AppendBitsFromSpins(dst []byte, s []int8) []byte {
	for _, v := range s {
		if v > 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// MaxBruteForceN bounds the exhaustive solver (2^24 states ≈ 16M).
const MaxBruteForceN = 24

// BruteForceIsing exhaustively minimizes the Ising objective and returns the
// ground-state spins and energy. It walks assignments in Gray-code order so
// each step is an O(N) incremental energy update. Panics for N > MaxBruteForceN.
func BruteForceIsing(p *Ising) ([]int8, float64) {
	if p.N > MaxBruteForceN {
		panic("qubo: problem too large for brute force")
	}
	s := make([]int8, p.N)
	for i := range s {
		s[i] = -1
	}
	e := p.Energy(s)
	best := append([]int8(nil), s...)
	bestE := e

	total := uint64(1) << uint(p.N)
	for step := uint64(1); step < total; step++ {
		// Gray code: flip the index of the lowest set bit of step.
		k := trailingZeros(step)
		// ΔE when flipping spin k: E' − E = −2 s_k (H_k + Σ_j J_kj s_j).
		local := p.H[k]
		for j := 0; j < p.N; j++ {
			if j == k {
				continue
			}
			local += p.GetJ(k, j) * float64(s[j])
		}
		e -= 2 * float64(s[k]) * local
		s[k] = -s[k]
		if e < bestE {
			bestE = e
			copy(best, s)
		}
	}
	return best, bestE
}

// BruteForceQUBO exhaustively minimizes the QUBO objective.
func BruteForceQUBO(q *QUBO) ([]byte, float64) {
	s, e := BruteForceIsing(q.ToIsing())
	return BitsFromSpins(s), e
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}
