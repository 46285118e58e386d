// Package embedding compiles fully-connected Ising problems onto the Chimera
// hardware graph (paper §3.3 and Appendix B).
//
// The construction is the triangle clique embedding of Venturelli et al.
// [69]: each of the N logical spins becomes a ferromagnetically coupled
// chain of ⌈N/4⌉+1 physical qubits laid out as an L of horizontal qubits
// (row g, columns 0…g) and vertical qubits (column g, rows g…M−1), with four
// logical spins per diagonal unit cell. Every pair of logical spins then
// meets at exactly one unit cell (two K_{4,4} edges for same-cell pairs, one
// otherwise), which is where the problem coupling g_ij is programmed.
//
// EmbedIsing produces the Appendix-B objective: chain couplers at the
// maximum negative value (−1, or −2 with the improved dynamic range of §4),
// problem couplings g_ij/|J_F| split equally over the available physical
// edges, and fields f_i/(|J_F|·chainLen) spread along each chain. Unembed
// recovers logical spins by majority vote with randomized ties (§3.3).
package embedding

import (
	"errors"
	"fmt"
	"slices"

	"quamax/internal/chimera"
	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// ChainLength returns ⌈N/4⌉+1, the physical qubits per logical spin (§3.3).
func ChainLength(n int) int {
	if n <= 0 {
		panic("embedding: need at least one logical spin")
	}
	return (n+3)/4 + 1
}

// PhysicalQubits returns N·(⌈N/4⌉+1), the total footprint (Table 2).
func PhysicalQubits(n int) int { return n * ChainLength(n) }

// Embedding is a placed triangle clique embedding.
type Embedding struct {
	Graph  *chimera.Graph
	N      int     // logical spins
	M      int     // diagonal cells = ⌈N/4⌉
	Chains [][]int // Chains[i] lists physical qubit graph-IDs of logical i, in path order

	// RowOff, ColOff, Flipped record the placement that was used.
	RowOff, ColOff int
	Flipped        bool

	// Everything below is a property of the placement alone, computed once by
	// embedTriangle in dense physical indices (0..NumPhysical−1, chain order)
	// and immutable afterwards.
	physID   []int     // dense physical index → graph qubit ID
	chainIdx [][]int32 // Chains in dense physical indices (DenseChainIndices)
	// couplers lists the working physical edges joining every pair of chains
	// (δ_ij of Eq. 12), pairs in (i, j>i) row-major order; pair k owns
	// couplers[pairStart[k]:pairStart[k+1]].
	couplers  [][2]int32
	pairStart []int32
}

// NumPhysical returns the number of physical qubits used.
func (e *Embedding) NumPhysical() int { return len(e.physID) }

// PhysicalID maps a dense physical index back to the Chimera qubit ID.
func (e *Embedding) PhysicalID(i int) int { return e.physID[i] }

// ErrNoPlacement is returned when no defect-free placement exists.
var ErrNoPlacement = errors.New("embedding: no defect-free placement found")

// Embed places an N-spin clique on g, scanning placements (all offsets, both
// triangle orientations) until one avoids every defect.
func Embed(g *chimera.Graph, n int) (*Embedding, error) {
	m := (n + 3) / 4
	if m > g.M {
		return nil, fmt.Errorf("embedding: %d logical spins need a C_%d grid, have C_%d", n, m, g.M)
	}
	for _, flipped := range []bool{false, true} {
		for rowOff := 0; rowOff+m <= g.M; rowOff++ {
			for colOff := 0; colOff+m <= g.M; colOff++ {
				e, err := embedTriangle(g, n, rowOff, colOff, flipped)
				if err == nil {
					return e, nil
				}
			}
		}
	}
	return nil, ErrNoPlacement
}

// embedTriangle attempts one concrete placement. flipped selects the
// upper-triangle mirror (vertical qubits above the diagonal) used to pack
// two instances per M×(M+1) block.
func embedTriangle(g *chimera.Graph, n, rowOff, colOff int, flipped bool) (*Embedding, error) {
	m := (n + 3) / 4
	e := &Embedding{
		Graph: g, N: n, M: m,
		RowOff: rowOff, ColOff: colOff, Flipped: flipped,
		Chains: make([][]int, n),
	}
	for i := 0; i < n; i++ {
		grp, off := i/4, i%4
		chain := make([]int, 0, m+1)
		if !flipped {
			// Horizontal run: row grp, columns 0..grp; then vertical run:
			// column grp, rows grp..m−1.
			for c := 0; c <= grp; c++ {
				chain = append(chain, g.QubitID(rowOff+grp, colOff+c, chimera.Horizontal, off))
			}
			for r := grp; r < m; r++ {
				chain = append(chain, g.QubitID(rowOff+r, colOff+grp, chimera.Vertical, off))
			}
		} else {
			// Mirror: vertical run rows 0..grp in column grp; horizontal run
			// row grp, columns grp..m−1.
			for r := 0; r <= grp; r++ {
				chain = append(chain, g.QubitID(rowOff+r, colOff+grp, chimera.Vertical, off))
			}
			for c := grp; c < m; c++ {
				chain = append(chain, g.QubitID(rowOff+grp, colOff+c, chimera.Horizontal, off))
			}
		}
		// Validate qubits and chain edges against defects.
		for k, q := range chain {
			if !g.HasQubit(q) {
				return nil, fmt.Errorf("embedding: chain %d hits dead qubit %d", i, q)
			}
			if k > 0 && !g.HasEdge(chain[k-1], chain[k]) {
				return nil, fmt.Errorf("embedding: chain %d missing edge %d-%d", i, chain[k-1], chain[k])
			}
		}
		e.Chains[i] = chain
	}
	// Dense physical indexing in chain order.
	e.chainIdx = make([][]int32, n)
	e.physID = make([]int, 0, n*(m+1))
	seen := make(map[int]bool, n*(m+1))
	for i, chain := range e.Chains {
		e.chainIdx[i] = make([]int32, len(chain))
		for k, q := range chain {
			if seen[q] {
				return nil, fmt.Errorf("embedding: qubit %d assigned to two chains", q)
			}
			seen[q] = true
			e.chainIdx[i][k] = int32(len(e.physID))
			e.physID = append(e.physID, q)
		}
	}
	// The working couplers of every logical pair, of which each needs at
	// least one. Distinct chains only ever meet inside one unit cell (an
	// inter-cell coupler joins like-indexed qubits along one row or column, and
	// a placement gives each such run to one chain), so only same-cell qubit
	// pairs are asked of the graph.
	const cell = 2 * chimera.CellSize
	e.pairStart = make([]int32, 1, n*(n-1)/2+1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for ka, a := range e.Chains[i] {
				for kb, b := range e.Chains[j] {
					if a/cell == b/cell && g.HasEdge(a, b) {
						e.couplers = append(e.couplers, [2]int32{e.chainIdx[i][ka], e.chainIdx[j][kb]})
					}
				}
			}
			if len(e.couplers) == int(e.pairStart[len(e.pairStart)-1]) {
				return nil, fmt.Errorf("embedding: no working coupler between logical %d and %d", i, j)
			}
			e.pairStart = append(e.pairStart, int32(len(e.couplers)))
		}
	}
	return e, nil
}

// DenseChainIndices returns, for every logical spin, the dense physical
// indices (0..NumPhysical−1) of its chain qubits in path order — the
// positions a compiled channel rewrites when reprogramming only the fields
// of an already-programmed coupler template (Eq. 11 spreads f_i along the
// chain; the couplers of Eqs. 10 and 12 are field-independent). It depends
// only on the placement, so it is computed once when the embedding is built
// and shared: callers must not mutate it.
func (e *Embedding) DenseChainIndices() [][]int32 { return e.chainIdx }

// SameLayout reports whether o lays its chains and couplers out at the same
// dense physical indices as e — the same size and the same working couplers
// between every pair of chains — so that EmbedIsing compiles one logical
// program into the same physical program on both. Placements that differ only
// in where they sit on a defect-free region do.
func (e *Embedding) SameLayout(o *Embedding) bool {
	return e.N == o.N && slices.Equal(e.pairStart, o.pairStart) && slices.Equal(e.couplers, o.couplers)
}

// Couplers lists the physical couplers EmbedIsing programs for every logical
// problem with p's nonzero couplings, in EmbedIsing's order — the chain
// couplers chain by chain, then each nonzero pair's δ edges — each with its
// source for W: −1 for a chain coupler, else the flat upper-triangular index
// of its logical pair. The edges are distinct and depend only on the
// placement's layout and p's nonzero set, so one adjacency built from them
// serves every channel sharing both; CouplerWeight turns a source into a
// weight.
func (e *Embedding) Couplers(p *qubo.Ising) []qubo.SparseEdge {
	edges := make([]qubo.SparseEdge, 0, e.NumPhysical()-e.N+len(e.couplers))
	for _, chain := range e.chainIdx {
		for k := 1; k < len(chain); k++ {
			edges = append(edges, qubo.SparseEdge{I: int(chain[k-1]), J: int(chain[k]), W: -1})
		}
	}
	for k, g := range p.J { // p.J's flat index walks the pairs (i, j>i) row-major, as pairStart does
		if g != 0 {
			for _, ed := range e.couplers[e.pairStart[k]:e.pairStart[k+1]] {
				edges = append(edges, qubo.SparseEdge{I: int(ed[0]), J: int(ed[1]), W: float64(k)})
			}
		}
	}
	return edges
}

// CouplerWeight is the weight of a coupler whose source Couplers reported as
// src: the chain coupler, −1 or −2 with the improved range (Eq. 10), or pair
// k's g_k/(|J_F|·|δ_k|) (Eq. 12).
func (e *Embedding) CouplerWeight(src float64, p *qubo.Ising, jf float64, improvedRange bool) float64 {
	switch k := int(src); {
	case k >= 0:
		return p.J[k] / (jf * float64(e.pairStart[k+1]-e.pairStart[k]))
	case improvedRange:
		return -2
	default:
		return -1
	}
}

// EmbeddedProblem is a compiled physical Ising program plus the metadata
// needed to interpret annealer samples.
type EmbeddedProblem struct {
	Emb           *Embedding
	Logical       *qubo.Ising
	JF            float64
	ImprovedRange bool
	Phys          *qubo.Sparse // over dense physical indices 0..NumPhysical−1
	ChainEdges    int          // number of intra-chain couplers
}

// EmbedIsing compiles the logical problem onto the placement per Appendix B:
//
//	chain couplers: −1 (standard range) or −2 (improved range)   (Eq. 10)
//	fields:         f_i/(|J_F|·chainLen) on every chain qubit     (Eq. 11)
//	couplings:      g_ij/(|J_F|·|δ_ij|) on each physical edge     (Eq. 12)
//
// Splitting g_ij over |δ_ij| edges preserves the logical objective exactly
// (Eq. 12 as printed places the full coefficient on every edge of δ_ij,
// which would double same-cell couplings; the split is the standard fix).
// jf must be positive. The physical offset is chosen so that a sample with
// all chains intact has energy E_logical/|J_F| − ChainEdges·|chainCoupler|
// + offset bookkeeping; see UnembeddedEnergy.
func (e *Embedding) EmbedIsing(p *qubo.Ising, jf float64, improvedRange bool) (*EmbeddedProblem, error) {
	if p.N != e.N {
		return nil, fmt.Errorf("embedding: problem has %d spins, embedding has %d", p.N, e.N)
	}
	if jf <= 0 {
		return nil, errors.New("embedding: |J_F| must be positive")
	}
	phys := qubo.NewSparse(e.NumPhysical())
	phys.Edges = e.Couplers(p)
	ep := &EmbeddedProblem{Emb: e, Logical: p, JF: jf, ImprovedRange: improvedRange, Phys: phys}
	for i, ed := range phys.Edges {
		if ed.W < 0 {
			ep.ChainEdges++
		}
		phys.Edges[i].W = e.CouplerWeight(ed.W, p, jf, improvedRange)
	}
	chainLen := ChainLength(e.N)
	for i, chain := range e.chainIdx {
		f := p.H[i] / (jf * float64(chainLen))
		for _, q := range chain {
			phys.H[q] += f
		}
	}
	return ep, nil
}

// Unembed majority-votes each chain of a physical sample into a logical spin
// (±1). Vote ties are randomized via src (paper §3.3). It returns the
// logical spins and the number of broken chains (chains whose qubits
// disagreed). It is the allocating form of UnembedInto.
func (e *Embedding) Unembed(phys []int8, src *rng.Source) (logical []int8, broken int) {
	logical = make([]int8, e.N)
	return logical, e.UnembedInto(logical, phys, src)
}

// UnembedInto is Unembed writing the logical spins into logical (len N).
func (e *Embedding) UnembedInto(logical, phys []int8, src *rng.Source) (broken int) {
	if len(phys) != e.NumPhysical() || len(logical) != e.N {
		panic("embedding: sample length mismatch")
	}
	for i, chain := range e.chainIdx {
		sum := 0
		for _, q := range chain {
			sum += int(phys[q])
		}
		switch {
		case sum > 0:
			logical[i] = 1
		case sum < 0:
			logical[i] = -1
		default:
			if src != nil && src.Bool() {
				logical[i] = 1
			} else {
				logical[i] = -1
			}
		}
		if sum != len(chain) && sum != -len(chain) {
			broken++
		}
	}
	return broken
}

// UnembeddedEnergy evaluates the ORIGINAL logical Ising objective for a
// physical sample: unembed, then substitute into Eq. 2 — exactly the
// post-processing the paper describes ("each configuration yields the
// corresponding energy of the Ising objective function by substituting it
// into the original Ising spin glass equation").
func (ep *EmbeddedProblem) UnembeddedEnergy(phys []int8, src *rng.Source) (float64, []int8, int) {
	logical, broken := ep.Emb.Unembed(phys, src)
	return ep.Logical.Energy(logical), logical, broken
}

// ParallelFactorFormula is the paper §4 parallelization factor
// Pf ≃ Ntot/(N(⌈N/4⌉+1)) — the asymptotic count of problem copies that fit.
func ParallelFactorFormula(g *chimera.Graph, n int) float64 {
	return float64(g.NumWorkingQubits()) / float64(PhysicalQubits(n))
}

// PackSlots places as many disjoint copies of an N-spin clique embedding as
// the chip geometry allows: the grid is tiled with M×(M+1)-cell blocks, each
// holding a lower triangle and a column-shifted mirrored triangle. Slots
// whose region contains defects are dropped. The result length is the
// geometric parallelization factor used to amortize TTB (§4 footnote: "in
// finite-size chips, chip geometry comes into play").
func PackSlots(g *chimera.Graph, n int) []*Embedding {
	m := (n + 3) / 4
	var out []*Embedding
	for rowOff := 0; rowOff+m <= g.M; rowOff += m {
		for colOff := 0; colOff+m+1 <= g.M; colOff += m + 1 {
			if e, err := embedTriangle(g, n, rowOff, colOff, false); err == nil {
				out = append(out, e)
			}
			if e, err := embedTriangle(g, n, rowOff, colOff+1, true); err == nil {
				out = append(out, e)
			}
		}
		// A final column block of exactly M cells fits one unflipped triangle.
		rem := g.M % (m + 1)
		if rem >= m {
			colOff := g.M - rem
			if e, err := embedTriangle(g, n, rowOff, colOff, false); err == nil {
				out = append(out, e)
			}
		}
	}
	return out
}

// PhysicalInit expands a logical spin assignment into the physical initial
// state used by reverse annealing: every qubit of chain i takes logical spin
// i's value.
func (e *Embedding) PhysicalInit(logical []int8) []int8 {
	if len(logical) != e.N {
		panic("embedding: logical state length mismatch")
	}
	out := make([]int8, e.NumPhysical())
	for i, chain := range e.chainIdx {
		for _, q := range chain {
			out[q] = logical[i]
		}
	}
	return out
}

// PegasusChainLength is the paper §8 projection for the next-generation
// annealer topology (Pegasus, double the Chimera degree with longer-range
// couplers): clique chains shrink to N/12 + 1 qubits.
func PegasusChainLength(n int) int {
	if n <= 0 {
		panic("embedding: need at least one logical spin")
	}
	return n/12 + 1
}

// PegasusPhysicalQubits is the projected clique footprint on a Pegasus-era
// chip.
func PegasusPhysicalQubits(n int) int { return n * PegasusChainLength(n) }
