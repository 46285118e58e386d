// Package chimera models the D-Wave 2000Q qubit-connectivity graph (paper
// §3.3, Fig. 3a): an m×m grid of unit cells, each containing a K_{4,4}
// bipartite coupling between four "vertical" (left-side) and four
// "horizontal" (right-side) qubits, plus inter-cell couplers that connect
// like-indexed vertical qubits of vertically adjacent cells and like-indexed
// horizontal qubits of horizontally adjacent cells.
//
// The package also models fabrication defects: the DW2Q "Whistler" chip the
// paper used was manufactured with 2,048 qubits of which 2,031 worked
// (Fig. 1 caption, abstract). DW2Q() reproduces the working-qubit count with
// a deterministic defect pattern chosen so the paper's own largest clique
// embeddings remain feasible — see the DW2Q function documentation.
package chimera

import (
	"fmt"
	"slices"

	"quamax/internal/rng"
)

// CellSize is the number of qubits per unit-cell side (K_{4,4}).
const CellSize = 4

// Side distinguishes the two qubit orientations within a unit cell.
type Side int

// Qubit orientations.
const (
	Vertical   Side = 0 // left half: couples to the cell below/above
	Horizontal Side = 1 // right half: couples to the cell left/right
)

// Graph is a Chimera graph C_M with optional qubit and coupler defects.
// The zero value is unusable; construct with New or NewWithDefects.
type Graph struct {
	M             int             // grid is M×M unit cells
	dead          []bool          // by qubit ID
	deadCouplers  map[[2]int]bool // canonical order a<b; nil when every coupler works
	numWorkingQ   int
	numWorkingCpl int
}

// New returns a defect-free C_m graph.
func New(m int) *Graph { return NewWithDefects(m, nil, nil) }

// NewWithDefects returns a C_m graph with the given dead qubits and dead
// couplers (couplers as [2]int pairs in any order). Couplers incident to a
// dead qubit are implicitly dead.
func NewWithDefects(m int, deadQubits []int, deadCouplers [][2]int) *Graph {
	if m <= 0 {
		panic("chimera: grid size must be positive")
	}
	g := &Graph{M: m, dead: make([]bool, 8*m*m), numWorkingQ: 8 * m * m}
	for _, q := range deadQubits {
		if q < 0 || q >= g.NumQubits() {
			panic(fmt.Sprintf("chimera: defect qubit %d out of range", q))
		}
		if !g.dead[q] {
			g.dead[q] = true
			g.numWorkingQ--
		}
	}
	for _, c := range deadCouplers {
		a, b := min(c[0], c[1]), max(c[0], c[1])
		if !g.edgeExistsIgnoringDefects(a, b) {
			panic(fmt.Sprintf("chimera: defect coupler (%d,%d) is not a Chimera edge", a, b))
		}
		if g.deadCouplers == nil {
			g.deadCouplers = make(map[[2]int]bool, len(deadCouplers))
		}
		g.deadCouplers[[2]int{a, b}] = true
	}
	for id := 0; id < g.NumQubits(); id++ {
		g.eachNeighbor(id, func(other int) {
			if other > id {
				g.numWorkingCpl++
			}
		})
	}
	return g
}

// NumQubits returns the manufactured qubit count 8·M².
func (g *Graph) NumQubits() int { return 8 * g.M * g.M }

// NumWorkingQubits returns the count of non-defective qubits.
func (g *Graph) NumWorkingQubits() int { return g.numWorkingQ }

// NumWorkingCouplers returns the count of usable couplers.
func (g *Graph) NumWorkingCouplers() int { return g.numWorkingCpl }

// QubitID maps (row, col, side, k) to the linear qubit index.
func (g *Graph) QubitID(row, col int, side Side, k int) int {
	if row < 0 || row >= g.M || col < 0 || col >= g.M || k < 0 || k >= CellSize || (side != Vertical && side != Horizontal) {
		panic(fmt.Sprintf("chimera: bad coordinates (%d,%d,%d,%d)", row, col, side, k))
	}
	return ((row*g.M + col) * 2 * CellSize) + int(side)*CellSize + k
}

// Coordinates inverts QubitID.
func (g *Graph) Coordinates(id int) (row, col int, side Side, k int) {
	if id < 0 || id >= g.NumQubits() {
		panic(fmt.Sprintf("chimera: qubit %d out of range", id))
	}
	k = id % CellSize
	side = Side(id / CellSize % 2)
	cell := id / (2 * CellSize)
	return cell / g.M, cell % g.M, side, k
}

// HasQubit reports whether qubit id exists and is working.
func (g *Graph) HasQubit(id int) bool {
	return id >= 0 && id < g.NumQubits() && !g.dead[id]
}

// edgeExistsIgnoringDefects applies the Chimera adjacency rule.
func (g *Graph) edgeExistsIgnoringDefects(a, b int) bool {
	if a == b || a < 0 || b < 0 || a >= g.NumQubits() || b >= g.NumQubits() {
		return false
	}
	ra, ca, sa, ka := g.Coordinates(a)
	rb, cb, sb, kb := g.Coordinates(b)
	switch {
	case ra == rb && ca == cb:
		return sa != sb // intra-cell K_{4,4}
	case sa == Vertical && sb == Vertical && ka == kb && ca == cb:
		return ra-rb == 1 || rb-ra == 1
	case sa == Horizontal && sb == Horizontal && ka == kb && ra == rb:
		return ca-cb == 1 || cb-ca == 1
	}
	return false
}

// HasEdge reports whether a working coupler joins a and b.
func (g *Graph) HasEdge(a, b int) bool {
	return g.edgeExistsIgnoringDefects(a, b) && g.works(a, b)
}

// works reports whether the Chimera edge a–b survived fabrication: both
// qubits did, and the coupler is not in the (usually empty) dead set.
func (g *Graph) works(a, b int) bool {
	return !g.dead[a] && !g.dead[b] && (g.deadCouplers == nil || !g.deadCouplers[[2]int{min(a, b), max(a, b)}])
}

// Neighbors returns the working neighbours of qubit id (empty for dead
// qubits). Degree is at most 6 in Chimera.
func (g *Graph) Neighbors(id int) []int {
	var out []int
	g.eachNeighbor(id, func(other int) { out = append(out, other) })
	return out
}

// eachNeighbor calls visit for every working neighbour of qubit id (none for
// a dead qubit): the other side of its cell, then its two inter-cell partners.
func (g *Graph) eachNeighbor(id int, visit func(other int)) {
	if !g.HasQubit(id) {
		return
	}
	row, col, side, k := g.Coordinates(id)
	try := func(row, col int, side Side, k int) {
		if row < 0 || row >= g.M || col < 0 || col >= g.M {
			return
		}
		if other := g.QubitID(row, col, side, k); g.works(id, other) {
			visit(other)
		}
	}
	for kk := 0; kk < CellSize; kk++ {
		try(row, col, 1-side, kk)
	}
	dr, dc := 1-int(side), int(side) // vertical qubits couple along the column, horizontal along the row
	try(row-dr, col-dc, side, k)
	try(row+dr, col+dc, side, k)
}

// TotalCouplers returns the manufactured coupler count of a defect-free C_M:
// 16·M² intra-cell + 2·4·M·(M−1) inter-cell.
func TotalCouplers(m int) int { return 16*m*m + 8*m*(m-1) }

// DW2QGridSize is the unit-cell grid dimension of the D-Wave 2000Q.
const DW2QGridSize = 16

// DW2QWorkingQubits is the paper's working-qubit count (abstract: "the 2,031
// qubit D-Wave 2000Q").
const DW2QWorkingQubits = 2031

// DW2Q returns a C_16 graph modelling the paper's chip: 2,031 working qubits
// out of 2,048 manufactured (17 fabrication defects).
//
// Defect geometry. The real Whistler chip's defect locations are not public,
// but the paper's evaluation embedded fully-connected problems up to 60
// logical spins — a 15×15-cell lower-triangle clique footprint — so the real
// defects cannot have intersected that region (clique embedders route around
// hard faults [39][7], and the paper reports these embeds succeeded). We
// therefore cluster the 17 dead qubits in the strictly-upper-triangular
// corner cells (rows 0–3, columns 12–15), which the canonical lower-triangle
// placement never touches. Fig. 1's caption also reports "5,019
// qubit-coupling parameters"; we deliberately do NOT force that coupler
// count — removing ~900 extra couplers uniformly would make the paper's own
// problem sizes unembeddable, contradicting its reported experiments — and
// model coupler loss only through dead qubits.
func DW2Q() *Graph {
	src := rng.New(0xD20000)
	full := New(DW2QGridSize)
	dead := make([]int, 0, full.NumQubits()-DW2QWorkingQubits)
	for len(dead) < cap(dead) {
		row := src.Intn(4)      // rows 0–3
		col := 12 + src.Intn(4) // columns 12–15
		side := Side(src.Intn(2))
		k := src.Intn(CellSize)
		if q := full.QubitID(row, col, side, k); !slices.Contains(dead, q) {
			dead = append(dead, q)
		}
	}
	return NewWithDefects(DW2QGridSize, dead, nil)
}
