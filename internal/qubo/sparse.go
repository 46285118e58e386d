package qubo

import "fmt"

// SparseEdge is one coupling term of a sparse Ising problem.
type SparseEdge struct {
	I, J int
	W    float64
}

// Sparse is an Ising problem over an arbitrary (typically hardware) graph,
// stored as an explicit edge list. It is the "programmed machine" form: the
// embedding compiler emits a Sparse problem over physical qubits and the
// annealer consumes it.
type Sparse struct {
	N      int
	H      []float64
	Edges  []SparseEdge
	Offset float64
}

// NewSparse returns an empty sparse Ising problem over n spins.
func NewSparse(n int) *Sparse {
	return &Sparse{N: n, H: make([]float64, n)}
}

// SparseFromIsing converts a dense logical Ising program into the edge-list
// form the annealer consumes, carrying fields, couplings and offset over
// verbatim. This is the "full-connectivity chip" programming path (paper §8:
// next-generation topologies shrink or remove minor-embedding): the logical
// problem runs on the machine directly, with no chains. Only the sparse
// index's structurally-nonzero couplings are emitted.
func SparseFromIsing(p *Ising) *Sparse {
	s := NewSparse(p.N)
	copy(s.H, p.H)
	s.Offset = p.Offset
	s.Edges = make([]SparseEdge, 0, len(p.nz))
	for _, k := range p.nz {
		if p.J[k] == 0 {
			continue // cleared after being set; structurally stale
		}
		i, j := p.jCoords(int(k))
		s.AddEdge(i, j, p.J[k])
	}
	return s
}

// AddEdge appends a coupling term. Panics on out-of-range or self coupling.
func (s *Sparse) AddEdge(i, j int, w float64) {
	if i == j || i < 0 || j < 0 || i >= s.N || j >= s.N {
		panic(fmt.Sprintf("qubo: bad sparse edge (%d,%d) for N=%d", i, j, s.N))
	}
	if i > j {
		i, j = j, i
	}
	s.Edges = append(s.Edges, SparseEdge{I: i, J: j, W: w})
}

// Energy evaluates the sparse Ising objective.
func (s *Sparse) Energy(spins []int8) float64 {
	if len(spins) != s.N {
		panic("qubo: spin vector length mismatch")
	}
	e := s.Offset
	for i, h := range s.H {
		e += h * float64(spins[i])
	}
	for _, ed := range s.Edges {
		e += ed.W * float64(spins[ed.I]) * float64(spins[ed.J])
	}
	return e
}

// MaxAbsCoefficient returns max(|H_i|, |W_ij|).
func (s *Sparse) MaxAbsCoefficient() float64 {
	var m float64
	for _, v := range s.H {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	for _, e := range s.Edges {
		w := e.W
		if w < 0 {
			w = -w
		}
		if w > m {
			m = w
		}
	}
	return m
}

// ToDense converts to the dense Ising form (for brute-force checks; merges
// duplicate edges by summation).
func (s *Sparse) ToDense() *Ising {
	p := NewIsing(s.N)
	copy(p.H, s.H)
	p.Offset = s.Offset
	for _, e := range s.Edges {
		p.AddJ(e.I, e.J, e.W)
	}
	return p
}

// Clone deep-copies the problem.
func (s *Sparse) Clone() *Sparse {
	c := NewSparse(s.N)
	copy(c.H, s.H)
	c.Edges = append([]SparseEdge(nil), s.Edges...)
	c.Offset = s.Offset
	return c
}
