// Compile/execute split of the ML→Ising reduction. The paper's C-RAN
// deployment (footnote 2: the channel "is practically estimated and tracked
// via preambles and/or pilot tones") assumes H is constant over a coherence
// window spanning many OFDM symbols, while y changes every symbol. Of the
// generalized Ising coefficients, only the linear biases f_i and the ‖y‖²
// offset term depend on y; every coupling g_ij, the Gram matrix G = HᴴH it
// derives from, and the Gram part of the offset depend on H alone.
// CompileChannel evaluates the H-dependent half once; ChannelProgram.Biases
// then produces a complete per-symbol Ising program with O(Nr·Nt) work — the
// amortization that Kim et al. (arXiv:2010.00682) and Kasi et al.
// (arXiv:2109.01465) argue makes data-center annealing throughput viable.
package reduction

import (
	"fmt"
	"math/cmplx"
	"sync"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
)

// ChannelProgram is the compiled, H-dependent half of the ML→Ising
// reduction: every coupling g_ij(H) and the Gram offset, ready to be
// completed into a full Ising program for any received vector y observed
// through the same channel. Compile once per coherence window with
// CompileChannel; execute per symbol with Biases.
type ChannelProgram struct {
	// Mod is the modulation the program was compiled for.
	Mod modulation.Modulation
	// Nt is the transmitter count (H's column count).
	Nt int
	// N is the logical Ising size, Nt·log2|O|.
	N int

	h        *linalg.Mat // the channel, referenced (callers must not mutate)
	u        []float64   // spin weights u_t
	template qubo.Ising  // couplings + Gram offset; fields all zero
}

// CompileChannel evaluates the H-dependent Ising coefficients (the g_ij of
// Eqs. 8/14 and the Gram offset) once for a channel. The returned program
// references h; callers must treat the matrix as immutable for the program's
// lifetime (the C-RAN contract: a compiled channel IS an estimated H).
func CompileChannel(mod modulation.Modulation, h *linalg.Mat) *ChannelProgram {
	return CompileChannelInto(new(ChannelProgram), mod, h)
}

// CompileChannelInto is CompileChannel into dst, which it returns, rebuilding
// dst's coupling template in its own storage where that has room. No Ising
// dst's previous program produced may still be in use: they share it.
func CompileChannelInto(dst *ChannelProgram, mod modulation.Modulation, h *linalg.Mat) *ChannelProgram {
	nt := h.Cols
	u := spinWeights(mod)
	nb := mod.BitsPerDim()
	dims := mod.Dims()
	q := mod.BitsPerSymbol()
	n := NumVariables(mod, nt)

	buf := gramScratch.Get().(*[]float64)
	defer gramScratch.Put(buf)
	*buf = append((*buf)[:0], make([]float64, dims*nt*nt)...)
	reG, imG := (*buf)[:nt*nt], (*buf)[nt*nt:] // Im(G) only for a quadrature modulation
	linalg.GramUpper(reG, imG, h)              // G = HᴴH, upper triangle
	p := &dst.template
	p.Reset(n)

	var u2 float64
	for _, w := range u {
		u2 += w * w
	}

	// spinIndex returns the flat index of user's dimension-d (0=I,1=Q) bit t.
	spinIndex := func(user, d, t int) int { return user*q + d*nb + t }

	for us := 0; us < nt; us++ {
		// Intra-user same-dimension couplings.
		gmm := reG[us*nt+us]
		for d := 0; d < dims; d++ {
			for t := 0; t < nb; t++ {
				for t2 := t + 1; t2 < nb; t2++ {
					p.SetJ(spinIndex(us, d, t), spinIndex(us, d, t2), 2*u[t]*u[t2]*gmm)
				}
			}
		}
		p.Offset += gmm * u2 * float64(dims)
	}
	// Inter-user couplings.
	for us := 0; us < nt; us++ {
		for k := us + 1; k < nt; k++ {
			re := reG[us*nt+k]
			for t := 0; t < nb; t++ {
				for t2 := 0; t2 < nb; t2++ {
					w := 2 * u[t] * u[t2]
					// R–R.
					p.SetJ(spinIndex(us, 0, t), spinIndex(k, 0, t2), w*re)
					if dims == 2 {
						im := imG[us*nt+k]
						// Q–Q.
						p.SetJ(spinIndex(us, 1, t), spinIndex(k, 1, t2), w*re)
						// R(us)–Q(k).
						p.SetJ(spinIndex(us, 0, t), spinIndex(k, 1, t2), -w*im)
						// Q(us)–R(k).
						p.SetJ(spinIndex(us, 1, t), spinIndex(k, 0, t2), w*im)
					}
				}
			}
		}
	}
	dst.Mod, dst.Nt, dst.N, dst.h, dst.u = mod, nt, n, h, u
	return dst
}

// gramScratch pools CompileChannel's Gram accumulators.
var gramScratch = sync.Pool{New: func() any { return new([]float64) }}

// Channel returns the matrix the program was compiled from.
func (cp *ChannelProgram) Channel() *linalg.Mat { return cp.h }

// CouplingTemplate exposes the compiled couplings-and-Gram-offset Ising
// program (fields all zero) so embedding compilers can program the couplers
// once per coherence window. Callers must not mutate it — every Ising this
// program ever produced shares its coupling storage.
func (cp *ChannelProgram) CouplingTemplate() *qubo.Ising { return &cp.template }

// Biases completes the compiled program for one received vector: it fills
// the y-dependent linear fields f_i(H,y) and the ‖y‖² offset term around the
// precompiled couplings. The result is numerically identical — bit for bit —
// to ReduceToIsing(cp.Mod, H, y); the property is proven by tests.
//
// The returned Ising SHARES coupling storage with the program (that sharing
// is the amortization): callers must not mutate its J entries, and the
// program must outlive every Ising it produced.
func (cp *ChannelProgram) Biases(y []complex128) *qubo.Ising {
	p := new(qubo.Ising)
	cp.BiasesInto(p, y)
	return p
}

// BiasesInto is Biases writing into p, whose field storage it reuses when
// that has room (qubo.Ising.ShareCouplingsInto): a caller keeping one p across
// symbols allocates nothing per symbol.
func (cp *ChannelProgram) BiasesInto(p *qubo.Ising, y []complex128) {
	if len(y) != cp.h.Rows {
		panic(fmt.Sprintf("reduction: y has %d entries, H has %d rows", len(y), cp.h.Rows))
	}
	nb := cp.Mod.BitsPerDim()
	dims := cp.Mod.Dims()
	q := cp.Mod.BitsPerSymbol()

	cp.template.ShareCouplingsInto(p)
	for us := 0; us < cp.Nt; us++ {
		var m complex128 // (Hᴴy)_us = conj((yᴴH)_us), summed as linalg.ConjMulVec sums it
		for i, yi := range y {
			m += cmplx.Conj(cp.h.At(i, us)) * yi
		}
		reM := real(m)  // Re((yᴴH)_us)
		imM := -imag(m) // Im((yᴴH)_us) = −Im((Hᴴy)_us)
		base := us * q
		for t := 0; t < nb; t++ {
			p.H[base+t] = -2 * cp.u[t] * reM
			if dims == 2 {
				p.H[base+nb+t] = 2 * cp.u[t] * imM
			}
		}
	}
	p.Offset = cp.template.Offset + linalg.Norm2(y)
}
