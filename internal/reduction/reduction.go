// Package reduction implements the paper's core contribution (§3.2): the
// reduction of Maximum-Likelihood MIMO detection
//
//	vˆ = argmin_{v∈O^Nt} ‖y − Hv‖²                    (Eq. 1)
//
// to the QUBO and Ising forms a quantum annealer accepts.
//
// Two independent constructions are provided:
//
//   - ReduceToQUBO expands the norm ‖y − H·T(q)‖² symbolically for the linear
//     QuAMax transform T (Eq. 5). This is the definitional form and the test
//     oracle.
//   - ReduceToIsing evaluates the paper's generalized closed-form Ising
//     coefficients f_i(H,y) and g_ij(H) (Eqs. 6–8 for BPSK/QPSK, Eqs. 13–14
//     for 16-QAM, and our generalization to any square 2^{2n}-QAM including
//     the paper's future-work 64-QAM). It needs only Hermitian inner products
//     of channel columns — the "computationally insignificant" fast path the
//     paper deploys at the receiver.
//
// Both forms carry exact constant offsets, so the Ising/QUBO energy of an
// assignment equals the ML Euclidean metric ‖y − Hv‖² of the corresponding
// symbol vector (paper footnote 6). Property tests in this package prove the
// two constructions identical on random instances for every modulation.
//
// Spin/variable layout. User m (0-based) owns the Q=log2|O| consecutive
// variables m·Q … m·Q+Q−1: first the I-dimension bits (MSB first), then the
// Q-dimension bits, matching paper Fig. 2 (q_{4i−3} q_{4i−2} | q_{4i−1} q_{4i}
// for 16-QAM).
package reduction

import (
	"fmt"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
)

// NumVariables returns N = Nt·log2|O|, the QUBO/Ising problem size (paper §3.2.1).
func NumVariables(mod modulation.Modulation, nt int) int {
	return nt * mod.BitsPerSymbol()
}

// spinWeights returns the per-dimension spin amplitude weights u_t: the
// QuAMax transform per dimension is  Σ_t 2^{n−1−t}·s_t  in spin variables
// (the constant cancels), e.g. {1} for BPSK/QPSK, {2,1} for 16-QAM,
// {4,2,1} for 64-QAM. The slice is shared: callers must not mutate it.
func spinWeights(mod modulation.Modulation) []float64 {
	return spinWeightTable[mod.BitsPerDim()]
}

// spinWeightTable holds spinWeights by bits per dimension.
var spinWeightTable = [...][]float64{1: {1}, 2: {2, 1}, 3: {4, 2, 1}}

// transformMatrix returns (A, b) with e = A·q + b: the complex linear map
// from the N QUBO variables to the Nt candidate symbols under the QuAMax
// transform T. Column ordering follows the package layout.
func transformMatrix(mod modulation.Modulation, nt int) (*linalg.Mat, []complex128) {
	q := mod.BitsPerSymbol()
	n := mod.BitsPerDim()
	a := linalg.NewMat(nt, nt*q)
	b := make([]complex128, nt)
	l := float64(mod.LevelsPerDim() - 1)
	for m := 0; m < nt; m++ {
		base := m * q
		for t := 0; t < n; t++ {
			w := float64(int(2) << (n - 1 - t)) // 2^{n−t}: QUBO bit weight
			a.Set(m, base+t, complex(w, 0))
			if mod.HasQuadrature() {
				a.Set(m, base+n+t, complex(0, w))
			}
		}
		if mod.HasQuadrature() {
			b[m] = complex(-l, -l)
		} else {
			b[m] = complex(-l, 0)
		}
	}
	return a, b
}

// ReduceToQUBO builds the ML QUBO by expanding ‖y − H(Aq+b)‖² (Eq. 5):
// with ỹ = y − Hb and B = HA,
//
//	Q_ii = −2Re(ỹᴴB)_i + Re(BᴴB)_ii,  Q_ij = 2Re(BᴴB)_ij (i<j),
//	Offset = ‖ỹ‖²,
//
// using q_i² = q_i. The QUBO energy of an assignment equals ‖y − Hv‖² of the
// corresponding symbol vector exactly.
func ReduceToQUBO(mod modulation.Modulation, h *linalg.Mat, y []complex128) *qubo.QUBO {
	nt := h.Cols
	if len(y) != h.Rows {
		panic(fmt.Sprintf("reduction: y has %d entries, H has %d rows", len(y), h.Rows))
	}
	a, b := transformMatrix(mod, nt)
	bm := linalg.Mul(h, a)                        // B = HA, Nr×N
	ytil := linalg.VecSub(y, linalg.MulVec(h, b)) // ỹ = y − Hb
	lin := linalg.ConjMulVec(bm, ytil)            // Bᴴỹ
	gram := linalg.Gram(bm)                       // BᴴB (Hermitian)
	n := NumVariables(mod, nt)
	out := qubo.NewQUBO(n)
	out.Offset = linalg.Norm2(ytil)
	for i := 0; i < n; i++ {
		out.Set(i, i, -2*real(lin[i])+real(gram.At(i, i)))
		for j := i + 1; j < n; j++ {
			if v := 2 * real(gram.At(i, j)); v != 0 {
				out.Set(i, j, v)
			}
		}
	}
	return out
}

// ReduceToIsing evaluates the generalized closed-form Ising coefficients.
// Writing each candidate symbol in spin variables as
//
//	v_m = Σ_t u_t·s_{m,R,t} + j·Σ_t u_t·s_{m,Q,t},   u_t = 2^{n−1−t},
//
// the expansion of ‖y − Hv‖² yields, with G = HᴴH and M = yᴴH:
//
//	f(s_{m,R,t}) = −2 u_t Re(M_m)            (Eqs. 6, 7-odd, 13 cases 1–2)
//	f(s_{m,Q,t}) = +2 u_t Im(M_m)            (Eqs. 7-even, 13 cases 3–4)
//	g(R_m,t ; R_k,t′) = 2 u_t u_t′ Re(G_mk)  (same-dimension pairs)
//	g(Q_m,t ; Q_k,t′) = 2 u_t u_t′ Re(G_mk)
//	g(R_m,t ; Q_k,t′) = −2 u_t u_t′ Im(G_mk) (cross I/Q pairs, m≠k)
//	g(Q_m,t ; R_k,t′) = +2 u_t u_t′ Im(G_mk)
//	g within user m, same dimension: 2 u_t u_t′ G_mm; across I/Q: 0
//	Offset = ‖y‖² + Σ_m G_mm·(Σ_t u_t²)·dims
//
// For BPSK and QPSK this is exactly Eqs. 6–8; for 16-QAM it is Eqs. 13–14
// with one erratum corrected (see PaperIsing16QAM).
//
// ReduceToIsing is the one-shot form of the compile/execute split: it is
// literally CompileChannel(mod, h).Biases(y), recompiling the H-dependent
// couplings for every call. Receivers decoding many symbols through one
// channel should compile once and call Biases per symbol (see compile.go).
func ReduceToIsing(mod modulation.Modulation, h *linalg.Mat, y []complex128) *qubo.Ising {
	if len(y) != h.Rows {
		panic(fmt.Sprintf("reduction: y has %d entries, H has %d rows", len(y), h.Rows))
	}
	return CompileChannel(mod, h).Biases(y)
}

// BitsToSymbols decodes N QUBO solution bits to the Nt candidate symbols via
// the QuAMax transform T (the e vector of Eq. 5).
func BitsToSymbols(mod modulation.Modulation, bits []byte) []complex128 {
	q := mod.BitsPerSymbol()
	if len(bits)%q != 0 {
		panic("reduction: bit count not a multiple of bits/symbol")
	}
	out := make([]complex128, len(bits)/q)
	for i := range out {
		out[i] = mod.QuAMaxTransform(bits[i*q : (i+1)*q])
	}
	return out
}

// SpinsToSymbols decodes Ising spins (±1) to candidate symbols.
func SpinsToSymbols(mod modulation.Modulation, s []int8) []complex128 {
	return BitsToSymbols(mod, qubo.BitsFromSpins(s))
}

// MLMetric evaluates ‖y − Hv‖² for a candidate symbol vector — the quantity
// the QUBO/Ising energy must reproduce.
func MLMetric(h *linalg.Mat, y, v []complex128) float64 {
	return linalg.Norm2(linalg.VecSub(y, linalg.MulVec(h, v)))
}
