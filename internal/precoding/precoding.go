// Package precoding implements downlink vector-perturbation (VP) precoding
// as a quantum-annealing workload — the downlink counterpart of the uplink
// ML detection the rest of this repository serves, after Kasi, Singh,
// Venturelli & Jamieson, "Quantum Annealing for Large MIMO Downlink Vector
// Perturbation Precoding" (arXiv:2102.12540).
//
// In the C-RAN downlink the data center owns the channel estimate H (Nu
// users × Nt antennas, Nu ≤ Nt) and must choose the transmit vector for a
// user-data symbol vector s. Channel inversion sends x = P·s with
// P = Hᴴ(HHᴴ)⁻¹, so each user k receives its own symbol s_k interference-
// free — but ‖P·s‖² can be huge on ill-conditioned channels, and the power
// normalization that follows crushes the effective SNR. Vector perturbation
// fixes this by offsetting s with a lattice point the receivers can remove
// blindly:
//
//	v̂ = argmin_v ‖P·(s + τ·v)‖²                (the NP-hard VP search)
//	x  = P·(s + τ·v̂)
//
// where v ranges over a bounded set of complex integers and τ is a spacing
// constant known to both ends; each user recovers s_k from its received
// scalar by reducing modulo τ per dimension (ModTau). The search over v is
// the same NP-hard lattice problem as uplink ML detection, which is exactly
// why this package can reuse the uplink Ising stack wholesale.
//
// # Reduction to the uplink form
//
// Encode each perturbation entry per dimension in b two's-complement bits,
// i.e. v ∈ {−2^{b−1}, …, 2^{b−1}−1} per I/Q dimension. Those levels are an
// affine image of an ordinary square QAM constellation: with O the
// 2^{2b}-point QAM alphabet (per-dimension odd levels −(2^b−1)…2^b−1),
//
//	v = (v_pam − (1+j)·𝟙)/2,   v_pam ∈ O^Nu,
//
// and substituting into the VP objective,
//
//	‖P(s + τv)‖² = ‖y′ − H′·v_pam‖²,
//	H′ = −(τ/2)·P,   y′ = P·(s − (τ/2)(1+j)·𝟙).
//
// That is literally the uplink ML form of internal/reduction with channel H′
// and "received vector" y′ — so the generalized Ising coefficients, the
// compile/execute split (H′ depends only on the channel; y′ only adds one
// matrix–vector product per symbol vector), the decoder's compiled-channel
// LRU, the coherence-aware scheduler gather, and every solver backend apply
// verbatim. The Ising energy of a solution equals the transmit power
// ‖P(s+τv)‖² exactly, the quantity VP minimizes.
//
// Compile once per coherence window with Compile; derive per-symbol-vector
// problems with Program.Ising (decoder-direct) or Program.Problem
// (scheduler dispatch, carrying the program's window). The Precoder type
// packages the decoder-direct path with the same compile/execute economics
// as uplink decoding.
package precoding

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
)

// DefaultPerturbBits is the perturbation alphabet depth used when a caller
// leaves the bit count zero: one bit per dimension, i.e. v ∈ {−1, 0} per I/Q
// dimension — the compact alphabet that already captures most of the VP
// power reduction while keeping the Ising problem at 2 spins per user.
const DefaultPerturbBits = 1

// MaxPerturbBits bounds the alphabet depth at the largest square QAM the
// modulation package defines (3 bits per dimension, v ∈ {−4, …, 3}).
const MaxPerturbBits = 3

// PerturbModulation returns the constellation whose QuAMax transform
// enumerates the b-bit perturbation alphabet: QPSK for b = 1, 16-QAM for
// b = 2, 64-QAM for b = 3. Perturbations are always complex (both I and Q
// perturbed), regardless of the data modulation.
func PerturbModulation(bits int) (modulation.Modulation, error) {
	switch bits {
	case 1:
		return modulation.QPSK, nil
	case 2:
		return modulation.QAM16, nil
	case 3:
		return modulation.QAM64, nil
	}
	return 0, fmt.Errorf("precoding: perturbation bits %d outside [1,%d]", bits, MaxPerturbBits)
}

// Tau returns the VP spacing constant for a data constellation: τ = 2·L with
// L the per-dimension PAM level count, the smallest spacing whose modulo
// interval [−τ/2, τ/2) contains every (unnormalized) data level −(L−1)…L−1
// with a half-minimum-distance guard on each side.
func Tau(dataMod modulation.Modulation) float64 {
	return 2 * float64(dataMod.LevelsPerDim())
}

// Program is the compiled, channel-dependent half of the VP search for one
// coherence window: the right pseudo-inverse P, the equivalent uplink
// channel H′ = −(τ/2)P with its precompiled Ising couplings, and H′'s
// window (core.Window): the key that tags every derived problem for
// coherence-aware scheduling and the sphere program its certificates read.
// Compile once per estimated channel; derive per-symbol-vector programs with
// Ising or Problem. A Program is immutable after Compile and
// safe for concurrent use (the Isings it produces share coupling storage,
// with the same contract as reduction.ChannelProgram).
type Program struct {
	dataMod    modulation.Modulation
	perturbMod modulation.Modulation
	bits       int
	tau        float64

	h    *linalg.Mat // downlink channel, Nu×Nt (referenced, not copied)
	pinv *linalg.Mat // P = Hᴴ(HHᴴ)⁻¹, Nt×Nu
	base complex128  // (τ/2)(1+j), the per-user affine shift of the alphabet

	prog   *reduction.ChannelProgram // couplings of ‖y′ − H′·v_pam‖²
	window *core.Window              // (perturbMod, H′ = −(τ/2)·P), the equivalent uplink channel
}

// Compile builds the VP program for one downlink channel estimate: the
// right pseudo-inverse, the equivalent uplink channel H′, its compiled Ising
// couplings, and H′'s window. h is Nu×Nt with Nu ≤ Nt (full row rank); bits
// is the perturbation depth (0 selects DefaultPerturbBits).
// The returned program references h; callers must treat the matrix as
// immutable for the program's lifetime.
func Compile(dataMod modulation.Modulation, h *linalg.Mat, bits int) (*Program, error) {
	if bits == 0 {
		bits = DefaultPerturbBits
	}
	perturbMod, err := PerturbModulation(bits)
	if err != nil {
		return nil, err
	}
	if h == nil || h.Rows < 1 {
		return nil, errors.New("precoding: empty channel matrix")
	}
	if h.Rows > h.Cols {
		return nil, fmt.Errorf("precoding: downlink needs at least as many antennas as users, got %d users × %d antennas",
			h.Rows, h.Cols)
	}
	if _, err := modulation.Parse(dataMod.String()); err != nil {
		return nil, fmt.Errorf("precoding: unknown data modulation %v", dataMod)
	}
	pinv, err := linalg.RightPseudoInverse(h)
	if err != nil {
		return nil, fmt.Errorf("precoding: channel inversion: %w", err)
	}
	tau := Tau(dataMod)
	hvp := linalg.NewMat(pinv.Rows, pinv.Cols)
	scale := complex(-tau/2, 0)
	for i, v := range pinv.Data {
		hvp.Data[i] = scale * v
	}
	return &Program{
		dataMod:    dataMod,
		perturbMod: perturbMod,
		bits:       bits,
		tau:        tau,
		h:          h,
		pinv:       pinv,
		base:       complex(tau/2, tau/2),
		prog:       reduction.CompileChannel(perturbMod, hvp),
		window:     core.NewWindow(perturbMod, hvp),
	}, nil
}

// Reduce is the one-shot form of the VP→Ising reduction: it compiles the
// channel-dependent half fresh and completes it for one symbol vector,
// exactly Compile(dataMod, h, bits).Ising(s). Precoding many symbol vectors
// through one channel should compile once and call Ising per vector.
func Reduce(dataMod modulation.Modulation, h *linalg.Mat, bits int, s []complex128) (*qubo.Ising, error) {
	prog, err := Compile(dataMod, h, bits)
	if err != nil {
		return nil, err
	}
	return prog.Ising(s), nil
}

// DataMod returns the data constellation the program precodes for.
func (p *Program) DataMod() modulation.Modulation { return p.dataMod }

// PerturbMod returns the constellation enumerating the perturbation alphabet.
func (p *Program) PerturbMod() modulation.Modulation { return p.perturbMod }

// PerturbBits returns the alphabet depth b (bits per perturbation dimension).
func (p *Program) PerturbBits() int { return p.bits }

// Tau returns the VP spacing constant.
func (p *Program) Tau() float64 { return p.tau }

// Users returns Nu, the number of served users (h's row count).
func (p *Program) Users() int { return p.h.Rows }

// Antennas returns Nt, the transmit antenna count (h's column count).
func (p *Program) Antennas() int { return p.h.Cols }

// Channel returns the downlink channel the program was compiled from.
func (p *Program) Channel() *linalg.Mat { return p.h }

// Inverse returns the right pseudo-inverse P (shared, do not mutate).
func (p *Program) Inverse() *linalg.Mat { return p.pinv }

// VPChannel returns the equivalent uplink channel H′ = −(τ/2)P the VP search
// anneals over (shared, do not mutate).
func (p *Program) VPChannel() *linalg.Mat { return p.window.Channel() }

// Window returns the coherence window of the VP problem family, (PerturbMod,
// VPChannel): the window every Problem derived from this program carries,
// whose key the decoder's compiled-channel LRU recognizes it by.
func (p *Program) Window() *core.Window { return p.window }

// LogicalSpins returns N = Nu · 2b, the Ising size of every VP search
// through this channel.
func (p *Program) LogicalSpins() int { return p.prog.N }

// Target computes y′ = P·(s − (τ/2)(1+j)·𝟙), the equivalent uplink received
// vector for one user-data symbol vector — the only per-symbol-vector
// arithmetic of the execute phase (one O(Nt·Nu) matrix–vector product).
func (p *Program) Target(s []complex128) []complex128 {
	return p.AppendTarget(nil, s)
}

// AppendTarget appends Target(s) to dst, growing it once; dst must not
// overlap s.
func (p *Program) AppendTarget(dst, s []complex128) []complex128 {
	if len(s) != p.h.Rows {
		panic(fmt.Sprintf("precoding: s has %d entries, channel serves %d users", len(s), p.h.Rows))
	}
	a := p.pinv
	dst = slices.Grow(dst, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var acc complex128
		for j, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			acc += v * (s[j] - p.base)
		}
		dst = append(dst, acc)
	}
	return dst
}

// Ising completes the compiled program for one user-data symbol vector. The
// Ising energy of an assignment equals the transmit power ‖P(s+τv)‖² of the
// corresponding perturbation exactly. The result shares coupling storage
// with the program (the amortization), with the same ownership contract as
// reduction.ChannelProgram.Biases.
func (p *Program) Ising(s []complex128) *qubo.Ising {
	return p.prog.Biases(p.Target(s))
}

// Problem packages one VP search as a scheduler-dispatchable problem: the
// equivalent uplink channel and target, carrying the program's window so
// the pool's coherence-aware gather batches same-window searches, annealer
// backends solve them through their compiled-channel cache and the
// certificate reads the window's sphere program. The caller may set
// TargetBER and Anneal overrides before dispatch.
func (p *Program) Problem(s []complex128) *backend.Problem {
	q := new(backend.Problem)
	p.ProblemInto(q, s, nil)
	return q
}

// ProblemInto writes Problem(s) into dst, overwriting every field, with the
// target appended to target[:0], whose storage dst.Y then holds; target must
// not overlap s.
func (p *Program) ProblemInto(dst *backend.Problem, s, target []complex128) {
	*dst = backend.Problem{
		Mod:     p.perturbMod,
		H:       p.window.Channel(),
		Y:       p.AppendTarget(target[:0], s),
		Window:  p.window,
		Lattice: true,
	}
}

// Perturbation decodes an annealer outcome's constellation points (the
// v_pam solution of the equivalent uplink problem) into the VP perturbation
// vector v = (v_pam − (1+j)·𝟙)/2.
func Perturbation(pamSymbols []complex128) []complex128 {
	v := make([]complex128, len(pamSymbols))
	for i, c := range pamSymbols {
		v[i] = (c - complex(1, 1)) / 2
	}
	return v
}

// AppendPerturbationFromGrayBits decodes the Gray (post-translated) solution
// bits a solver backend returns into the perturbation vector, appended to
// dst. perturbMod is the alphabet constellation (PerturbModulation of the bit
// depth); the bit slice length must be a multiple of its bits-per-symbol.
func AppendPerturbationFromGrayBits(dst []complex128, perturbMod modulation.Modulation, gray []byte) []complex128 {
	q := perturbMod.BitsPerSymbol()
	if len(gray)%q != 0 {
		panic("precoding: solution bit count not a multiple of bits/symbol")
	}
	dst = slices.Grow(dst, len(gray)/q)
	var qbits [2 * MaxPerturbBits]byte
	for off := 0; off < len(gray); off += q {
		c := perturbMod.QuAMaxTransform(perturbMod.AppendGrayToQuAMaxBits(qbits[:0], gray[off:off+q]))
		dst = append(dst, (c-complex(1, 1))/2)
	}
	return dst
}

// Transmit forms the precoded transmit vector x = P·(s + τ·v) for a chosen
// perturbation (v = zeros gives the plain channel-inversion baseline).
func (p *Program) Transmit(s, v []complex128) []complex128 {
	if len(v) != len(s) {
		panic("precoding: perturbation/symbol length mismatch")
	}
	t := make([]complex128, len(s))
	tau := complex(p.tau, 0)
	for i := range s {
		t[i] = s[i] + tau*v[i]
	}
	return linalg.MulVec(p.pinv, t)
}

// Gamma evaluates the VP objective ‖P(s+τv)‖² — the transmit power the
// search minimizes, and the value the Ising energy of the corresponding
// assignment reproduces.
func (p *Program) Gamma(s, v []complex128) float64 {
	return linalg.Norm2(p.Transmit(s, v))
}

// ZFGamma is the no-perturbation baseline ‖P·s‖² (plain channel inversion).
func (p *Program) ZFGamma(s []complex128) float64 {
	return p.Gamma(s, make([]complex128, len(s)))
}

// ModTau reduces one received scalar modulo τ per dimension into
// [−τ/2, τ/2), the blind per-user operation that strips the perturbation
// offset τ·v_k from s_k + τ·v_k.
func ModTau(tau float64, r complex128) complex128 {
	wrap := func(x float64) float64 {
		x -= tau * math.Round(x/tau)
		if x >= tau/2 { // Round half-away-from-zero can leave +τ/2 exactly
			x -= tau
		}
		return x
	}
	return complex(wrap(real(r)), wrap(imag(r)))
}

// Receive recovers hard data symbols at the users: each scaled received
// scalar is reduced modulo τ and sliced to the nearest data constellation
// point. r must already be normalized back to constellation scale (the
// receiver knows the power-normalization factor √γ from control signaling).
func Receive(dataMod modulation.Modulation, tau float64, r []complex128) []complex128 {
	out := make([]complex128, len(r))
	for i, v := range r {
		out[i] = dataMod.Slice(ModTau(tau, v))
	}
	return out
}
