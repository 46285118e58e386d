package precoding

import (
	"errors"

	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Precoder runs the VP search on a QuAMax decoder with the same
// compile/execute economics as uplink decoding: the caller compiles the VP
// program (channel inversion + couplings) once per coherence window and
// holds it, the decoder keeps the embedded physical program in its
// compiled-channel store under the program's window key, and each symbol
// vector only pays one matrix–vector product plus the bias rewrite and
// anneal. Safe for concurrent use.
type Precoder struct {
	dec  *core.Decoder
	bits int
}

// NewPrecoder wraps a decoder as a VP precoder. bits is the perturbation
// depth (0 = DefaultPerturbBits).
func NewPrecoder(dec *core.Decoder, bits int) (*Precoder, error) {
	if dec == nil {
		return nil, errors.New("precoding: nil decoder")
	}
	if bits == 0 {
		bits = DefaultPerturbBits
	}
	if _, err := PerturbModulation(bits); err != nil {
		return nil, err
	}
	return &Precoder{dec: dec, bits: bits}, nil
}

// Decoder exposes the wrapped decoder (shared with any uplink use).
func (p *Precoder) Decoder() *core.Decoder { return p.dec }

// PerturbBits returns the configured perturbation depth.
func (p *Precoder) PerturbBits() int { return p.bits }

// Compile returns the VP program for one downlink channel estimate at the
// precoder's depth: call once per coherence window and hold the program for
// the window's symbol vectors.
func (p *Precoder) Compile(dataMod modulation.Modulation, h *linalg.Mat) (*Program, error) {
	return Compile(dataMod, h, p.bits)
}

// Result is one solved VP search.
type Result struct {
	// V is the chosen perturbation vector (complex integers of the b-bit
	// alphabet, one per user).
	V []complex128
	// X is the precoded transmit vector P·(s + τ·V), ready for power
	// normalization at the radio head.
	X []complex128
	// Gamma is the transmit power ‖X‖² — the minimized VP objective. It
	// equals the annealer's Ising energy by construction.
	Gamma float64
	// ZFGamma is the no-perturbation baseline ‖P·s‖², so callers can report
	// the power reduction (effective SNR gain) without recomputing it.
	ZFGamma float64
	// Outcome is the underlying decode outcome (energy, broken chains,
	// timing model).
	Outcome *core.Outcome
}

// Precode runs the execute phase for one user-data symbol vector through a
// compiled program: target + bias rewrite, then an annealer run over the
// decoder's compiled-channel artifact. The perturbation search is
// bit-identical to PrecodeRecompile on the same (program inputs, random
// stream) — the property tests assert it.
func (p *Precoder) Precode(prog *Program, s []complex128, src *rng.Source) (*Result, error) {
	out, err := p.dec.Decode(core.Request{Window: prog.window, Y: prog.Target(s)}, core.Budget{}, src)
	if err != nil {
		return nil, err
	}
	return p.result(prog, s, out), nil
}

// PrecodeRecompile is the one-shot path: it recompiles the VP program and
// decodes it as a raw-channel request, paying the channel inversion, coupling
// compile and embedding for every symbol vector. It exists as the
// baseline the compile/execute split is measured against
// (BenchmarkPrecodeWindow) and as the independent oracle in property tests.
func (p *Precoder) PrecodeRecompile(dataMod modulation.Modulation, h *linalg.Mat, s []complex128, src *rng.Source) (*Result, error) {
	prog, err := Compile(dataMod, h, p.bits)
	if err != nil {
		return nil, err
	}
	out, err := p.dec.Decode(core.Request{Mod: prog.PerturbMod(), H: prog.VPChannel(), Y: prog.Target(s)}, core.Budget{}, src)
	if err != nil {
		return nil, err
	}
	return p.result(prog, s, out), nil
}

// result converts a decode outcome into a VP result: the outcome's
// constellation points are the v_pam solution, mapped affinely back to the
// perturbation alphabet.
func (p *Precoder) result(prog *Program, s []complex128, out *core.Outcome) *Result {
	v := Perturbation(out.Symbols)
	return &Result{
		V:       v,
		X:       prog.Transmit(s, v),
		Gamma:   out.Energy,
		ZFGamma: prog.ZFGamma(s),
		Outcome: out,
	}
}
