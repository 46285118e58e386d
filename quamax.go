// Package quamax is the public API of QuAMax-Go, a reproduction of
// "Leveraging Quantum Annealing for Large MIMO Processing in Centralized
// Radio Access Networks" (Kim, Venturelli, Jamieson — SIGCOMM 2019).
//
// QuAMax decodes multi-user MIMO uplink transmissions by reducing
// Maximum-Likelihood detection to an Ising problem, embedding it on a
// Chimera-topology quantum annealer, and post-translating the annealer's
// output back into Gray-coded data bits. This repository substitutes the
// D-Wave 2000Q with a faithful device simulator (see internal/anneal); the entire
// pipeline — reduction, embedding, annealing schedule, ICE noise, majority
// voting, post-translation — is the paper's.
//
// # Quick start
//
//	dec, err := quamax.NewDecoder(quamax.Options{})
//	if err != nil { ... }
//	src := quamax.NewSource(1)
//	inst, err := quamax.NewInstance(src, quamax.InstanceConfig{
//		Mod: quamax.QPSK, Users: 4, Antennas: 4, SNRdB: 20,
//	})
//	out, err := dec.Decode(quamax.Request{Mod: inst.Mod, H: inst.H, Y: inst.Y}, quamax.Budget{}, src)
//	fmt.Println(out.Bits) // decoded Gray-coded data bits
//
// Every decode is one Request: add Truth: inst for the evaluation fields
// (Outcome.Distribution), Soft: &quamax.SoftSpec{...} for per-bit LLRs,
// Reverse: true for a reverse anneal; name a Decoder.Compile'd channel as CC
// in place of (Mod, H) to decode a coherence window without recompiling;
// Decoder.DecodeRun packs several requests into one annealer run.
//
// See examples/ for runnable programs, cmd/quamax for the experiment
// harness, and internal/* for the subsystem implementations.
package quamax

import (
	"math"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// Modulation selects the constellation.
type Modulation = modulation.Modulation

// Supported modulations.
const (
	BPSK  = modulation.BPSK
	QPSK  = modulation.QPSK
	QAM16 = modulation.QAM16
	QAM64 = modulation.QAM64
)

// Decoder is the QuAMax ML MIMO decoder (reduce → embed → anneal →
// majority-vote → post-translate). Safe for concurrent use.
type Decoder = core.Decoder

// Options configure a Decoder; the zero value selects the paper's operating
// point on a simulated DW2Q.
type Options = core.Options

// Request is one decode: a received vector through a raw (Mod, H) or a
// compiled (CC) channel, optionally with soft output, reverse annealing and
// ground truth. Decoder.Decode runs one, Decoder.DecodeRun several in one
// annealer run.
type Request = core.Request

// Budget is the operating point of one annealer run (reads, schedule, |J_F|);
// the zero value is the decoder's configured one.
type Budget = core.Budget

// Outcome is one decoded channel use.
type Outcome = core.Outcome

// AnnealParams are the per-run annealer knobs (anneal time Ta, pause Tp at
// position sp, batch size Na).
type AnnealParams = anneal.Params

// Source is the deterministic random source driving every stochastic
// component.
type Source = rng.Source

// Matrix is a dense complex channel matrix (row-major, Nr×Nt).
type Matrix = linalg.Mat

// Instance is one uplink channel use with ground truth for evaluation.
type Instance = mimo.Instance

// Distribution is the rank-ordered annealer solution distribution; it
// evaluates the paper's Eq. 9 expected BER and the TTB/TTF/TTS metrics.
type Distribution = metrics.Distribution

// NewDecoder constructs a decoder, filling unset options with the paper's
// defaults (DW2Q chip model, calibrated machine, improved dynamic range,
// |J_F| = 4, Ta = Tp = 1 µs).
func NewDecoder(opts Options) (*Decoder, error) { return core.New(opts) }

// NewSource returns a seeded random source.
func NewSource(seed int64) *Source { return rng.New(seed) }

// DW2Q returns the chip model of the paper's annealer (2,031 working qubits
// on a C16 Chimera graph).
func DW2Q() *chimera.Graph { return chimera.DW2Q() }

// NewMachine returns the calibrated annealer simulator; adjust its fields
// (ICE, sweep rate) for ablations.
func NewMachine() *anneal.Machine { return anneal.NewMachine() }

// ChannelModel draws channel matrices. RayleighChannel and
// RandomPhaseChannel are the models the paper evaluates.
type ChannelModel = channel.Model

// RayleighChannel returns i.i.d. CN(0,1) fading.
func RayleighChannel() ChannelModel { return channel.Rayleigh{} }

// RandomPhaseChannel returns the unit-gain random-phase model of §5.3.
func RandomPhaseChannel() ChannelModel { return channel.RandomPhase{} }

// InstanceConfig describes an uplink channel use to generate.
type InstanceConfig struct {
	Mod      Modulation
	Users    int // transmitters (one antenna each)
	Antennas int // AP receive antennas (≥ Users)
	// SNRdB is the receive SNR; NoiseFree() for the annealer-noise-only
	// scenarios of §5.3.
	SNRdB float64
	// Channel defaults to RandomPhaseChannel().
	Channel ChannelModel
}

// NoiseFree is the SNRdB value that disables channel noise.
func NoiseFree() float64 { return math.Inf(1) }

// Precoder is the downlink vector-perturbation precoder: it solves the
// NP-hard transmit-power search min_v ‖H⁺(s+τv)‖² on a Decoder with the
// same compile/execute economics as uplink decoding (see
// internal/precoding).
type Precoder = precoding.Precoder

// VPProgram is one compiled downlink coherence window: the channel
// inversion, the equivalent uplink Ising couplings, and their window.
type VPProgram = precoding.Program

// VPResult is one solved vector-perturbation search: the perturbation, the
// precoded transmit vector, and the minimized transmit power γ.
type VPResult = precoding.Result

// NewPrecoder wraps a decoder as a VP precoder. perturbBits selects the
// perturbation alphabet depth per dimension (0 = 1 bit, v ∈ {−1,0}²).
func NewPrecoder(dec *Decoder, perturbBits int) (*Precoder, error) {
	return precoding.NewPrecoder(dec, perturbBits)
}

// SoftSpec configures soft output (Request.Soft): the noise variance scaling
// the per-bit LLRs, the LLR clamp, and the candidate-list cap. See internal/softout for the max-log-MAP formula
// and the positive-favors-1 sign convention.
type SoftSpec = softout.Spec

// NewInstance draws one channel use: random data bits, a channel from the
// configured model, AWGN at the requested SNR.
func NewInstance(src *Source, cfg InstanceConfig) (*Instance, error) {
	ch := cfg.Channel
	if ch == nil {
		ch = channel.RandomPhase{}
	}
	return mimo.Generate(src, mimo.Config{
		Mod: cfg.Mod, Nt: cfg.Users, Nr: cfg.Antennas, Channel: ch, SNRdB: cfg.SNRdB,
	})
}
