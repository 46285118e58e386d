// Package softout converts a quantum annealer's read ensemble into per-bit
// soft information. The paper evaluates QuAMax with hard decisions and leans
// on forward error correction above detection (§5.2.2, §5.3.3), but a run of
// Na anneals produces far more than one answer: every read is a candidate
// solution whose Ising energy equals the ML metric ‖y − H·v‖² exactly
// (footnote 6). Kim et al.'s hybrid follow-up (arXiv:2010.00682) shows that
// turning that candidate list into per-bit log-likelihood ratios is what
// unlocks practical coded performance, and Kasi et al. (arXiv:2109.01465)
// rank soft-output support among the requirements for annealers in real
// cellular basebands.
//
// The conversion is max-log-MAP over the sampled candidate list: for data
// bit k,
//
//	LLR_k = (min E among candidates with bit k = 0 −
//	         min E among candidates with bit k = 1) / σ²,
//
// clamped to ±Clamp, where σ² is the per-antenna complex noise variance
// (under AWGN, P(v|y) ∝ exp(−‖y−Hv‖²/σ²), so the energy difference IS the
// log-likelihood ratio up to the terms max-log discards). Positive LLRs
// favor bit 1, so sign(LLR_k) always agrees with the best read's hard
// decision wherever the sign is strict. A bit all retained candidates agree
// on has an empty min on one side and saturates to ±Clamp — the soft
// decoder's "certain" value, which also makes the classical single-solution
// backends representable (their one candidate saturates every bit).
//
// Energies are reused from the decode's own sample scoring, so LLR
// extraction adds no objective evaluations — only the candidate bookkeeping
// and one Gray translation per read.
//
// A decision proved ML at admission carries exact LLRs instead: a clipped
// sphere search (internal/detector) finds every bit's nearest
// counter-hypothesis out to ClipRadius, and FromGaps turns those distances
// into LLRs through the same formula (LLR) the ensemble uses.
package softout

import (
	"fmt"
	"math"
	"slices"
)

// DefaultClamp is the LLR magnitude cap applied when a Spec leaves Clamp
// zero. ±24 is comfortably past the "certain bit" threshold of practical
// soft-decision decoders while keeping the int8 quantization step
// (Clamp/127 ≈ 0.19) below any decision-relevant LLR difference.
const DefaultClamp = 24.0

// DefaultMaxCandidates bounds the retained candidate list when a Spec leaves
// MaxCandidates zero. The paper's Na = 100 operating point rarely yields
// more than a few dozen distinct solutions, so 64 keeps the full ensemble in
// the common case while bounding memory under pathological read budgets.
const DefaultMaxCandidates = 64

// MinEnsemble is the fewest reads a soft decode scores before a stopping rule
// may end it (core.Request.Radius): max-log-MAP needs a counter-hypothesis
// per bit, and an ensemble cut at its first good read has none. Fixed on
// internal/sched's TestStopRuleCorpus (LLR sign agreement with the uncut
// ensemble at this floor), not an option.
const MinEnsemble = 8

// Spec configures one soft-output extraction.
type Spec struct {
	// NoiseVar is σ², the per-antenna complex noise variance scaling the
	// energy differences into true log-likelihood ratios. ≤ 0 leaves the
	// energies unscaled (LLRs in energy units — still sign-correct, and the
	// clamp bounds them).
	NoiseVar float64
	// Clamp bounds |LLR|; 0 selects DefaultClamp. Clamped and one-sided
	// (ensemble-unanimous) bits count as saturated.
	Clamp float64
	// MaxCandidates caps the retained distinct-candidate list; 0 selects
	// DefaultMaxCandidates. When the cap is hit, the highest-energy
	// candidate is dropped — the one least able to move any min-energy term.
	MaxCandidates int
}

// WithDefaults returns the spec with zero fields replaced by the package
// defaults (NoiseVar stays as given; only Clamp and MaxCandidates default).
func (s Spec) WithDefaults() Spec {
	if s.Clamp == 0 {
		s.Clamp = DefaultClamp
	}
	if s.MaxCandidates == 0 {
		s.MaxCandidates = DefaultMaxCandidates
	}
	return s
}

// Validate rejects specs no extraction can honor.
func (s Spec) Validate() error {
	if s.Clamp < 0 || math.IsNaN(s.Clamp) || math.IsInf(s.Clamp, 0) {
		return fmt.Errorf("softout: clamp %g outside [0, ∞)", s.Clamp)
	}
	if s.MaxCandidates < 0 {
		return fmt.Errorf("softout: negative candidate cap %d", s.MaxCandidates)
	}
	if math.IsNaN(s.NoiseVar) {
		return fmt.Errorf("softout: NaN noise variance")
	}
	return nil
}

// Candidate is one distinct solution of the read ensemble: its data bits
// (0/1 bytes, Gray-coded — the decoder's PostTranslate output), the Ising
// energy (= ML metric) of the underlying spin configuration, and how many
// reads produced it.
type Candidate struct {
	Bits   []byte
	Energy float64
	Count  int
}

// Ensemble accumulates the distinct candidates of one decode's read
// ensemble, deduplicating by bit pattern and evicting the highest-energy
// candidate once the cap is reached. It is not safe for concurrent use; one
// decode owns one ensemble at a time, and Reset readies it — index, candidate
// list and bit storage kept — for the next.
type Ensemble struct {
	nbits   int
	cap     int
	index   map[string]int
	cands   []Candidate
	bits    []byte // the candidates' Bits, nbits each, in slot order
	dropped int
}

// NewEnsemble returns an empty ensemble for nbits-bit candidates retaining
// at most cap distinct patterns (cap ≤ 0 selects DefaultMaxCandidates).
func NewEnsemble(nbits, cap int) *Ensemble {
	e := new(Ensemble)
	e.Reset(nbits, cap)
	return e
}

// Reset empties the ensemble for a new decode of nbits-bit candidates under
// cap, keeping its storage. Candidates handed out earlier are invalidated.
func (e *Ensemble) Reset(nbits, cap int) {
	if cap <= 0 {
		cap = DefaultMaxCandidates
	}
	if e.index == nil {
		e.index = make(map[string]int)
	}
	clear(e.index)
	e.nbits, e.cap, e.dropped = nbits, cap, 0
	e.cands, e.bits = e.cands[:0], e.bits[:0]
}

// Add records one read's candidate. bits is copied when the pattern is new,
// so callers may reuse their buffer across reads; a repeated pattern — the
// common case once the anneal concentrates — costs one lookup and no
// allocation (the map key is materialised only on insert).
func (e *Ensemble) Add(bits []byte, energy float64) {
	if len(bits) != e.nbits {
		panic(fmt.Sprintf("softout: candidate has %d bits, ensemble holds %d-bit patterns", len(bits), e.nbits))
	}
	if i, ok := e.index[string(bits)]; ok {
		e.cands[i].Count++
		if energy < e.cands[i].Energy {
			// Identical bits imply identical spins and hence identical
			// energy on one logical program; keeping the min makes the
			// ensemble robust to callers mixing programs.
			e.cands[i].Energy = energy
		}
		return
	}
	slot := len(e.cands)
	if slot >= e.cap {
		// Evict the weakest retained candidate (or refuse the newcomer when
		// it is weaker still): the max-energy pattern is the one least able
		// to lower any per-bit minimum. The newcomer takes its slot.
		e.dropped++
		slot = 0
		for i := range e.cands {
			if e.cands[i].Energy > e.cands[slot].Energy {
				slot = i
			}
		}
		if energy >= e.cands[slot].Energy {
			return
		}
		delete(e.index, string(e.cands[slot].Bits))
		copy(e.cands[slot].Bits, bits)
	} else {
		// Growing e.bits may move it; candidates already placed keep their
		// (unchanged) bytes in the old array.
		e.bits = append(e.bits, bits...)
		e.cands = append(e.cands, Candidate{Bits: e.bits[slot*e.nbits : (slot+1)*e.nbits : (slot+1)*e.nbits]})
	}
	e.cands[slot].Energy, e.cands[slot].Count = energy, 1
	e.index[string(bits)] = slot
}

// Len returns the number of distinct candidates retained.
func (e *Ensemble) Len() int { return len(e.cands) }

// Dropped returns how many reads fell to the candidate cap (evictions plus
// refused newcomers) — a fidelity diagnostic: nonzero means the LLRs were
// computed over a truncated ensemble.
func (e *Ensemble) Dropped() int { return e.dropped }

// Candidates returns the retained candidates in insertion order (shared
// storage; callers must not mutate).
func (e *Ensemble) Candidates() []Candidate { return e.cands }

// Best returns the minimum-energy retained candidate — the hard decision —
// and false when the ensemble is empty.
func (e *Ensemble) Best() (Candidate, bool) {
	if len(e.cands) == 0 {
		return Candidate{}, false
	}
	best := 0
	for i := range e.cands {
		if e.cands[i].Energy < e.cands[best].Energy {
			best = i
		}
	}
	return e.cands[best], true
}

// LLRs computes the max-log-MAP log-likelihood ratios of every bit over the
// retained candidate list under spec (see the package comment for the
// formula and sign convention). saturated counts the bits that hit the
// clamp, including one-sided bits. An empty ensemble yields all-zero LLRs.
func (e *Ensemble) LLRs(spec Spec) (llrs []float64, saturated int) {
	return e.AppendLLRs(make([]float64, 0, e.nbits), spec)
}

// AppendLLRs is LLRs appending the ratios to dst, which grows at most once.
func (e *Ensemble) AppendLLRs(dst []float64, spec Spec) (llrs []float64, saturated int) {
	llrs = slices.Grow(dst, e.nbits)
	if len(e.cands) == 0 {
		return append(llrs, make([]float64, e.nbits)...), 0
	}
	for k := 0; k < e.nbits; k++ {
		e0, e1 := math.Inf(1), math.Inf(1)
		for i := range e.cands {
			c := &e.cands[i]
			if c.Bits[k] == 0 {
				if c.Energy < e0 {
					e0 = c.Energy
				}
			} else if c.Energy < e1 {
				e1 = c.Energy
			}
		}
		llr, sat := LLR(e0, e1, spec)
		if sat {
			saturated++
		}
		llrs = append(llrs, llr)
	}
	return llrs, saturated
}

// LLR is the package's one max-log-MAP formula: one bit's ratio from e0 and
// e1, the least energies among the candidates with that bit 0 and with it 1
// (+Inf where there is none). It is (e0 − e1)/σ² — unscaled when NoiseVar ≤
// 0 — clamped to ±Clamp (0 selects DefaultClamp); a one-sided bit takes the
// clamp on its candidates' side. saturated reports |LLR| = Clamp.
func LLR(e0, e1 float64, spec Spec) (llr float64, saturated bool) {
	spec = spec.WithDefaults()
	switch {
	case math.IsInf(e1, 1): // every candidate says 0
		llr = -spec.Clamp
	case math.IsInf(e0, 1): // every candidate says 1
		llr = spec.Clamp
	default:
		scale := 1.0
		if spec.NoiseVar > 0 {
			scale = 1 / spec.NoiseVar
		}
		llr = min(max((e0-e1)*scale, -spec.Clamp), spec.Clamp)
	}
	return llr, llr == spec.Clamp || llr == -spec.Clamp
}

// ClipRadius is the energy distance at which an LLR reaches the clamp: Clamp·σ²,
// or Clamp when NoiseVar ≤ 0. A counter-hypothesis this much farther than the
// best candidate, or more, yields ±Clamp however far it is.
func (s Spec) ClipRadius() float64 {
	s = s.WithDefaults()
	if s.NoiseVar > 0 {
		return s.Clamp * s.NoiseVar
	}
	return s.Clamp
}

// AppendFromGaps is LLR for one decision, appended to dst: bits its data
// bits, and gaps[k] how much farther the nearest candidate with bit k flipped
// lies (+Inf for none) — a max-log search's output in place of an ensemble's.
func AppendFromGaps(dst []float64, bits []byte, gaps []float64, spec Spec) (llrs []float64, saturated int) {
	dst = slices.Grow(dst, len(bits))
	llrs = dst[len(dst) : len(dst)+len(bits)]
	for k, b := range bits {
		e0, e1 := 0.0, gaps[k]
		if b != 0 {
			e0, e1 = e1, e0
		}
		var sat bool
		if llrs[k], sat = LLR(e0, e1, spec); sat {
			saturated++
		}
	}
	return dst[:len(dst)+len(bits)], saturated
}

// QuantScale is the int8 full-scale value LLR quantization maps the clamp
// onto: ±Clamp ↔ ±127.
const QuantScale = 127

// AppendQuantized maps LLRs onto int8 wire values, appended to dst:
// q = round(QuantScale·llr/clamp), saturating at ±QuantScale (clamp ≤ 0
// selects DefaultClamp). This is the fronthaul payload format of protocol
// v6 — 1 byte per bit instead of a float64, an 8× payload shrink at a
// quantization step of clamp/127.
func AppendQuantized(dst []int8, llrs []float64, clamp float64) []int8 {
	if clamp <= 0 {
		clamp = DefaultClamp
	}
	dst = slices.Grow(dst, len(llrs))
	q := dst[len(dst) : len(dst)+len(llrs)]
	for i, v := range llrs {
		s := math.Round(v * QuantScale / clamp)
		if s > QuantScale {
			s = QuantScale
		} else if s < -QuantScale {
			s = -QuantScale
		}
		q[i] = int8(s)
	}
	return dst[:len(dst)+len(llrs)]
}

// Dequantize inverts AppendQuantized up to the quantization step: llr = q·clamp/127
// (clamp ≤ 0 selects DefaultClamp).
func Dequantize(q []int8, clamp float64) []float64 {
	if clamp <= 0 {
		clamp = DefaultClamp
	}
	llrs := make([]float64, len(q))
	for i, v := range q {
		llrs[i] = float64(v) * clamp / QuantScale
	}
	return llrs
}

// Saturated returns saturated LLRs for a single hard decision: bit 1 → +clamp,
// bit 0 → −clamp (clamp ≤ 0 selects DefaultClamp). This is how classical
// single-solution backends (sphere decoder, simulated annealing) represent
// their answer on the soft interface — every bit certain — and feeding the
// result to a soft decoder provably reproduces hard-decision decoding.
func Saturated(bits []byte, clamp float64) []float64 {
	return AppendSaturated(make([]float64, 0, len(bits)), bits, clamp)
}

// AppendSaturated is Saturated appending the LLRs to dst, which grows at most
// once.
func AppendSaturated(dst []float64, bits []byte, clamp float64) []float64 {
	if clamp <= 0 {
		clamp = DefaultClamp
	}
	dst = slices.Grow(dst, len(bits))
	for _, b := range bits {
		if b != 0 {
			dst = append(dst, clamp)
		} else {
			dst = append(dst, -clamp)
		}
	}
	return dst
}

// HardDecisions slices LLRs to hard bits: positive → 1, otherwise → 0
// (matching the sign convention that positive favors bit 1; an exact zero —
// both bit values achieving the same minimum energy — slices to 0).
func HardDecisions(llrs []float64) []byte {
	bits := make([]byte, len(llrs))
	for i, v := range llrs {
		if v > 0 {
			bits[i] = 1
		}
	}
	return bits
}
