package softout

import (
	"math"
	"testing"

	"quamax/internal/rng"
)

func TestLLRFormula(t *testing.T) {
	e := NewEnsemble(2, 0)
	e.Add([]byte{0, 0}, 3.0)
	e.Add([]byte{1, 0}, 1.0)
	e.Add([]byte{1, 1}, 5.0)

	llrs, sat := e.LLRs(Spec{NoiseVar: 0.5})
	// Bit 0: min E(bit=0) = 3, min E(bit=1) = 1 → (3−1)/0.5 = 4.
	if got := llrs[0]; math.Abs(got-4) > 1e-12 {
		t.Errorf("bit 0 LLR = %g, want 4", got)
	}
	// Bit 1: min E(bit=0) = 1, min E(bit=1) = 5 → (1−5)/0.5 = −8.
	if got := llrs[1]; math.Abs(got+8) > 1e-12 {
		t.Errorf("bit 1 LLR = %g, want -8", got)
	}
	if sat != 0 {
		t.Errorf("saturated = %d, want 0", sat)
	}
}

func TestLLRNoNoiseVarLeavesEnergiesUnscaled(t *testing.T) {
	e := NewEnsemble(1, 0)
	e.Add([]byte{0}, 2.0)
	e.Add([]byte{1}, 5.5)
	llrs, _ := e.LLRs(Spec{})
	if got := llrs[0]; math.Abs(got+3.5) > 1e-12 {
		t.Errorf("unscaled LLR = %g, want -3.5", got)
	}
}

func TestLLRSaturation(t *testing.T) {
	e := NewEnsemble(2, 0)
	// Bit 0 is unanimous 1; bit 1 has a huge energy gap that must clamp.
	e.Add([]byte{1, 0}, 0)
	e.Add([]byte{1, 1}, 1000)
	llrs, sat := e.LLRs(Spec{NoiseVar: 1, Clamp: 10})
	if llrs[0] != 10 {
		t.Errorf("unanimous bit LLR = %g, want +10", llrs[0])
	}
	if llrs[1] != -10 {
		t.Errorf("clamped bit LLR = %g, want -10", llrs[1])
	}
	if sat != 2 {
		t.Errorf("saturated = %d, want 2", sat)
	}
}

func TestLLRSignsAgreeWithBestCandidate(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		nbits := 1 + src.Intn(12)
		e := NewEnsemble(nbits, 0)
		for c := 0; c < 1+src.Intn(20); c++ {
			e.Add(src.Bits(nbits), src.Float64()*10)
		}
		best, ok := e.Best()
		if !ok {
			t.Fatal("empty ensemble")
		}
		llrs, _ := e.LLRs(Spec{NoiseVar: 1})
		for k, llr := range llrs {
			if llr > 0 && best.Bits[k] != 1 {
				t.Fatalf("trial %d bit %d: LLR %g > 0 but best bit is 0", trial, k, llr)
			}
			if llr < 0 && best.Bits[k] != 0 {
				t.Fatalf("trial %d bit %d: LLR %g < 0 but best bit is 1", trial, k, llr)
			}
		}
	}
}

func TestEnsembleDedupAndCounts(t *testing.T) {
	e := NewEnsemble(3, 0)
	bits := []byte{1, 0, 1}
	e.Add(bits, 2)
	bits[0] = 0 // caller reuses the buffer; the ensemble must have copied
	e.Add([]byte{1, 0, 1}, 2)
	e.Add([]byte{0, 0, 1}, 4)
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	best, _ := e.Best()
	if best.Count != 2 || best.Bits[0] != 1 {
		t.Fatalf("best = %+v, want count 2 of [1 0 1]", best)
	}
}

func TestEnsembleCapEvictsWorst(t *testing.T) {
	e := NewEnsemble(1, 2)
	e.Add([]byte{0}, 5)
	e.Add([]byte{1}, 3)
	if e.Dropped() != 0 {
		t.Fatalf("Dropped = %d before the cap", e.Dropped())
	}
	// Re-adding retained patterns is a dedup hit, never a drop.
	e.Add([]byte{0}, 5)
	e.Add([]byte{1}, 3)
	if e.Dropped() != 0 {
		t.Fatalf("dedup hits counted as drops: %d", e.Dropped())
	}
	e2 := NewEnsemble(2, 2)
	e2.Add([]byte{0, 0}, 5)
	e2.Add([]byte{1, 1}, 3)
	e2.Add([]byte{1, 0}, 9) // worse than the worst retained → refused
	if e2.Len() != 2 || e2.Dropped() != 1 {
		t.Fatalf("after refused add: len=%d dropped=%d, want 2/1", e2.Len(), e2.Dropped())
	}
	e2.Add([]byte{0, 1}, 1) // better → evicts the energy-5 candidate
	if e2.Len() != 2 || e2.Dropped() != 2 {
		t.Fatalf("after evicting add: len=%d dropped=%d, want 2/2", e2.Len(), e2.Dropped())
	}
	for _, c := range e2.Candidates() {
		if c.Energy == 5 {
			t.Fatalf("worst candidate survived eviction: %+v", c)
		}
	}
	// The evicted pattern can re-enter (fresh index slot).
	e2.Add([]byte{0, 0}, 0.5)
	if e2.Len() != 2 {
		t.Fatalf("re-adding evicted pattern broke the index: len=%d", e2.Len())
	}
	best, _ := e2.Best()
	if best.Energy != 0.5 {
		t.Fatalf("best after re-add = %+v", best)
	}
}

func TestEmptyEnsembleLLRs(t *testing.T) {
	e := NewEnsemble(4, 0)
	llrs, sat := e.LLRs(Spec{NoiseVar: 1})
	if len(llrs) != 4 || sat != 0 {
		t.Fatalf("empty ensemble: llrs=%v sat=%d", llrs, sat)
	}
	for _, v := range llrs {
		if v != 0 {
			t.Fatalf("empty ensemble produced nonzero LLR %g", v)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	const clamp = 16.0
	llrs := []float64{0, clamp, -clamp, 3.7, -11.2, clamp * 2, -clamp * 3}
	q := AppendQuantized(nil, llrs, clamp)
	if q[1] != QuantScale || q[2] != -QuantScale {
		t.Fatalf("full-scale quantization: %v", q)
	}
	if q[5] != QuantScale || q[6] != -QuantScale {
		t.Fatalf("out-of-range values must saturate: %v", q)
	}
	back := Dequantize(q, clamp)
	step := clamp / QuantScale
	for i, v := range llrs {
		want := math.Max(-clamp, math.Min(clamp, v))
		if math.Abs(back[i]-want) > step/2+1e-12 {
			t.Errorf("round trip [%d]: %g → %d → %g (step %g)", i, v, q[i], back[i], step)
		}
	}
}

func TestQuantizeDefaultsClamp(t *testing.T) {
	q := AppendQuantized(nil, []float64{DefaultClamp}, 0)
	if q[0] != QuantScale {
		t.Fatalf("default clamp quantization: %d", q[0])
	}
	if got := Dequantize([]int8{QuantScale}, 0)[0]; math.Abs(got-DefaultClamp) > 1e-12 {
		t.Fatalf("default clamp dequantization: %g", got)
	}
}

func TestSaturatedAndHardDecisions(t *testing.T) {
	bits := []byte{1, 0, 0, 1, 1}
	llrs := Saturated(bits, 8)
	for i, b := range bits {
		want := -8.0
		if b == 1 {
			want = 8
		}
		if llrs[i] != want {
			t.Fatalf("Saturated[%d] = %g, want %g", i, llrs[i], want)
		}
	}
	got := HardDecisions(llrs)
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("HardDecisions(Saturated(bits)) != bits at %d", i)
		}
	}
	if HardDecisions([]float64{0})[0] != 0 {
		t.Fatal("zero LLR must slice to 0")
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{{}, {NoiseVar: 0.5, Clamp: 10, MaxCandidates: 4}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", s, err)
		}
	}
	bad := []Spec{
		{Clamp: -1},
		{Clamp: math.Inf(1)},
		{Clamp: math.NaN()},
		{MaxCandidates: -1},
		{NoiseVar: math.NaN()},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad spec", s)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	s := Spec{}.WithDefaults()
	if s.Clamp != DefaultClamp || s.MaxCandidates != DefaultMaxCandidates {
		t.Fatalf("WithDefaults: %+v", s)
	}
	s = Spec{NoiseVar: 2, Clamp: 5, MaxCandidates: 3}.WithDefaults()
	if s.Clamp != 5 || s.MaxCandidates != 3 || s.NoiseVar != 2 {
		t.Fatalf("WithDefaults overwrote explicit fields: %+v", s)
	}
}

// A decision and its per-bit gaps carry what an ensemble's LLRs read: the best
// candidate, and per bit how much farther the least-energy candidate holding
// the other value lies. AppendFromGaps gives the ensemble's LLRs bit for bit, under
// scaled and unscaled, default and small clamps.
func TestFromGapsMatchesEnsemble(t *testing.T) {
	src := rng.New(8)
	for trial := 0; trial < 300; trial++ {
		nbits := 1 + src.Intn(10)
		spec := Spec{NoiseVar: []float64{0, 0.3, 2}[trial%3], Clamp: []float64{0, 3, 0.5, 50}[trial%4]}
		e := NewEnsemble(nbits, 0)
		for c := 0; c < 1+src.Intn(20); c++ {
			e.Add(src.Bits(nbits), src.Float64()*10)
		}
		best, _ := e.Best()
		gaps := make([]float64, nbits)
		for k := range gaps {
			gaps[k] = math.Inf(1)
			for _, c := range e.Candidates() {
				if c.Bits[k] != best.Bits[k] {
					gaps[k] = min(gaps[k], c.Energy-best.Energy)
				}
			}
		}
		want, wantSat := e.LLRs(spec)
		got, gotSat := AppendFromGaps(nil, best.Bits, gaps, spec)
		if gotSat != wantSat {
			t.Fatalf("trial %d: %d saturated from gaps, %d from the ensemble", trial, gotSat, wantSat)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d bit %d: LLR %v from gaps, %v from the ensemble", trial, k, got[k], want[k])
			}
		}
	}
}

// ClipRadius is where the LLR meets the clamp: a gap of exactly that much
// saturates, scaled or not, and anything nearer does not.
func TestClipRadius(t *testing.T) {
	for _, spec := range []Spec{{NoiseVar: 0.5, Clamp: 10}, {Clamp: 4}, {NoiseVar: 0.25}} {
		r := spec.ClipRadius()
		if l, sat := LLR(0, r, spec); !sat || l != -spec.WithDefaults().Clamp {
			t.Errorf("%+v: a gap of the clip radius %v gives LLR %v (saturated %v)", spec, r, l, sat)
		}
		if _, sat := LLR(r*0.99, 0, spec); sat {
			t.Errorf("%+v: a gap inside the clip radius saturates", spec)
		}
	}
}
