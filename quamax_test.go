package quamax_test

import (
	"math"
	"testing"

	"quamax"
	"quamax/internal/detector"
)

// The public façade: construct, generate, decode, score — the README's
// quick-start path.
func TestPublicAPIQuickstart(t *testing.T) {
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := quamax.NewSource(42)
	inst, err := quamax.NewInstance(src, quamax.InstanceConfig{
		Mod: quamax.QPSK, Users: 4, Antennas: 4, SNRdB: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := dec.Decode(quamax.Request{Mod: inst.Mod, H: inst.H, Y: inst.Y, Truth: inst}, quamax.Budget{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if inst.BitErrors(out.Bits) != 0 {
		t.Fatalf("quick-start decode had %d bit errors", inst.BitErrors(out.Bits))
	}
	if ttb := out.Distribution.TTB(1e-6, out.WallMicrosPerAnneal, out.Pf); math.IsInf(ttb, 1) {
		t.Fatal("TTB unreachable on an easy instance")
	}
}

// The public soft-output façade: the same decode with per-bit LLRs.
func TestPublicAPISoftDecode(t *testing.T) {
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := quamax.NewSource(43)
	inst, err := quamax.NewInstance(src, quamax.InstanceConfig{
		Mod: quamax.QPSK, Users: 4, Antennas: 4, SNRdB: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := dec.Decode(quamax.Request{Mod: inst.Mod, H: inst.H, Y: inst.Y, Truth: inst, Soft: &quamax.SoftSpec{}}, quamax.Budget{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.LLRs) != len(out.Bits) {
		t.Fatalf("%d LLRs for %d bits", len(out.LLRs), len(out.Bits))
	}
	for k, llr := range out.LLRs {
		if llr > 0 && out.Bits[k] != 1 || llr < 0 && out.Bits[k] != 0 {
			t.Fatalf("bit %d: LLR %g disagrees with the hard decision %d", k, llr, out.Bits[k])
		}
	}
}

func TestPublicAPIDefaultsAndHelpers(t *testing.T) {
	if quamax.DW2Q().NumWorkingQubits() != 2031 {
		t.Fatal("DW2Q helper wrong")
	}
	if quamax.NewMachine() == nil {
		t.Fatal("NewMachine nil")
	}
	if !math.IsInf(quamax.NoiseFree(), 1) {
		t.Fatal("NoiseFree must be +Inf")
	}
	src := quamax.NewSource(1)
	h := quamax.RayleighChannel().Generate(src, 3, 2)
	if h.Rows != 3 || h.Cols != 2 {
		t.Fatal("channel helper wrong shape")
	}
	if quamax.RandomPhaseChannel().Name() != "random-phase" {
		t.Fatal("RandomPhaseChannel wrong model")
	}
}

// End-to-end cross-validation: on noise-free channels QuAMax's decoded
// symbol vector must match the sphere decoder's ML solution exactly, across
// every modulation — the two completely independent ML paths in this
// repository agree.
func TestQuAMaxMatchesSphereDecoderML(t *testing.T) {
	cases := []struct {
		mod   quamax.Modulation
		users int
		jf    float64
	}{
		// |J_F| per problem class, mirroring the paper's Fig. 5 finding that
		// the optimum is size/modulation dependent (16-QAM's wider
		// coefficient spread wants stronger chains and more anneals).
		{quamax.BPSK, 10, 4},
		{quamax.QPSK, 5, 4},
		{quamax.QAM16, 3, 12},
	}
	for _, c := range cases {
		dec, err := quamax.NewDecoder(quamax.Options{
			JF: c.jf, ImprovedRange: true,
			Params: quamax.AnnealParams{
				AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35,
				NumAnneals: 400,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := quamax.NewSource(77 + int64(c.mod))
		for trial := 0; trial < 3; trial++ {
			inst, err := quamax.NewInstance(src, quamax.InstanceConfig{
				Mod: c.mod, Users: c.users, Antennas: c.users, SNRdB: quamax.NoiseFree(),
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := dec.Decode(quamax.Request{Mod: inst.Mod, H: inst.H, Y: inst.Y, Truth: inst}, quamax.Budget{}, src)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := detector.SphereDecode(inst.Mod, inst.H, inst.Y, detector.SphereOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range out.Symbols {
				if out.Symbols[i] != sp.Symbols[i] {
					t.Fatalf("%v trial %d: QuAMax symbol %d = %v, sphere = %v",
						c.mod, trial, i, out.Symbols[i], sp.Symbols[i])
				}
			}
		}
	}
}
