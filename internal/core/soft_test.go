package core

import (
	"reflect"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// softTestDecoder builds a small-chip decoder for quick soft-path tests.
func softTestDecoder(t *testing.T, cache int) *Decoder {
	t.Helper()
	opts := Options{
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 40},
	}
	if cache > 0 {
		opts.ChannelCache = cache
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func softTestInstance(t *testing.T, seed int64, mod modulation.Modulation, nt int, snr float64) *mimo.Instance {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: snr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestDecodeSoftHardFieldsIdentical proves soft output is purely additive:
// on the same random stream, a request's hard fields do not depend on its
// Soft spec.
func TestDecodeSoftHardFieldsIdentical(t *testing.T) {
	for _, mod := range []modulation.Modulation{modulation.BPSK, modulation.QAM16} {
		in := softTestInstance(t, 11, mod, 3, 12)
		dec := softTestDecoder(t, 0)
		req := Request{Mod: mod, H: in.H, Y: in.Y}
		hard, err := dec.Decode(req, Budget{}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		req.Soft = &softout.Spec{NoiseVar: in.NoiseVariance()}
		soft, err := dec.Decode(req, Budget{}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		outcomesIdentical(t, mod.String(), soft, hard)
		if len(soft.LLRs) != len(soft.Bits) {
			t.Fatalf("%v: %d LLRs for %d bits", mod, len(soft.LLRs), len(soft.Bits))
		}
		if hard.LLRs != nil {
			t.Fatalf("%v: hard decode grew LLRs", mod)
		}
		if soft.SoftCandidates < 1 {
			t.Fatalf("%v: no candidates retained", mod)
		}
	}
}

// TestDecodeSoftLLRSignsMatchHardDecision asserts the sign property:
// wherever an LLR is strictly signed, it agrees with the best read's bit.
func TestDecodeSoftLLRSignsMatchHardDecision(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := softTestInstance(t, 100+seed, modulation.QPSK, 4, 10)
		dec := softTestDecoder(t, 0)
		out, err := dec.Decode(Request{Mod: in.Mod, H: in.H, Y: in.Y, Soft: &softout.Spec{NoiseVar: in.NoiseVariance()}}, Budget{}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for k, llr := range out.LLRs {
			if llr > 0 && out.Bits[k] != 1 {
				t.Fatalf("seed %d bit %d: LLR %g > 0 but hard bit 0", seed, k, llr)
			}
			if llr < 0 && out.Bits[k] != 0 {
				t.Fatalf("seed %d bit %d: LLR %g < 0 but hard bit 1", seed, k, llr)
			}
		}
	}
}

// TestDecodeCompiledSoftMatchesDecodeSoft: the raw-vs-compiled identity
// (compiled_test.go) holds for soft requests, LLRs included.
func TestDecodeCompiledSoftMatchesDecodeSoft(t *testing.T) {
	checkFormsIdentical(t, softTestDecoder(t, 4), []formsRow{{
		name: "soft",
		ins:  []*mimo.Instance{softTestInstance(t, 21, modulation.QAM16, 3, 14)},
		soft: []bool{true},
		seed: 7,
	}})
}

// TestCompiledSharedRunSoftMatchesRecompiling: ... and for soft items of a
// shared run.
func TestCompiledSharedRunSoftMatchesRecompiling(t *testing.T) {
	checkFormsIdentical(t, softTestDecoder(t, 4), []formsRow{{
		name: "soft run",
		ins: []*mimo.Instance{
			softTestInstance(t, 41, modulation.QPSK, 2, 12),
			softTestInstance(t, 42, modulation.QPSK, 2, 12),
		},
		soft: []bool{true, true},
		seed: 13,
	}})
}

// TestSharedRunSoftMatchesSolo proves each slot of a shared run keeps its own
// read ensemble: soft and hard items mix freely in one run, and an item's
// Soft spec changes no item's hard fields.
func TestSharedRunSoftMatchesSolo(t *testing.T) {
	mod := modulation.BPSK
	inA := softTestInstance(t, 31, mod, 4, 8)
	inB := softTestInstance(t, 32, mod, 4, 8)

	dec := softTestDecoder(t, 0)
	reqs := []Request{
		{Mod: mod, H: inA.H, Y: inA.Y},
		{Mod: mod, H: inB.H, Y: inB.Y},
	}
	hardOuts, err := dec.DecodeRun(reqs, Budget{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	reqs[0].Soft = &softout.Spec{NoiseVar: inA.NoiseVariance()}
	outs, err := dec.DecodeRun(reqs, Budget{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].LLRs == nil || len(outs[0].LLRs) != len(outs[0].Bits) {
		t.Fatalf("soft item has no LLRs: %v", outs[0].LLRs)
	}
	if outs[1].LLRs != nil {
		t.Fatal("hard item grew LLRs from a mixed run")
	}
	for i := range outs {
		outcomesIdentical(t, "mixed run", outs[i], hardOuts[i])
	}
}

// TestDecodeSoftRejectsBadSpec checks spec validation on every request form.
func TestDecodeSoftRejectsBadSpec(t *testing.T) {
	in := softTestInstance(t, 51, modulation.BPSK, 2, 10)
	dec := softTestDecoder(t, 0)
	cc, err := dec.Compile(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	bad := &softout.Spec{Clamp: -1}
	raw := Request{Mod: in.Mod, H: in.H, Y: in.Y, Soft: bad}
	if _, err := dec.Decode(raw, Budget{}, rng.New(1)); err == nil {
		t.Fatal("raw request accepted a bad spec")
	}
	if _, err := dec.Decode(Request{CC: cc, Y: in.Y, Soft: bad}, Budget{}, rng.New(1)); err == nil {
		t.Fatal("compiled request accepted a bad spec")
	}
	if _, err := dec.DecodeRun([]Request{raw}, Budget{}, rng.New(1)); err == nil {
		t.Fatal("DecodeRun accepted a bad item spec")
	}
}

// TestDecodeInstanceSoftDefaultsNoiseVar checks a soft request with ground
// truth fills σ² from the instance when the spec leaves it unset.
func TestDecodeInstanceSoftDefaultsNoiseVar(t *testing.T) {
	in := softTestInstance(t, 61, modulation.QPSK, 2, 6)
	req := truthReq(in)
	req.Soft = &softout.Spec{}
	out, err := softTestDecoder(t, 0).Decode(req, Budget{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if out.Distribution == nil {
		t.Fatal("truth request lost its evaluation fields")
	}
	want, err := softTestDecoder(t, 0).Decode(Request{Mod: in.Mod, H: in.H, Y: in.Y,
		Soft: &softout.Spec{NoiseVar: in.NoiseVariance()}}, Budget{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.LLRs, want.LLRs) {
		t.Fatalf("LLRs: instance σ² %v vs explicit σ² %v", out.LLRs, want.LLRs)
	}
}
