package core

import (
	"math"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/linalg"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// reverseReq is truthReq asking for a reverse anneal.
func reverseReq(in *mimo.Instance) Request {
	req := truthReq(in)
	req.Reverse = true
	return req
}

// zfSeed exposes the pipeline's reverse-anneal start state for in.
func zfSeed(d *Decoder, in *mimo.Instance) ([]int8, error) {
	req := reverseReq(in)
	cc, _, _, err := d.resolve(&req, new(scratch))
	if err != nil {
		return nil, err
	}
	return linearSeed(cc, &req)
}

func TestReverseDecodeRecoversNoiseFree(t *testing.T) {
	d := smallDecoder(t, anneal.Params{
		AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 60,
	})
	src := rng.New(301)
	in := genInstance(t, src, modulation.QPSK, 6, math.Inf(1))
	out, err := d.Decode(reverseReq(in), Budget{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if errs := in.BitErrors(out.Bits); errs != 0 {
		t.Fatalf("reverse decode: %d bit errors noise-free", errs)
	}
	if out.Energy > 1e-9 {
		t.Fatalf("reverse decode energy %g, want 0", out.Energy)
	}
}

// Reverse annealing can never be worse than its linear seed: the seed is in
// the candidate set.
func TestReverseNeverWorseThanZF(t *testing.T) {
	d := smallDecoder(t, anneal.Params{
		AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 30,
	})
	src := rng.New(302)
	for trial := 0; trial < 5; trial++ {
		in := genInstance(t, src, modulation.BPSK, 10, 12)
		out, err := d.Decode(reverseReq(in), Budget{}, src)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := zfSeed(d, in)
		if err != nil {
			t.Fatal(err)
		}
		logicalSeedE := func() float64 {
			// Recompute via ML metric of the seed symbols.
			qb := make([]byte, len(seed))
			for i, s := range seed {
				if s > 0 {
					qb[i] = 1
				}
			}
			v := make([]complex128, in.Nt)
			q := in.Mod.BitsPerSymbol()
			for u := 0; u < in.Nt; u++ {
				v[u] = in.Mod.QuAMaxTransform(qb[u*q : (u+1)*q])
			}
			return linalg.Norm2(linalg.VecSub(in.Y, linalg.MulVec(in.H, v)))
		}()
		if out.Energy > logicalSeedE+1e-9 {
			t.Fatalf("trial %d: reverse energy %g worse than ZF seed %g", trial, out.Energy, logicalSeedE)
		}
	}
}

// Reverse annealing from the ZF seed refines poor-SNR decisions: over a set
// of square-channel instances it must strictly improve on zero-forcing's
// total bit errors.
func TestReverseImprovesOnZFAtLowSNR(t *testing.T) {
	d := smallDecoder(t, anneal.Params{
		AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 60,
	})
	src := rng.New(303)
	var zfErrs, revErrs int
	for trial := 0; trial < 8; trial++ {
		in, err := mimo.Generate(src, mimo.Config{
			Mod: modulation.BPSK, Nt: 10, Nr: 10, Channel: channel.Rayleigh{}, SNRdB: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		seed, err := zfSeed(d, in)
		if err != nil {
			continue
		}
		qb := make([]byte, len(seed))
		for i, s := range seed {
			if s > 0 {
				qb[i] = 1
			}
		}
		zfErrs += in.BitErrors(in.Mod.PostTranslate(qb))
		out, err := d.Decode(reverseReq(in), Budget{}, src)
		if err != nil {
			t.Fatal(err)
		}
		revErrs += in.BitErrors(out.Bits)
	}
	if revErrs >= zfErrs {
		t.Fatalf("reverse annealing (%d errors) should improve on its ZF seed (%d errors)", revErrs, zfErrs)
	}
}

func TestReverseValidation(t *testing.T) {
	d := smallDecoder(t, anneal.Params{AnnealTimeMicros: 1, NumAnneals: 5})
	in := genInstance(t, rng.New(304), modulation.BPSK, 4, 20)
	if _, err := d.Decode(reverseReq(in), Budget{}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	// No pause position → reverse annealing has no turning point.
	if _, err := d.Decode(reverseReq(in), Budget{}, rng.New(1)); err == nil {
		t.Fatal("missing turning point accepted")
	}
}

func TestReverseOnDW2QSize(t *testing.T) {
	// Sanity at a paper-scale size on the real chip model.
	d, err := New(Options{
		Graph: chimera.DW2Q(),
		Params: anneal.Params{
			AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 30,
		},
		JF: 4, ImprovedRange: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(306)
	in := genInstance(t, src, modulation.BPSK, 36, 20)
	out, err := d.Decode(reverseReq(in), Budget{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Bits) != 36 {
		t.Fatalf("decoded %d bits", len(out.Bits))
	}
}
