package precoding

import (
	"context"
	"math"
	"reflect"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/rng"
	"quamax/internal/sched"
)

func testDecoder(t *testing.T, anneals, cache int) *core.Decoder {
	t.Helper()
	d, err := core.New(core.Options{
		Graph:        chimera.New(6),
		Params:       anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: anneals},
		ChannelCache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPrecodeCompiledMatchesRecompile is the precoder-level acceptance
// property: the compiled execute phase chooses bit-identically the same
// perturbation as the recompiling one-shot path on the same (channel, s,
// random stream), across several symbol vectors of one window.
func TestPrecodeCompiledMatchesRecompile(t *testing.T) {
	for _, tc := range []struct {
		mod  modulation.Modulation
		nu   int
		bits int
	}{
		{modulation.QPSK, 4, 1},
		{modulation.QAM16, 3, 1},
		{modulation.BPSK, 4, 2},
	} {
		dec := testDecoder(t, 25, 0)
		prec, err := NewPrecoder(dec, tc.bits)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(601)
		h := channel.Rayleigh{}.Generate(src, tc.nu, tc.nu+1)
		prog, err := prec.Compile(tc.mod, h)
		if err != nil {
			t.Fatal(err)
		}
		for sym := 0; sym < 3; sym++ {
			s := randomSymbols(src, tc.mod, tc.nu)
			want, err := prec.PrecodeRecompile(tc.mod, h, s, rng.New(int64(700+sym)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := prec.Precode(prog, s, rng.New(int64(700+sym)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.V, want.V) {
				t.Fatalf("%v: perturbation %v, want %v", tc.mod, got.V, want.V)
			}
			if got.Gamma != want.Gamma {
				t.Fatalf("%v: gamma %v, want %v (not bit-identical)", tc.mod, got.Gamma, want.Gamma)
			}
			if !reflect.DeepEqual(got.X, want.X) {
				t.Fatalf("%v: transmit vector differs", tc.mod)
			}
			// The reported objective is the Ising energy; it must agree with
			// a direct evaluation of ‖P(s+τV)‖².
			if direct := prog.Gamma(s, got.V); !relClose(got.Gamma, direct, 1e-9) {
				t.Fatalf("%v: gamma %g != direct evaluation %g", tc.mod, got.Gamma, direct)
			}
			if got.ZFGamma != prog.ZFGamma(s) {
				t.Fatalf("%v: ZF baseline mismatch", tc.mod)
			}
		}
	}
}

// TestAnnealedMatchesExhaustive: at a generous read budget on small
// instances, the annealed VP search finds the exhaustive optimum.
func TestAnnealedMatchesExhaustive(t *testing.T) {
	// 3000 reads: enough that even the ill-conditioned Rayleigh draws in
	// this fixed-seed set reach their exhaustive optimum through the
	// simulator's ICE noise and analog range clipping.
	dec := testDecoder(t, 3000, 0)
	prec, err := NewPrecoder(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(603)
	for trial := 0; trial < 3; trial++ {
		for _, tc := range []struct {
			mod modulation.Modulation
			nu  int
		}{
			{modulation.QPSK, 3},
			{modulation.QAM16, 2},
			{modulation.QPSK, 4},
		} {
			h := channel.Rayleigh{}.Generate(src, tc.nu, tc.nu)
			prog, err := prec.Compile(tc.mod, h)
			if err != nil {
				t.Fatal(err)
			}
			s := randomSymbols(src, tc.mod, tc.nu)
			_, ground := qubo.BruteForceIsing(prog.Ising(s))
			res, err := prec.Precode(prog, s, src)
			if err != nil {
				t.Fatal(err)
			}
			if !relClose(res.Gamma, ground, 1e-9) {
				t.Fatalf("%v nu=%d: annealed gamma %g != exhaustive optimum %g",
					tc.mod, tc.nu, res.Gamma, ground)
			}
			if res.Gamma > res.ZFGamma*(1+1e-12) {
				t.Fatalf("%v nu=%d: VP gamma %g worse than channel inversion %g",
					tc.mod, tc.nu, res.Gamma, res.ZFGamma)
			}
		}
	}
}

// TestProblemThroughScheduler proves the VP workload rides the existing pool
// stack unchanged: problems from one program, carrying its window, dispatch
// through a multi-QPU scheduler, solve on the compiled-channel path, and
// decode back to in-alphabet perturbations whose transmit power matches the
// reported energy.
func TestProblemThroughScheduler(t *testing.T) {
	const (
		nu      = 4
		symbols = 8
	)
	mod := modulation.QPSK
	var pool []backend.Backend
	var decs []*core.Decoder
	for i := 0; i < 2; i++ {
		dec := testDecoder(t, 30, 0)
		decs = append(decs, dec)
		pool = append(pool, backend.AnnealerFromDecoder("qpu", dec))
	}
	s, err := sched.New(sched.Config{Pool: pool, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	src := rng.New(603)
	h := channel.Rayleigh{}.Generate(src, nu, nu+2)
	prog, err := Compile(mod, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for sym := 0; sym < symbols; sym++ {
		data := randomSymbols(src, mod, nu)
		p := prog.Problem(data)
		if p.Window != prog.Window() || p.Window.Key() == 0 {
			t.Fatal("problem does not carry the program's window")
		}
		res, err := s.Dispatch(ctx, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		v := AppendPerturbationFromGrayBits(nil, prog.PerturbMod(), res.Bits)
		if len(v) != nu {
			t.Fatalf("perturbation has %d entries", len(v))
		}
		bound := float64(int(1) << (prog.PerturbBits() - 1))
		for _, c := range v {
			if math.Abs(real(c)) > bound || math.Abs(imag(c)) > bound {
				t.Fatalf("perturbation %v outside alphabet", c)
			}
		}
		if direct := prog.Gamma(data, v); !relClose(res.Energy, direct, 1e-9) {
			t.Fatalf("reported energy %g != transmit power %g", res.Energy, direct)
		}
	}
	// The compiled-channel caches saw exactly one distinct channel per
	// decoder that served a keyed problem.
	var misses uint64
	for _, d := range decs {
		st := d.ChannelCacheStats()
		if st.Misses > 1 {
			t.Fatalf("decoder compiled the same window %d times", st.Misses)
		}
		misses += st.Misses
	}
	if misses == 0 {
		t.Fatal("no decoder compiled the window (keyed problems bypassed the compiled path?)")
	}
}
