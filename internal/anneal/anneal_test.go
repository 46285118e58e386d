package anneal

import (
	"math"
	"reflect"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/embedding"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []Params{
		{AnnealTimeMicros: 0.5, NumAnneals: 1},                                       // Ta too small
		{AnnealTimeMicros: 301, NumAnneals: 1},                                       // Ta too large
		{AnnealTimeMicros: 1, PauseTimeMicros: -1, NumAnneals: 1},                    // negative pause
		{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0, NumAnneals: 1},   // sp out of range
		{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 1.2, NumAnneals: 1}, // sp out of range
		{AnnealTimeMicros: 1, NumAnneals: 0},                                         // no anneals
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestAnnealWallMicros(t *testing.T) {
	p := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1}
	if p.AnnealWallMicros() != 2 {
		t.Fatalf("wall = %g, want 2 (paper: pause doubles anneal wall time)", p.AnnealWallMicros())
	}
}

func TestRangeSpec(t *testing.T) {
	std := Range(false)
	if std.HMax != 2 || std.JPosMax != 1 || std.JNegMax != 1 {
		t.Fatalf("standard range = %+v", std)
	}
	imp := Range(true)
	if imp.JNegMax != 2 {
		t.Fatalf("improved range should double negative couplers, got %+v", imp)
	}
}

func TestAutoScale(t *testing.T) {
	m := NewMachine()
	in := qubo.NewSparse(2)
	in.H[0] = 1
	in.AddEdge(0, 1, -1)
	if s := m.Scale(in, false); s != 1 {
		t.Fatalf("in-range program scaled by %g", s)
	}
	// A −2 coupler fits only the improved range.
	strong := qubo.NewSparse(2)
	strong.AddEdge(0, 1, -2)
	if s := m.Scale(strong, false); math.Abs(s-2) > 1e-12 {
		t.Fatalf("standard range should scale −2 coupler by 2, got %g", s)
	}
	if s := m.Scale(strong, true); s != 1 {
		t.Fatalf("improved range should accept −2 coupler, got scale %g", s)
	}
	// Oversized field dominates.
	big := qubo.NewSparse(1)
	big.H[0] = 8
	if s := m.Scale(big, false); math.Abs(s-4) > 1e-12 {
		t.Fatalf("|h|=8 should scale by 4, got %g", s)
	}
}

func TestRunDeterministic(t *testing.T) {
	m := NewMachine()
	prog := qubo.NewSparse(6)
	for i := 0; i < 5; i++ {
		prog.AddEdge(i, i+1, -0.5)
	}
	params := Params{AnnealTimeMicros: 1, NumAnneals: 20}
	a, err := m.Run(prog, params, false, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(prog, params, false, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for k := range a[i].Spins {
			if a[i].Spins[k] != b[i].Spins[k] {
				t.Fatal("same seed must reproduce identical samples")
			}
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	m := NewMachine()
	if _, err := m.Run(qubo.NewSparse(0), DefaultParams(), false, rng.New(1)); err == nil {
		t.Fatal("empty program must error")
	}
	prog := qubo.NewSparse(2)
	if _, err := m.Run(prog, Params{}, false, rng.New(1)); err == nil {
		t.Fatal("invalid params must error")
	}
}

// A plain ferromagnetic chain must be solved essentially always.
func TestSolvesFerromagnet(t *testing.T) {
	m := NewMachine()
	m.ICE.Enabled = false
	prog := qubo.NewSparse(16)
	for i := 0; i < 15; i++ {
		prog.AddEdge(i, i+1, -1)
	}
	prog.H[0] = -0.5 // break symmetry: prefer all +1
	samples, err := m.Run(prog, Params{AnnealTimeMicros: 1, NumAnneals: 50}, false, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, s := range samples {
		ok := true
		for _, v := range s.Spins {
			if v != 1 {
				ok = false
			}
		}
		if ok {
			hits++
		}
	}
	if hits < 25 {
		t.Fatalf("ferromagnet ground state found %d/50 times", hits)
	}
}

// End-to-end over the real pipeline: a 4-user BPSK ML problem embedded on
// Chimera must decode noise-free with high probability. This is also the
// calibration guard for the machine constants.
func TestSolvesEmbeddedMIMOProblem(t *testing.T) {
	src := rng.New(9)
	g := chimera.New(4)
	const nt = 4
	mod := modulation.BPSK

	h := channel.RandomPhase{}.Generate(src, nt, nt)
	bits := src.Bits(nt)
	v := mod.MapGrayVector(bits)
	y := linalg.MulVec(h, v)

	logical := reduction.ReduceToIsing(mod, h, y)
	emb, err := embedding.Embed(g, logical.N)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := emb.EmbedIsing(logical, 4.0, true)
	if err != nil {
		t.Fatal(err)
	}
	wantSpins, wantE := qubo.BruteForceIsing(logical)

	m := NewMachine()
	samples, err := m.Run(ep.Phys, Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 100}, true, src)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, s := range samples {
		e, lg, _ := ep.UnembeddedEnergy(s.Spins, src)
		if math.Abs(e-wantE) < 1e-9 {
			hits++
			for i := range lg {
				if lg[i] != wantSpins[i] {
					t.Fatal("ground energy with different spins (unexpected degeneracy)")
				}
			}
		}
	}
	if hits < 30 {
		t.Fatalf("embedded 4-user BPSK ground state found %d/100 times; machine badly calibrated", hits)
	}
}

// The pause must help on a fully-connected spin glass (the paper's Fig. 8
// finding: pausing beats non-pausing even though each anneal costs 2×).
func TestPauseImprovesSuccess(t *testing.T) {
	src := rng.New(10)
	g := chimera.New(4)
	n := 12
	logical := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		logical.H[i] = src.Gauss(0, 0.3)
		for j := i + 1; j < n; j++ {
			logical.SetJ(i, j, src.Gauss(0, 1))
		}
	}
	emb, err := embedding.Embed(g, n)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := emb.EmbedIsing(logical, 3.0, true)
	if err != nil {
		t.Fatal(err)
	}
	_, wantE := qubo.BruteForceIsing(logical)

	m := NewMachine()
	count := func(params Params, seed int64) int {
		samples, err := m.Run(ep.Phys, params, true, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, s := range samples {
			e, _, _ := ep.UnembeddedEnergy(s.Spins, rng.New(1))
			if math.Abs(e-wantE) < 1e-9 {
				hits++
			}
		}
		return hits
	}
	noPause, withPause := 0, 0
	for seed := int64(11); seed < 14; seed++ {
		noPause += count(Params{AnnealTimeMicros: 1, NumAnneals: 300}, seed)
		withPause += count(Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 300}, seed)
	}
	if withPause <= noPause {
		t.Fatalf("pause should improve success: %d (pause) vs %d (no pause) over 900 anneals", withPause, noPause)
	}
}

// A read is a function of its slot and index, not of the worker that ran it:
// forward, reverse and multi-slot runs return the same samples, spin for spin,
// at every worker count. CI runs this under -race -count=10.
func TestSamplesIdenticalAtEveryWorkerCount(t *testing.T) {
	m := NewMachine()
	prog := randSparse(rng.New(3), 40)
	initial := randomSpins(rng.New(4), prog.N)
	params := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 11}
	shared := newSlotRun(m, rng.New(5), true, 24, 16, 30)
	var fwd, rev []Sample
	var slots [][][]int8
	for _, workers := range []int{1, 3, 8} {
		m.Workers = workers
		f, err := m.Run(prog, params, true, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.RunReverse(prog, params, true, initial, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		s := collectSlots(t, m, &sc, shared.slots, params, 7, nil)
		if workers == 1 {
			fwd, rev, slots = f, r, s
			continue
		}
		if !reflect.DeepEqual(f, fwd) || !reflect.DeepEqual(r, rev) || !reflect.DeepEqual(s, slots) {
			t.Fatalf("workers=%d: samples differ from the one-worker run (forward %t, reverse %t, slots %t)", workers,
				reflect.DeepEqual(f, fwd), reflect.DeepEqual(r, rev), reflect.DeepEqual(s, slots))
		}
	}
	if len(fwd) != params.NumAnneals || reflect.DeepEqual(fwd, rev) {
		t.Fatalf("%d forward samples, reverse equal to forward %t", len(fwd), reflect.DeepEqual(fwd, rev))
	}
}
