package sched

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/health"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/softout"
)

// softSchedOptions builds the small-chip decoder options the soft scheduler
// tests run with.
func softSchedOptions() core.Options {
	return core.Options{
		Graph:  chimera.New(6),
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 30},
	}
}

// TestSoftDecodesCountedInStats dispatches soft and hard problems through a
// real annealer pool and checks SoftSolved/LLRSaturations and the LLRs on
// the results.
func TestSoftDecodesCountedInStats(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu0", softSchedOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{qpu}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	softP, _ := testProblem(t, 301, modulation.QPSK, 4)
	softP.Soft = true
	softP.NoiseVar = 0.01
	hardP, _ := testProblem(t, 302, modulation.QPSK, 4)

	res, err := s.Dispatch(ctx, softP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LLRs) != len(res.Bits) {
		t.Fatalf("soft dispatch: %d LLRs for %d bits", len(res.LLRs), len(res.Bits))
	}
	if _, err := s.Dispatch(ctx, hardP, 0); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.SoftSolved != 1 {
		t.Fatalf("SoftSolved = %d, want 1", st.SoftSolved)
	}
	// A noise-free QPSK decode at Na=30 is unanimous: every bit saturates.
	if st.LLRSaturations != uint64(res.LLRSaturated) || res.LLRSaturated == 0 {
		t.Fatalf("LLRSaturations = %d, result saturated %d", st.LLRSaturations, res.LLRSaturated)
	}
}

// TestSoftFallbackCounted routes a soft problem to the classical fallback
// (impossible deadline) and checks the counters and the saturated LLRs.
func TestSoftFallbackCounted(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu0", softSchedOptions())
	if err != nil {
		t.Fatal(err)
	}
	sa := backend.NewClassicalSA("sa", 64, 40)
	s, err := New(Config{Pool: []backend.Backend{qpu}, Fallback: sa, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p, _ := testProblem(t, 311, modulation.QPSK, 4)
	p.Soft = true
	p.LLRClamp = 6
	// One nanosecond cannot fit the annealer's estimate: instant fallback.
	res, err := s.Dispatch(context.Background(), p, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sa" {
		t.Fatalf("expected the fallback to solve, got %q", res.Backend)
	}
	if res.LLRSaturated != len(res.Bits) {
		t.Fatalf("classical fallback: saturated %d of %d bits", res.LLRSaturated, len(res.Bits))
	}
	st := s.Stats()
	if st.SoftSolved != 1 || st.LLRSaturations != uint64(len(res.Bits)) {
		t.Fatalf("fallback soft counters: %+v", st)
	}
}

// TestPlannerSeesSoftFlag checks the dispatch path forwards Soft to the
// planner (via the planner's own Soft counter) on a request the certificate
// cannot answer.
func TestPlannerSeesSoftFlag(t *testing.T) {
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu", est: 100}}, Planner: pl, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := uncertified(t, 321, modulation.QPSK)
	p.Soft = true
	p.TargetBER = 1e-3
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Soft != 1 {
		t.Fatalf("planner Soft counter = %d, want 1", st.Soft)
	}
}

// A soft request with a target is certified like a hard one: answered at
// admission by the clipped search, its LLRs the exact clamped max-log LLRs of
// its spec (scaled by its σ², or unscaled without one; clamped at its own
// clamp or the default) — equal to max-log over every candidate vector, the
// same formula the annealer's ensemble uses — and counted in SoftSolved and
// LLRSaturations like any soft answer. No backend and no planner see it.
func TestSoftRequestCertifiedAtAdmission(t *testing.T) {
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := &fakeBackend{name: "qpu", est: 100}
	s, err := New(Config{Pool: []backend.Backend{pool}, Planner: pl, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var bits, saturated uint64
	for i, window := range noisyProblems(t, 4, 3) {
		for j, p := range window {
			p.Soft = true
			switch (i + j) % 3 {
			case 0:
				p.NoiseVar = 0.05
			case 1:
				p.NoiseVar, p.LLRClamp = 0.02, 3
			}
			res, err := s.Dispatch(context.Background(), p, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend != CertificateBackend || res.Reads != 0 {
				t.Fatalf("window %d symbol %d: served by %q with %d reads, want the certificate", i, j, res.Backend, res.Reads)
			}
			spec := softout.Spec{NoiseVar: p.NoiseVar, Clamp: p.LLRClamp}
			want, wantSat := enumeratedLLRs(p, spec)
			if res.LLRSaturated != wantSat || len(res.LLRs) != len(want) {
				t.Fatalf("window %d symbol %d: %d of %d LLRs saturated, enumeration %d of %d", i, j, res.LLRSaturated, len(res.LLRs), wantSat, len(want))
			}
			for k := range want {
				if math.Abs(res.LLRs[k]-want[k]) > 1e-6 {
					t.Fatalf("window %d symbol %d bit %d: certified LLR %v, enumeration %v", i, j, k, res.LLRs[k], want[k])
				}
			}
			if !slices.Equal(res.Bits, softout.HardDecisions(res.LLRs)) {
				t.Fatalf("window %d symbol %d: bits %v disagree with the LLRs' signs %v", i, j, res.Bits, res.LLRs)
			}
			bits += uint64(len(res.Bits))
			saturated += uint64(res.LLRSaturated)
		}
	}
	st := s.Stats()
	if st.Certified != 12 || st.SoftSolved != 12 || st.LLRSaturations != saturated || saturated == 0 || saturated == bits {
		t.Fatalf("certified %d, soft solved %d, saturations %d (results say %d of %d bits)", st.Certified, st.SoftSolved, st.LLRSaturations, saturated, bits)
	}
	if len(pool.order) != 0 || pl.Stats().Plans != 0 {
		t.Fatalf("the pool ran %d solves and the planner %d plans", len(pool.order), pl.Stats().Plans)
	}
}

// enumeratedLLRs is clamped max-log over every candidate vector of p: per data
// bit, the least ‖y − H·v‖² with that bit 0 and with it 1, through
// softout.LLR. The candidates are counted through like an odometer, the
// residual y − H·v updated by the columns whose symbol changed.
func enumeratedLLRs(p *backend.Problem, spec softout.Spec) ([]float64, int) {
	points := p.Mod.Constellation()
	gray := make([][]byte, len(points))
	for k, pt := range points {
		gray[k] = p.Mod.DemapGray(pt, nil)
	}
	nt, q := p.H.Cols, p.Mod.BitsPerSymbol()
	e := [2][]float64{make([]float64, nt*q), make([]float64, nt*q)}
	for b := range e {
		for k := range e[b] {
			e[b][k] = math.Inf(1)
		}
	}
	idx := make([]int, nt)
	r := slices.Clone(p.Y)
	for i := 0; i < nt; i++ {
		for a := range r {
			r[a] -= p.H.At(a, i) * points[0]
		}
	}
	for {
		var m float64
		for _, v := range r {
			m += real(v)*real(v) + imag(v)*imag(v)
		}
		for i, k := range idx {
			for b, bit := range gray[k] {
				e[bit][i*q+b] = min(e[bit][i*q+b], m)
			}
		}
		i := 0
		for ; i < nt; i++ {
			was := points[idx[i]]
			idx[i] = (idx[i] + 1) % len(points)
			for a := range r {
				r[a] -= p.H.At(a, i) * (points[idx[i]] - was)
			}
			if idx[i] != 0 {
				break
			}
		}
		if i == nt {
			break
		}
	}
	llrs, saturated := make([]float64, nt*q), 0
	for k := range llrs {
		var sat bool
		if llrs[k], sat = softout.LLR(e[0][k], e[1][k], spec); sat {
			saturated++
		}
	}
	return llrs, saturated
}

// A stream of certified soft requests through a scheduler with a burn tracker
// never alerts: a certified LLR that sits at the clamp is one the proof says
// is certain, not a BER risk. (Counted as risks, a cells_mixed_qos-shaped soft
// share — one request in five — would burn the 5% budget four times over and
// shed traffic under -health.) A soft answer a backend saturates still counts.
// Run under -race.
func TestCertifiedSoftAnswersBurnNoBudget(t *testing.T) {
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	burn := health.NewBurnTracker(1)
	s, err := New(Config{
		Pool: []backend.Backend{&fakeBackend{name: "qpu", est: 100}}, Fallback: backend.NewClassicalSA("sa", 16, 4),
		Planner: pl, Burn: burn, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var problems []*backend.Problem
	for _, window := range noisyProblems(t, 8, 8) {
		w := core.NewWindow(window[0].Mod, window[0].H)
		for _, p := range window {
			p.Soft, p.NoiseVar, p.Window = true, 0.05, w
			problems = append(problems, p)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(problems); i += 4 {
				res, err := s.Dispatch(context.Background(), problems[i], time.Hour)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Backend != CertificateBackend || res.LLRSaturated == 0 {
					t.Errorf("request %d: served by %q with %d saturated LLRs, want a certified answer with some", i, res.Backend, res.LLRSaturated)
				}
			}
		}()
	}
	wg.Wait()
	snap := burn.Snapshot()[0]
	if snap.Observed != uint64(len(problems)) || snap.FastBERRate != 0 || snap.SlowBERRate != 0 || snap.Alerting {
		t.Fatalf("burn after %d certified soft answers: %+v", len(problems), snap)
	}
	// A soft answer the SA fallback saturates is still a risk.
	p := uncertified(t, 77, modulation.QPSK)
	p.Soft = true
	if _, err := s.Dispatch(context.Background(), p, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if snap := burn.Snapshot()[0]; snap.FastBERRate == 0 || snap.SlowBERRate == 0 {
		t.Fatalf("a saturated fallback answer fed no BER risk: %+v", snap)
	}
}
