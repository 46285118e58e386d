package sched

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/telemetry"
)

// noisyProblem is an 8×8 QPSK decode at snr dB with its instance.
func noisyProblem(t *testing.T, seed int64, snr float64) (*backend.Problem, *mimo.Instance) {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: modulation.QPSK, Nt: 8, Nr: 8, Channel: channel.Rayleigh{}, SNRdB: snr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y, TargetBER: 1e-3}, in
}

// applyPlan arms the repeat rule on a classical denial and nowhere else: a
// fitted quantum plan and a request without a target run every planned read,
// and the caller's Problem is never written.
func TestApplyPlanArmsTheRepeatRule(t *testing.T) {
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := &fakeBackend{name: "qpu", est: 100}
	with, err := New(Config{Pool: []backend.Backend{pool}, Fallback: &fakeBackend{name: "sa", est: 100}, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	defer with.Close()
	without, err := New(Config{Pool: []backend.Backend{pool}, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	defer without.Close()
	deadline := 50 * time.Millisecond

	fit, _ := noisyProblem(t, 11, 25)
	if q, denied := with.applyPlan(fit, deadline); denied || q.StopRepeats != 0 || q.Anneal == nil {
		t.Fatalf("fitted decode: denied=%v repeats=%d, want a planned budget and no rule", denied, q.StopRepeats)
	}
	untargeted := *fit
	untargeted.TargetBER = 0
	if q, _ := with.applyPlan(&untargeted, deadline); q != &untargeted {
		t.Fatal("a request without a target BER was planned")
	}
	low, _ := noisyProblem(t, 12, 2) // below the fitted range: denied
	if q, denied := with.applyPlan(low, deadline); !denied || q.StopRepeats != qos.StopRepeats || low.StopRepeats != 0 {
		t.Fatalf("denied decode: denied=%v repeats=%d (caller's %d), want %d on a copy", denied, q.StopRepeats, low.StopRepeats, qos.StopRepeats)
	}
	if q, denied := without.applyPlan(low, deadline); !denied || q != low {
		t.Fatalf("denied decode with no fallback and no PT budget: denied=%v, want the caller's problem back", denied)
	}
}

// A precode under the armed stack answers with the γ the unarmed stack gives:
// vector-perturbation searches over a seeded set go through applyPlan to the
// backend it routes them to, armed and uncut on the same stream. (The repeat
// rule on denied precodes changed 5 answers in 710 on the sizing corpus; this
// set is small enough to demand equality.)
func TestPrecodeGammaUnmovedByTheRule(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu", core.Options{AmortizeParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	sa := backend.NewClassicalSA("sa", 128, 100)
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{qpu}, Fallback: sa, Planner: planner, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := rng.New(77)
	ctx := context.Background()
	onSA, saved := 0, 0
	for i := 0; i < 24; i++ {
		h := channel.Rayleigh{}.Generate(src, 8, 8)
		vp, err := precoding.Compile(modulation.QPSK, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		symbols := modulation.QPSK.MapGrayVector(src.Bits(16))
		p := vp.Problem(symbols)
		p.TargetBER = 1e-3
		q, denied := s.applyPlan(p, 50*time.Millisecond)
		be := backend.Backend(qpu)
		if denied {
			be = sa
			onSA++
		}
		uncut := *q
		uncut.StopRepeats = 0
		armed, err := be.Solve(ctx, q, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		full, err := be.Solve(ctx, &uncut, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		saved += full.Reads - armed.Reads
		gamma := func(r *backend.Result) float64 {
			return vp.Gamma(symbols, precoding.PerturbationFromGrayBits(vp.PerturbMod(), r.Bits))
		}
		if ga, gf := gamma(armed), gamma(full); math.Float64bits(ga) != math.Float64bits(gf) || !slices.Equal(armed.Bits, full.Bits) {
			t.Errorf("precode %d on %s: γ %v under the armed stack, %v uncut", i, be.Describe().Name, ga, gf)
		}
	}
	if onSA == 0 || saved == 0 {
		t.Errorf("%d precodes denied to SA, %d restarts saved: the set no longer exercises the repeat rule", onSA, saved)
	}
}

// What the rule did shows in the pool counters and on the trace's solve span:
// reads run beside reads planned per backend, and the solves stopped early —
// all of them on the SA tier, none on the annealer.
func TestStopCountersAndTraceFields(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Config{})
	s, err := New(Config{
		Pool: []backend.Backend{qpu}, Fallback: backend.NewClassicalSA("sa", 64, 40),
		Planner: planner, Telemetry: rec, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var planned, run [2]uint64 // [qpu, sa]
	var stopped uint64
	for i := 0; i < 40; i++ {
		snr := 25.0
		if i%4 == 3 {
			snr = 2 // denied: the SA tier
		}
		p, _ := noisyProblem(t, int64(500+i), snr)
		res, err := s.Dispatch(ctx, p, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		tier := 0
		if res.Backend == "sa" {
			tier = 1
		}
		if res.Reads < 1 || res.Reads > res.ReadsPlanned || (tier == 0 && res.Reads != res.ReadsPlanned) {
			t.Fatalf("request %d on %s: %d of %d reads", i, res.Backend, res.Reads, res.ReadsPlanned)
		}
		planned[tier] += uint64(res.ReadsPlanned)
		run[tier] += uint64(res.Reads)
		if res.Reads < res.ReadsPlanned {
			stopped++
		}
	}
	st := s.Stats()
	if st.StoppedEarly != stopped || stopped == 0 {
		t.Errorf("pool counter stopped early %d, results say %d (want some)", st.StoppedEarly, stopped)
	}
	for tier, name := range []string{"qpu", "sa"} {
		for _, be := range st.Backends {
			if be.Name == name && (be.ReadsPlanned != planned[tier] || be.ReadsRun != run[tier]) {
				t.Errorf("backend %s: reads run/planned %d/%d, results say %d/%d", name, be.ReadsRun, be.ReadsPlanned, run[tier], planned[tier])
			}
		}
	}
	var traced, tracedPlanned [2]uint64
	for _, tr := range rec.Traces() {
		tier := 0
		if tr.Backend == "sa" {
			tier = 1
		}
		traced[tier] += uint64(tr.Reads)
		tracedPlanned[tier] += uint64(tr.ReadsPlanned)
	}
	if traced != run || tracedPlanned != planned {
		t.Errorf("traces carry reads run/planned %v/%v; results say %v/%v", traced, tracedPlanned, run, planned)
	}
}
