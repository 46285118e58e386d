package sched

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/health"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/qos"
	"quamax/internal/rng"
)

// Dispatch calls a problem's Handoff exactly once before it waits, and never
// when admission answers. The lifecycle scheduler steers one request down
// each route. The solve that serves it, on a pool worker or on Dispatch's own
// goroutine, holds until the hook releases it, so a call made after the wait
// or the solve never comes; and the hook reads Stats, so a call made under
// the scheduler's lock deadlocks. Either shows as a Dispatch that does not
// return.
func TestHandoffOnceBeforeBlocking(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	pool := &lifecycleBackend{fakeBackend: fakeBackend{name: "qpu", est: 100, cost: backend.DefaultQPUCostModel}}
	fb := &lifecycleBackend{fakeBackend: fakeBackend{name: "fb", est: 10, cost: backend.DefaultClassicalCostModel}}
	s, err := New(Config{Pool: []backend.Backend{pool}, Fallback: fb, Planner: pl, CostAware: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for r := routeQueue; r <= routeCertified; r++ {
		p, deadline := lifecycleRequest(t, r, 1100+int64(r))
		hold := make(chan struct{})
		be := fb
		if r == routeQueue {
			be = pool
		}
		if r != routeCertified {
			be.hold.Store(&hold)
		}
		var calls atomic.Int32
		p.Handoff = func() {
			calls.Add(1)
			s.Stats()
			close(hold)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Dispatch(context.Background(), p, deadline)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("route %v: %v", r, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("route %v: Dispatch still waiting after 5 s (%d hand-off calls)", r, calls.Load())
		}
		want := int32(1)
		if r == routeCertified {
			want = 0
		}
		if got := calls.Load(); got != want {
			t.Errorf("route %v: %d hand-off calls, want %d", r, got, want)
		}
		if be.hold.Load() != nil {
			t.Errorf("route %v: served by another backend than steered to", r)
			be.hold.Store(nil)
		}
	}
	st := s.Stats()
	if st.Certified != 1 || st.FallbackDispatches != 3 || st.PlannerClassical != 1 {
		t.Fatalf("certified/fallbacks/denied = %d/%d/%d, want 1/3/1: a request left its route",
			st.Certified, st.FallbackDispatches, st.PlannerClassical)
	}
}

// A precode's solve is scored in a class of its own: its lattice search's
// best energies share no reference with the uplink decodes of its
// perturbation alphabet (4-user 1-bit VP runs on 4-user QPSK). Replayed as
// quamax-serve -health -backends sa serves it — an annealer and SA in the
// pool, SA the fallback — 40 noise-free by-handle 4×4 QPSK decodes with a
// precode after each of the last 20 leave both members Healthy. Scored in
// the uplink class, the precodes' energies read as drift and quarantine
// both.
func TestPrecodesScoredInTheirOwnClass(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sa := backend.NewClassicalSA("sa", 128, 100)
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	tracker := health.NewTracker(health.Config{})
	s, err := New(Config{Pool: []backend.Backend{qpu, sa}, Fallback: sa, Planner: pl, Health: tracker, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const mod, users = modulation.QPSK, 4
	src := rng.New(49)
	cfg := mimo.Config{Mod: mod, Nt: users, Nr: users, Channel: channel.RandomPhase{}, SNRdB: math.Inf(1)}
	first, err := mimo.Generate(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWindow(mod, first.H)
	vp, err := precoding.Compile(mod, first.H, precoding.DefaultPerturbBits)
	if err != nil {
		t.Fatal(err)
	}
	dispatch := func(p *backend.Problem) {
		t.Helper()
		if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		in, err := mimo.FromParts(src, cfg, first.H, src.Bits(users*mod.BitsPerSymbol()))
		if err != nil {
			t.Fatal(err)
		}
		dispatch(&backend.Problem{Mod: mod, H: w.Channel(), Y: in.Y, Window: w})
		if i >= 20 {
			dispatch(vp.Problem(in.TxSymbols))
		}
	}
	for _, name := range []string{"qpu0", "sa"} {
		if st := tracker.State(name); st != metrics.HealthHealthy {
			t.Errorf("%s is %v after healthy decodes and precodes, want Healthy", name, st)
		}
	}
	for _, h := range tracker.Snapshot() {
		t.Logf("%s: %v, %d observations, score %.2f", h.Name, h.State, h.Observations, h.Score)
	}
}
