package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/health"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// healthFake is a deterministic backend for health-plane tests: traffic
// solves report a stable quality signature (deep energies, 2% chain breaks),
// and canary probes (recognizable as the plane's fixed BPSK instance — test
// traffic is QPSK) are answered at the ground anchor, so an unarmed backend
// always passes them. Wrapped in a backend.Degrader, the armed fault profile
// corrupts both.
type healthFake struct {
	name    string
	traffic atomic.Uint64
}

func (f *healthFake) Describe() *backend.Capabilities {
	return &backend.Capabilities{
		Name:    f.name,
		Latency: func(*backend.Problem) float64 { return 50 },
	}
}

func (f *healthFake) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	if p.Mod == modulation.BPSK {
		return &backend.Result{Bits: []byte{0}, Backend: f.name, Batched: 1, Energy: 0, Reads: 100}, nil
	}
	f.traffic.Add(1)
	// Hold the worker long enough that a request dispatched alongside this
	// one finds it busy and wakes the other pool member: a solve that
	// answers at once lets one hot worker drain every pair.
	time.Sleep(200 * time.Microsecond)
	return &backend.Result{
		Bits: []byte{0}, Backend: f.name, Batched: 1,
		Energy: -50, Reads: 100, BrokenChains: 2,
	}, nil
}

// The health plane end to end: an armed fault injector drifts one pool
// member's anneal quality, the tracker walks it Degraded → Quarantined
// within a bounded number of solves, the scheduler reroutes all traffic to
// the healthy member with zero client-visible failures, and after the fault
// clears, canary probes re-admit the backend into the rotation.
func TestHealthFaultInjectionEndToEnd(t *testing.T) {
	sickInner := &healthFake{name: "sick"}
	sick := backend.NewDegrader(sickInner, backend.DegraderFaults{
		ChainBreakRate: 0.5, // 2% → 52% broken chains per read
		EnergyDrift:    0.5, // −50 → −25 best energy; canary 0 → +0.5 (out of tolerance)
	})
	okInner := &healthFake{name: "ok"}
	tracker := health.NewTracker(health.Config{})
	burn := health.NewBurnTracker(1)
	s, err := New(Config{
		Pool:   []backend.Backend{sick, okInner},
		Health: tracker,
		Burn:   burn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p, _ := testProblem(t, 1, modulation.QPSK, 4)
	// dispatch serves n requests two at a time: sequential dispatch would
	// let a single hot worker drain everything, and the point here is that
	// both pool members carry traffic.
	dispatch := func(n int) {
		t.Helper()
		for i := 0; i < n; i += 2 {
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for k := 0; k < 2; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					_, errs[k] = s.Dispatch(context.Background(), p, 0)
				}(k)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("dispatch failed: %v", err)
				}
			}
		}
	}

	// Phase 1 — baseline: both members serve and build reference windows
	// deep enough for the detector to engage.
	for i := 0; i < 50 && sickInner.traffic.Load() < health.DefaultMinWindow; i++ {
		dispatch(2)
	}
	if sickInner.traffic.Load() < health.DefaultMinWindow {
		t.Fatalf("sick member served %d baseline requests, want ≥ %d", sickInner.traffic.Load(), health.DefaultMinWindow)
	}
	if got := tracker.State("sick"); got != metrics.HealthHealthy {
		t.Fatalf("baseline state %v, want Healthy", got)
	}
	if sickInner.traffic.Load() == 0 || okInner.traffic.Load() == 0 {
		t.Fatalf("baseline traffic did not reach both members (sick=%d ok=%d)",
			sickInner.traffic.Load(), okInner.traffic.Load())
	}

	// Phase 2 — detection: arm the faults and keep serving. Detection is
	// bounded: each drifted solve scores well past DefaultPHDelta (the Degraded →
	// Quarantined rungs are asserted per-observation in internal/health), so
	// quarantine lands within a few sick-served solves — 60 dispatches
	// shared across two workers is generous margin.
	sick.SetDegraded(true)
	quarantined := false
	for i := 0; i < 30 && !quarantined; i++ {
		dispatch(2)
		quarantined = tracker.State("sick") == metrics.HealthQuarantined
	}
	if !quarantined {
		t.Fatalf("sick backend not quarantined within 60 dispatches (state %v, score %.2f)",
			tracker.State("sick"), tracker.Score("sick"))
	}

	// Phase 3 — reroute: with sick quarantined, traffic flows only to the
	// healthy member and nothing fails — the clients see the pool minus its
	// lost capacity, not the fault.
	sickBefore := sickInner.traffic.Load()
	dispatch(30)
	if got := sickInner.traffic.Load(); got != sickBefore {
		t.Fatalf("quarantined backend served %d requests", got-sickBefore)
	}
	st := s.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d client-visible failures during quarantine", st.Failed)
	}
	if burn.Snapshot()[0].Observed == 0 {
		t.Fatal("burn tracker saw no requests")
	}
	if burn.Alerting(0) {
		t.Fatal("no-deadline traffic burned the SLO budget")
	}

	// While armed, canary probes fail (the injected energy lift pushes the
	// probe result out of tolerance), so the backend stays out through as
	// many probes as a passing streak would need, one DefaultCanaryInterval
	// apart.
	canaryFails := func() uint64 {
		for _, b := range tracker.Snapshot() {
			if b.Name == "sick" {
				return b.CanaryFail
			}
		}
		return 0
	}
	waitFor(t, "armed canary probes", func() bool {
		return canaryFails() >= health.DefaultCanaryPasses
	})
	if got := tracker.State("sick"); got != metrics.HealthQuarantined {
		t.Fatalf("armed backend re-admitted (state %v)", got)
	}

	// Phase 4 — recovery: clear the fault; the gate worker's canary probes
	// re-admit the backend and it rejoins the rotation.
	sick.SetDegraded(false)
	waitFor(t, "canary re-admission", func() bool {
		return tracker.State("sick") == metrics.HealthHealthy
	})
	var sn metrics.BackendHealth
	for _, b := range tracker.Snapshot() {
		if b.Name == "sick" {
			sn = b
		}
	}
	if sn.CanaryPass < uint64(health.DefaultCanaryPasses) {
		t.Fatalf("re-admitted with %d canary passes, want ≥ %d", sn.CanaryPass, health.DefaultCanaryPasses)
	}
	if sn.CanaryFail == 0 {
		t.Error("armed canary probes never failed")
	}
	rejoined := sickInner.traffic.Load()
	waitFor(t, "re-admitted backend serving", func() bool {
		dispatch(2)
		return sickInner.traffic.Load() > rejoined
	})
	assertReconciled(t, s)
}

// A fully-quarantined pool keeps serving: the AnyServing guard un-gates
// every member rather than starving the queue.
func TestHealthAllQuarantinedStillServes(t *testing.T) {
	inner := &healthFake{name: "only"}
	deg := backend.NewDegrader(inner, backend.DegraderFaults{FailEvery: 1})
	tracker := health.NewTracker(health.Config{})
	s, err := New(Config{Pool: []backend.Backend{deg}, Health: tracker})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p, _ := testProblem(t, 2, modulation.QPSK, 4)
	// Two injected failures quarantine the only member.
	deg.SetDegraded(true)
	for i := 0; i < 2; i++ {
		if _, err := s.Dispatch(context.Background(), p, 0); err == nil {
			t.Fatal("injected fault did not surface")
		}
	}
	waitFor(t, "quarantine on failures", func() bool {
		return tracker.State("only") == metrics.HealthQuarantined
	})
	// Heal the device (its verdict is still Quarantined — no canaries can
	// run, there is no healthy member to cover while probing): the pool
	// must serve anyway.
	deg.SetDegraded(false)
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatalf("all-quarantined pool refused to serve: %v", err)
	}
	assertReconciled(t, s)
}
