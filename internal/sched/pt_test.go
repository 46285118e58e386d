package sched

// A PT-aware planner's replica-exchange budget must travel with the problem
// through the scheduler to the classical side, and never leak onto the
// quantum path or into the caller's Problem. The requests are uncertified:
// one the certificate search finishes is answered at admission and never
// meets the planner.

import (
	"context"
	"testing"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/modulation"
	"quamax/internal/qos"
)

func ptAwarePlanner(t *testing.T) *qos.Planner {
	t.Helper()
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	pl.PT = &qos.PTCost{MicrosPerSpinSweep: backend.DefaultPTMicrosPerSpinSweep}
	return pl
}

func TestPlannerDenialCarriesPTBudgetToFallback(t *testing.T) {
	pool := &fakeBackend{name: "qpu", est: 100}
	fb := &fakeBackend{name: "pt", est: 10}
	s, err := New(Config{Pool: []backend.Backend{pool}, Fallback: fb, Planner: ptAwarePlanner(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 16-QAM is not in the table: denied to the fallback, but with a
	// deadline-sized replica-exchange budget attached.
	p := uncertified(t, 911, modulation.QAM16)
	p.TargetBER = 1e-3
	res, err := s.Dispatch(context.Background(), p, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "pt" {
		t.Fatalf("dispatched to %q, want planner-denied fallback", res.Backend)
	}
	if p.PT != nil {
		t.Fatal("Dispatch mutated the caller's Problem")
	}
	fb.mu.Lock()
	served := fb.order[0]
	fb.mu.Unlock()
	want := anneal.PTParams{Rungs: 16, Ladders: 4, Sweeps: 100}
	if served.PT == nil || served.PT.Rungs != want.Rungs || served.PT.Ladders != want.Ladders || served.PT.Sweeps != want.Sweeps {
		t.Fatalf("fallback saw PT=%+v, want the generous-deadline budget %+v", served.PT, want)
	}
}

func TestQuantumPlanCarriesNoPTBudget(t *testing.T) {
	f := &fakeBackend{name: "qpu", est: 100}
	s, err := New(Config{Pool: []backend.Backend{f}, Planner: ptAwarePlanner(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := uncertified(t, 912, modulation.QPSK)
	p.TargetBER = 1e-3
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	served := f.order[0]
	f.mu.Unlock()
	if served.Anneal == nil || served.PT != nil {
		t.Fatalf("backend saw Anneal=%+v PT=%+v, want an anneal budget and no PT budget", served.Anneal, served.PT)
	}
}
