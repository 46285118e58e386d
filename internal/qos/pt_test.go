package qos

// Tests for the planner's parallel-tempering fallback sizing: classical
// verdicts carry a PT budget shaped to the request deadline (sweeps shrink
// first, then ladders), and requests whose deadline cannot fit even one
// ladder at the minimum useful sweep count carry no budget at all.

import (
	"slices"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
)

// ptPlanner is a planner with a PT cost model of 1 µs per spin-sweep — round
// numbers so the sizing arithmetic below is exact. For a QPSK Nt=4 request
// (n = 8 spins) one sweep of one 16-rung ladder costs
// 16·8·1·(1+8/64) = 144 µs.
func ptPlanner(t *testing.T) *Planner {
	t.Helper()
	pl := testPlanner(t)
	pl.PT = &PTCost{MicrosPerSpinSweep: 1}
	return pl
}

// classicalReq denies the quantum path via an unreachable floor: the fitted
// QPSK Nt=4 class floors at BER 0.01 at 10 dB, above the 1e-3 target.
func classicalReq(deadlineMicros float64) Request {
	return Request{
		Mod: modulation.QPSK, Nt: 4, SNRdB: 10, TargetBER: 1e-3,
		DeadlineMicros: deadlineMicros,
	}
}

func TestPlanPTDefaultsWithoutDeadline(t *testing.T) {
	pl := ptPlanner(t)
	plan := pl.Plan(classicalReq(0))
	if plan.Quantum || plan.Reason != ReasonFloorAboveTarget {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonFloorAboveTarget)
	}
	want := anneal.PTParams{Rungs: 16, Ladders: 4, Sweeps: 100}
	if plan.PT == nil || plan.PT.Rungs != want.Rungs || plan.PT.Ladders != want.Ladders || plan.PT.Sweeps != want.Sweeps {
		t.Fatalf("PT budget = %+v, want %+v", plan.PT, want)
	}
}

func TestPlanPTSizesSweepsToDeadline(t *testing.T) {
	pl := ptPlanner(t)
	// 28800 µs buys 28800/(144·4) = 50 sweeps across 4 ladders.
	plan := pl.Plan(classicalReq(28800))
	if plan.PT == nil || plan.PT.Ladders != 4 || plan.PT.Sweeps != 50 {
		t.Fatalf("PT budget = %+v, want 4 ladders × 50 sweeps", plan.PT)
	}
	// A huge deadline must not inflate past the configured sweep budget.
	plan = pl.Plan(classicalReq(1e9))
	if plan.PT == nil || plan.PT.Ladders != 4 || plan.PT.Sweeps != 100 {
		t.Fatalf("PT budget = %+v, want the 4×100 default cap", plan.PT)
	}
}

func TestPlanPTShedsLaddersBeforeSweeps(t *testing.T) {
	pl := ptPlanner(t)
	// 1440 µs: 4 ladders buy only 2 sweeps, 3 buy 3, 2 buy 5 — all under the
	// minimum useful count — so the planner sheds down to 1 ladder × 10.
	plan := pl.Plan(classicalReq(1440))
	if plan.PT == nil || plan.PT.Ladders != 1 || plan.PT.Sweeps != 10 {
		t.Fatalf("PT budget = %+v, want 1 ladder × 10 sweeps", plan.PT)
	}
}

func TestPlanPTTooShortDeadlineDropsBudget(t *testing.T) {
	pl := ptPlanner(t)
	// 1008 µs buys 7 sweeps even on a single ladder — below minPTSweeps.
	plan := pl.Plan(classicalReq(1008))
	if plan.Quantum || plan.PT != nil {
		t.Fatalf("plan = %+v, want classical with no PT budget", plan)
	}
}

func TestPlanPTQuantumPlansCarryNone(t *testing.T) {
	pl := ptPlanner(t)
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4})
	if !plan.Quantum || plan.PT != nil {
		t.Fatalf("plan = %+v, want quantum with no PT budget", plan)
	}
}

func TestPlanPTAbsentCostModel(t *testing.T) {
	pl := testPlanner(t) // no PT cost model installed
	plan := pl.Plan(classicalReq(28800))
	if plan.Quantum || plan.PT != nil {
		t.Fatalf("plan = %+v, want classical with no PT budget", plan)
	}
}

func TestPlannerStatsCountPT(t *testing.T) {
	pl := ptPlanner(t)
	pl.Plan(classicalReq(0))    // classical + PT budget
	pl.Plan(classicalReq(1008)) // classical, deadline too short for PT
	st := pl.Stats()
	if st.Classical != 2 || st.PT != 1 {
		t.Fatalf("stats = %+v, want 2 classical with 1 PT budget", st)
	}
	if i := slices.IndexFunc(st.Samples(), func(s metrics.Sample) bool { return s.Name == "quamax_planner_pt_total" }); i < 0 || st.Samples()[i].Value != 1 {
		t.Fatalf("samples %+v do not carry pt = 1", st.Samples())
	}
}
