package qos

import (
	"testing"

	"quamax/internal/modulation"
)

// TestPlanSoftTargetRelief checks the LLR-aware effective-BER adjustment: a
// soft request plans fewer reads than the same hard request, because the
// soft FEC chain absorbs SoftTargetRelief× the raw error rate.
func TestPlanSoftTargetRelief(t *testing.T) {
	pl := testPlanner(t)
	hard := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 20, TargetBER: 1e-6})
	soft := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 20, TargetBER: 1e-6, Soft: true})
	if !hard.Quantum || !soft.Quantum {
		t.Fatalf("plans: hard %+v soft %+v, want both quantum", hard, soft)
	}
	if soft.Params.NumAnneals >= hard.Params.NumAnneals {
		t.Fatalf("soft plan %d reads not below hard plan %d reads",
			soft.Params.NumAnneals, hard.Params.NumAnneals)
	}
	// (1−0.6)^Na·0.1 ≤ 4e-6 → Na = ceil(log(4e-5)/log(0.4)) — the relieved
	// inversion, checked exactly.
	if want := 12; soft.Params.NumAnneals != want {
		t.Fatalf("soft reads = %d, want %d", soft.Params.NumAnneals, want)
	}
}

// TestPlanSoftNeverReverse checks soft requests plan forward even when the
// reverse operating point is cheaper for the class.
func TestPlanSoftNeverReverse(t *testing.T) {
	pl := testPlanner(t)
	// At 10 dB the reverse mode (P0 = 0.7) beats forward (P0 = 0.2) for hard
	// requests (TestPlanPrefersReverseWhenCheaper); soft must stay forward.
	hard := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 10, TargetBER: 0.05})
	if !hard.Reverse {
		t.Fatalf("hard plan %+v did not pick reverse — test premise broken", hard)
	}
	soft := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 10, TargetBER: 0.05, Soft: true})
	if !soft.Quantum || soft.Reverse {
		t.Fatalf("soft plan %+v, want forward quantum", soft)
	}
}

// TestPlanSoftFloorGuardStillApplies: relief does not resurrect classes
// whose floor exceeds even the relieved target.
func TestPlanSoftFloorGuardStillApplies(t *testing.T) {
	pl := testPlanner(t)
	// Floor at Nt=4, 10 dB is 0.01 (both modes); a 1e-3 target stays
	// unreachable even ×4.
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 10, TargetBER: 1e-3, Soft: true})
	if plan.Quantum || plan.Reason != ReasonFloorAboveTarget {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonFloorAboveTarget)
	}
}

// TestPlannerStatsCountSoft checks the Soft counter.
func TestPlannerStatsCountSoft(t *testing.T) {
	pl := testPlanner(t)
	pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4, Soft: true})
	pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4})
	st := pl.Stats()
	if st.Plans != 2 || st.Soft != 1 {
		t.Fatalf("stats = %+v, want 2 plans, 1 soft", st)
	}
}
