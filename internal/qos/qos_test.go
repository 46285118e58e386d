package qos

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// testTable is a small hand-built fit: QPSK at Nt ∈ {4, 8}, 10–30 dB, with
// a reverse mode at Nt=4 that needs fewer reads at low SNR.
func testTable() *Table {
	return &Table{
		Ops: []ClassOp{{Mod: "QPSK", JF: 4, Ta: 1, Tp: 1, Sp: 0.35}},
		Points: []Point{
			{Mod: "QPSK", Nt: 4, SNRdB: 10, Mode: ModeForward, P0: 0.2, FloorBER: 0.01, SpreadBER: 0.2},
			{Mod: "QPSK", Nt: 4, SNRdB: 20, Mode: ModeForward, P0: 0.6, FloorBER: 0, SpreadBER: 0.1},
			{Mod: "QPSK", Nt: 4, SNRdB: 30, Mode: ModeForward, P0: 0.9, FloorBER: 0, SpreadBER: 0.05},
			{Mod: "QPSK", Nt: 4, SNRdB: 10, Mode: ModeReverse, P0: 0.7, FloorBER: 0.01, SpreadBER: 0.2},
			{Mod: "QPSK", Nt: 8, SNRdB: 10, Mode: ModeForward, P0: 0.1, FloorBER: 0.02, SpreadBER: 0.25},
			{Mod: "QPSK", Nt: 8, SNRdB: 30, Mode: ModeForward, P0: 0.7, FloorBER: 0, SpreadBER: 0.08},
		},
	}
}

func testPlanner(t *testing.T) *Planner {
	t.Helper()
	pl, err := NewPlanner(testTable())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPlanSizesReadsToTarget(t *testing.T) {
	pl := testPlanner(t)
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4})
	if !plan.Quantum || plan.Reason != ReasonFit {
		t.Fatalf("plan = %+v, want quantum fit", plan)
	}
	// (1−0.9)^Na · 0.05 ≤ 1e-4 → Na = ceil(log(2e-3)/log(0.1)) = 3.
	if plan.Params.NumAnneals != 3 {
		t.Fatalf("reads = %d, want 3", plan.Params.NumAnneals)
	}
	if plan.PredictedBER > 1e-4 {
		t.Fatalf("predicted BER %g above target", plan.PredictedBER)
	}
	if want := 3 * 2.0; plan.PredictedMicros != want {
		t.Fatalf("predicted device time %g µs, want %g", plan.PredictedMicros, want)
	}

	// A tighter target at lower SNR needs more reads.
	harder := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 20, TargetBER: 1e-6})
	if !harder.Quantum || harder.Params.NumAnneals <= plan.Params.NumAnneals {
		t.Fatalf("harder plan %+v not larger than easy plan %+v", harder, plan)
	}
}

func TestPlanDeadlineShorterThanOneAnneal(t *testing.T) {
	pl := testPlanner(t)
	// The class operating point is Ta+Tp = 2 µs; a 1 µs deadline cannot fit
	// a single anneal.
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-3, DeadlineMicros: 1})
	if plan.Quantum || plan.Reason != ReasonDeadlineBelowAnneal {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonDeadlineBelowAnneal)
	}
}

func TestPlanDeadlineCapsReads(t *testing.T) {
	pl := testPlanner(t)
	// Needs 3 reads (6 µs) at 30 dB; a 4 µs deadline fits only 2.
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4, DeadlineMicros: 4})
	if plan.Quantum || plan.Reason != ReasonDeadlineExceeded {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonDeadlineExceeded)
	}
	// A deadline that fits the budget passes through.
	plan = pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4, DeadlineMicros: 6})
	if !plan.Quantum || plan.Params.NumAnneals != 3 {
		t.Fatalf("plan = %+v, want 3-read quantum plan", plan)
	}
}

func TestPlanSNRBelowFittedRange(t *testing.T) {
	pl := testPlanner(t)
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 3, TargetBER: 1e-3})
	if plan.Quantum || plan.Reason != ReasonSNRBelowFit {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonSNRBelowFit)
	}
	// Above the fitted range clamps to the top point instead.
	plan = pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 60, TargetBER: 1e-3})
	if !plan.Quantum {
		t.Fatalf("plan above fit range = %+v, want quantum", plan)
	}
}

func TestPlanOversizedNt(t *testing.T) {
	pl := testPlanner(t)
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 64, SNRdB: 30, TargetBER: 1e-3})
	if plan.Quantum || plan.Reason != ReasonOversizeNt {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonOversizeNt)
	}
	// Between fitted sizes, the planner rounds Nt up (conservative): Nt=6
	// plans from the Nt=8 curve, whose 30 dB point has p0=0.7, spread=0.08:
	// (0.3)^Na·0.08 ≤ 1e-3 → Na = ceil(log(0.0125)/log(0.3)) = 4.
	plan = pl.Plan(Request{Mod: modulation.QPSK, Nt: 6, SNRdB: 30, TargetBER: 1e-3})
	if !plan.Quantum || plan.Params.NumAnneals != 4 {
		t.Fatalf("plan = %+v, want 4 reads from the Nt=8 curve", plan)
	}
}

func TestPlanUnfittedModulation(t *testing.T) {
	pl := testPlanner(t)
	plan := pl.Plan(Request{Mod: modulation.QAM64, Nt: 2, SNRdB: 30, TargetBER: 1e-3})
	if plan.Quantum || plan.Reason != ReasonUnfittedClass {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonUnfittedClass)
	}
}

func TestPlanFloorAboveTarget(t *testing.T) {
	pl := testPlanner(t)
	// The 10 dB floor is 0.01; a 1e-3 target can never converge there.
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 10, TargetBER: 1e-3})
	if plan.Quantum || plan.Reason != ReasonFloorAboveTarget {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonFloorAboveTarget)
	}
}

func TestPlanPrefersReverseWhenCheaper(t *testing.T) {
	pl := testPlanner(t)
	// At 10 dB / Nt=4 the reverse fit (p0=0.7) dominates the forward one
	// (p0=0.2) for a target above the shared 0.01 floor.
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 10, TargetBER: 0.05})
	if !plan.Quantum || !plan.Reverse {
		t.Fatalf("plan = %+v, want reverse quantum plan", plan)
	}
}

func TestPlanNoTargetUsesDefaultBudget(t *testing.T) {
	pl := testPlanner(t)
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 20})
	if !plan.Quantum || plan.Reason != ReasonNoTarget || plan.Params.NumAnneals != 100 {
		t.Fatalf("plan = %+v, want 100-read default budget", plan)
	}
}

func TestPlanReadsCap(t *testing.T) {
	pl := testPlanner(t)
	pl.MaxReads = 5
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 8, SNRdB: 10, TargetBER: 0.021})
	if plan.Quantum || plan.Reason != ReasonReadsCap {
		t.Fatalf("plan = %+v, want classical %s", plan, ReasonReadsCap)
	}
}

func TestPlannerStats(t *testing.T) {
	pl := testPlanner(t)
	pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4})
	pl.Plan(Request{Mod: modulation.QPSK, Nt: 64, SNRdB: 30, TargetBER: 1e-3})
	st := pl.Stats()
	if st.Plans != 2 || st.Quantum != 1 || st.Classical != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ReadsPlanned != 3 || st.ByReason[ReasonFit] != 1 || st.ByReason[ReasonOversizeNt] != 1 {
		t.Fatalf("stats detail = %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats rendering")
	}
	// The exported series say the same, split by the verdict each reason
	// implies: per verdict they add up to the Quantum/Classical counters.
	pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30}) // no target: quantum at the default budget
	st = pl.Stats()
	got, byVerdict := map[string]float64{}, map[string]uint64{}
	for _, s := range metrics.Collect(st.Samples()) {
		verdict, _ := s.Label("verdict")
		reason, _ := s.Label("reason")
		got[s.Name+"/"+verdict+"/"+reason] = s.Value
		byVerdict[verdict] += uint64(s.Value)
	}
	want := map[string]float64{
		"quamax_planner_decisions_total/quantum/" + ReasonFit:          1,
		"quamax_planner_decisions_total/quantum/" + ReasonNoTarget:     1,
		"quamax_planner_decisions_total/classical/" + ReasonOversizeNt: 1,
		"quamax_planner_reads_planned_total//":                         float64(st.ReadsPlanned),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planner samples %v, want %v", got, want)
	}
	if byVerdict["quantum"] != st.Quantum || byVerdict["classical"] != st.Classical {
		t.Fatalf("decisions by verdict %v disagree with %+v", byVerdict, st)
	}
}

func TestTableSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tts.json")
	want := testTable()
	want.Note = "round trip"
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != want.Note || len(got.Points) != len(want.Points) || len(got.Ops) != len(want.Ops) {
		t.Fatalf("loaded %+v", got)
	}
	if got.Points[0] != want.Points[0] {
		t.Fatalf("point drift: %+v vs %+v", got.Points[0], want.Points[0])
	}
}

func TestBuiltinTableValidates(t *testing.T) {
	tab := BuiltinTable()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// The builtin fit must cover the serving classes the examples and
	// benchmarks rely on.
	for _, c := range []struct {
		mod modulation.Modulation
		nt  int
	}{{modulation.BPSK, 8}, {modulation.QPSK, 8}, {modulation.QAM16, 4}} {
		if _, ok, reason := tab.classCurve(c.mod, c.nt, ModeForward); !ok {
			t.Fatalf("builtin table misses %v nt=%d: %s", c.mod, c.nt, reason)
		}
	}
}

// Calibrate on a small chip and grid must produce a usable, monotone-ish fit
// the planner can serve from.
func TestCalibrateSmokeAndPlanFromFit(t *testing.T) {
	tab, err := Calibrate(CalibrationConfig{
		Classes: []ClassSpec{{
			Mod: modulation.QPSK, Nts: []int{2}, SNRsDB: []float64{15, 30},
		}},
		Instances:    3,
		MeasureReads: 60,
		Reverse:      true,
		Graph:        chimera.New(4),
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Points) < 2 {
		t.Fatalf("calibration produced %d points", len(tab.Points))
	}
	for _, p := range tab.Points {
		if p.P0 <= 0 {
			t.Fatalf("point %+v: non-positive p0 (4-user QPSK at ≥15 dB should sample its best rank)", p)
		}
	}
	pl, err := NewPlanner(tab)
	if err != nil {
		t.Fatal(err)
	}
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 2, SNRdB: 30, TargetBER: 1e-3})
	if !plan.Quantum || plan.Params.NumAnneals < 1 {
		t.Fatalf("plan from fresh fit = %+v", plan)
	}
}

func TestEstimateSNRdB(t *testing.T) {
	src := rng.New(11)
	for _, snr := range []float64{15, 25} {
		var got []float64
		for i := 0; i < 12; i++ {
			in, err := mimo.Generate(src, mimo.Config{
				Mod: modulation.QPSK, Nt: 4, Nr: 4,
				Channel: channel.RandomPhase{}, SNRdB: snr,
			})
			if err != nil {
				t.Fatal(err)
			}
			est, ok := EstimateSNRdB(in.Mod, in.H, in.Y)
			if !ok {
				t.Fatal("estimator failed on a well-conditioned channel")
			}
			got = append(got, est)
		}
		var mean float64
		for _, g := range got {
			mean += g
		}
		mean /= float64(len(got))
		if math.Abs(mean-snr) > 6 {
			t.Fatalf("mean SNR estimate %.1f dB for true %g dB", mean, snr)
		}
	}
}

func TestEstimateSNRdBNoiseFree(t *testing.T) {
	in, err := mimo.Generate(rng.New(3), mimo.Config{
		Mod: modulation.QPSK, Nt: 2, Nr: 2,
		Channel: channel.RandomPhase{}, SNRdB: math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	est, ok := EstimateSNRdB(in.Mod, in.H, in.Y)
	if !ok || est < 60 {
		t.Fatalf("noise-free estimate = %g, ok=%t", est, ok)
	}
}

func TestEstimateSNRdBSingularChannel(t *testing.T) {
	h := linalg.NewMat(2, 2) // all-zero channel: ZF must fail
	if _, ok := EstimateSNRdB(modulation.QPSK, h, []complex128{0, 0}); ok {
		t.Fatal("estimator claimed success on a singular channel")
	}
}

func TestPlanCarriesClassChainStrength(t *testing.T) {
	pl, err := NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The builtin 16-QAM fit was measured at |J_F| = 12; the plan must say
	// so or the model's statistics do not apply to the run.
	plan := pl.Plan(Request{Mod: modulation.QAM16, Nt: 2, SNRdB: 30, TargetBER: 0.05})
	if !plan.Quantum || plan.JF != 12 {
		t.Fatalf("plan = %+v, want quantum with JF=12", plan)
	}
	plan = pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 0.05})
	if !plan.Quantum || plan.JF != 4 {
		t.Fatalf("plan = %+v, want quantum with JF=4", plan)
	}
}

func TestPlanDenialCarriesBestEffortBudget(t *testing.T) {
	pl := testPlanner(t)
	// Needs 3 reads (6 µs) at 30 dB; a 4 µs deadline fits only 2 — denied,
	// but the clamped 2-read budget rides along for fallback-less pools.
	plan := pl.Plan(Request{Mod: modulation.QPSK, Nt: 4, SNRdB: 30, TargetBER: 1e-4, DeadlineMicros: 4})
	if plan.Quantum || plan.Reason != ReasonDeadlineExceeded {
		t.Fatalf("plan = %+v, want denial", plan)
	}
	if plan.Params.NumAnneals != 2 || plan.JF != 4 {
		t.Fatalf("denial best-effort budget = %+v, want 2 reads at JF=4", plan.Params)
	}
	if plan.PredictedBER <= 1e-4 {
		t.Fatalf("clamped predicted BER %g should sit above the target", plan.PredictedBER)
	}
	// Non-deadline denials carry no budget.
	plan = pl.Plan(Request{Mod: modulation.QPSK, Nt: 64, SNRdB: 30, TargetBER: 1e-3})
	if plan.Params.NumAnneals != 0 {
		t.Fatalf("oversize denial carried a budget: %+v", plan)
	}
}
