package health

import (
	"context"
	"math"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/metrics"
	"quamax/internal/rng"
	"quamax/internal/telemetry"
)

// fakeClock is a manually-advanced time source for canary-interval tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testTracker(clk *fakeClock) *Tracker {
	var cfg Config
	if clk != nil {
		cfg.Now = clk.now
	}
	return NewTracker(cfg)
}

// good and bad are the two quality regimes the drift tests move between:
// a healthy annealer (2% chain breaks, deep ground states) and a drifted
// one (40% chain breaks, best energies collapsed toward zero).
var (
	good = telemetry.QualityObservation{BestEnergy: -10, Reads: 100, ChainBreaks: 2}
	bad  = telemetry.QualityObservation{BestEnergy: -2, Reads: 100, ChainBreaks: 40}
)

func feed(tr *Tracker, name string, q telemetry.QualityObservation, n int) {
	for i := 0; i < n; i++ {
		tr.ObserveQuality(name, "QPSK/4", q)
	}
}

// Drift detection: a backend that starts serving drifted quality walks
// Healthy → Degraded → Quarantined within a handful of observations once
// its reference window is established.
func TestDriftDetectionStateMachine(t *testing.T) {
	tr := testTracker(nil)
	feed(tr, "qpu0", good, DefaultMinWindow)
	if got := tr.State("qpu0"); got != metrics.HealthHealthy {
		t.Fatalf("healthy baseline scored %v", got)
	}

	sawDegraded := false
	quarantinedAfter := -1
	for i := 0; i < 10; i++ {
		tr.ObserveQuality("qpu0", "QPSK/4", bad)
		switch tr.State("qpu0") {
		case metrics.HealthDegraded:
			sawDegraded = true
		case metrics.HealthQuarantined:
			quarantinedAfter = i + 1
		}
		if quarantinedAfter > 0 {
			break
		}
	}
	if !sawDegraded {
		t.Error("backend never passed through Degraded")
	}
	if quarantinedAfter < 0 || quarantinedAfter > 5 {
		t.Fatalf("quarantined after %d bad observations, want 1..5", quarantinedAfter)
	}
	if tr.Score("qpu0") <= 0 {
		t.Fatal("quarantined backend reports a zero drift score")
	}
}

// The reference window freezes once the backend leaves Healthy: a long run
// of drifted samples must not become the new normal. After canary
// re-admission a single bad sample scores against the original healthy
// regime, not the drifted one.
func TestReferenceFrozenWhileUnhealthy(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := testTracker(clk)
	feed(tr, "qpu0", good, DefaultMinWindow)
	feed(tr, "qpu0", bad, 50) // drives to Quarantined, then tries to poison the reference
	if got := tr.State("qpu0"); got != metrics.HealthQuarantined {
		t.Fatalf("state %v after sustained drift, want Quarantined", got)
	}

	// Re-admit via canaries, then check the detector still scores the
	// drifted regime as drift.
	for i := 0; i < DefaultCanaryPasses; i++ {
		clk.advance(time.Second)
		if !tr.CanaryDue("qpu0") {
			t.Fatalf("canary %d not due", i)
		}
		tr.RecordCanary("qpu0", true)
	}
	if got := tr.State("qpu0"); got != metrics.HealthHealthy {
		t.Fatalf("state %v after canary streak, want Healthy", got)
	}
	// One bad sample lands in the reference before the state flips (scoring
	// precedes the push), so the band is slightly widened — but 49 further
	// bad samples were frozen out, and a fully-poisoned reference would
	// score this sample near zero.
	tr.ObserveQuality("qpu0", "QPSK/4", bad)
	if tr.Score("qpu0") < 0.5 {
		t.Fatalf("score %.3f after one bad sample post-re-admission — the reference learned the drifted regime", tr.Score("qpu0"))
	}
}

// Hysteresis: a Degraded backend recovers to Healthy only after sustained
// in-control behavior decays the score below DefaultPHRecover — never from
// one lucky solve. One drifted sample scores ≈ 2.7, inside the
// [DefaultPHDegraded, DefaultPHQuarantine) band.
func TestRecoveryHysteresis(t *testing.T) {
	tr := testTracker(nil)
	feed(tr, "qpu0", good, DefaultMinWindow)
	tr.ObserveQuality("qpu0", "QPSK/4", bad)
	if got := tr.State("qpu0"); got != metrics.HealthDegraded {
		t.Fatalf("state %v after drift burst, want Degraded", got)
	}
	tr.ObserveQuality("qpu0", "QPSK/4", good)
	if got := tr.State("qpu0"); got != metrics.HealthDegraded {
		t.Fatalf("one good solve recovered the backend (state %v)", got)
	}
	recovered := false
	for i := 0; i < 200; i++ {
		tr.ObserveQuality("qpu0", "QPSK/4", good)
		if tr.State("qpu0") == metrics.HealthHealthy {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("backend never recovered under sustained good behavior")
	}
	if tr.Score("qpu0") > DefaultPHRecover {
		t.Fatalf("recovered with score %.3f above the recover threshold", tr.Score("qpu0"))
	}
}

// A crash-looping backend quarantines within a couple of failures even when
// it never returns a quality sample.
func TestFailureQuarantine(t *testing.T) {
	tr := testTracker(nil)
	tr.ObserveOutcome("qpu0", true)
	if got := tr.State("qpu0"); got != metrics.HealthDegraded {
		t.Fatalf("state %v after one failure, want Degraded", got)
	}
	tr.ObserveOutcome("qpu0", true)
	if got := tr.State("qpu0"); got != metrics.HealthQuarantined {
		t.Fatalf("state %v after two failures, want Quarantined", got)
	}
	// The failure EWMA moved too.
	sn := tr.Snapshot()
	if len(sn) != 1 || sn[0].FailureEWMA <= 0 {
		t.Fatalf("failure EWMA not tracked: %+v", sn)
	}
}

// Canary probing: only quarantined backends are probed, probes are
// rate-limited and claimed atomically, a failed probe resets the streak, and
// DefaultCanaryPasses consecutive passes re-admit with a reset detector.
func TestCanaryReadmission(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := testTracker(clk)
	if tr.CanaryDue("qpu0") {
		t.Fatal("unknown backend due for canary")
	}
	tr.ObserveOutcome("qpu0", true)
	tr.ObserveOutcome("qpu0", true) // Quarantined
	if tr.RecordCanary("qpu1", true) {
		t.Fatal("canary recorded against an unknown backend")
	}

	if !tr.CanaryDue("qpu0") {
		t.Fatal("quarantined backend not due for canary")
	}
	if tr.CanaryDue("qpu0") {
		t.Fatal("probe slot double-claimed within the interval")
	}
	clk.advance(DefaultCanaryInterval)

	// pass, pass, fail: the streak resets.
	tr.RecordCanary("qpu0", true)
	tr.RecordCanary("qpu0", true)
	tr.RecordCanary("qpu0", false)
	if got := tr.State("qpu0"); got != metrics.HealthQuarantined {
		t.Fatalf("state %v after broken streak, want Quarantined", got)
	}
	for i := 0; i < DefaultCanaryPasses-1; i++ {
		if tr.RecordCanary("qpu0", true) {
			t.Fatalf("re-admitted after %d passes", i+1)
		}
	}
	if !tr.RecordCanary("qpu0", true) {
		t.Fatal("full pass streak did not re-admit")
	}
	if got := tr.State("qpu0"); got != metrics.HealthHealthy {
		t.Fatalf("state %v after re-admission, want Healthy", got)
	}
	if tr.Score("qpu0") != 0 {
		t.Fatalf("drift score %.3f after re-admission, want 0", tr.Score("qpu0"))
	}
	sn := tr.Snapshot()
	if sn[0].CanaryPass != 5 || sn[0].CanaryFail != 1 {
		t.Fatalf("canary tally %d/%d, want 5 passes and 1 fail", sn[0].CanaryPass, sn[0].CanaryFail)
	}
}

func TestAnyServing(t *testing.T) {
	tr := testTracker(nil)
	tr.ObserveOutcome("sick", true)
	tr.ObserveOutcome("sick", true)
	if tr.State("sick") != metrics.HealthQuarantined {
		t.Fatal("setup: sick not quarantined")
	}
	if !tr.AnyServing([]string{"sick", "ok"}) {
		t.Fatal("pool with an unknown (healthy) member reported all-quarantined")
	}
	if tr.AnyServing([]string{"sick"}) {
		t.Fatal("all-quarantined pool reported serving")
	}
	if !tr.AnyServing(nil) {
		t.Fatal("empty pool reported not serving")
	}
}

func TestSnapshotSortedAndPopulated(t *testing.T) {
	tr := testTracker(nil)
	for _, name := range []string{"s1/qpu0", "s0/qpu0", "s0/sa"} {
		feed(tr, name, good, 3)
	}
	sn := tr.Snapshot()
	if len(sn) != 3 {
		t.Fatalf("snapshot holds %d backends, want 3", len(sn))
	}
	for i := 1; i < len(sn); i++ {
		if sn[i-1].Name >= sn[i].Name {
			t.Fatalf("snapshot not name-sorted: %q before %q", sn[i-1].Name, sn[i].Name)
		}
	}
	be := sn[0]
	if be.Observations != 3 || be.ChainBreakEWMA <= 0 || be.EnergyEWMA <= 0 || be.ReadsPerSolve <= 0 {
		t.Fatalf("snapshot baselines not populated: %+v", be)
	}
}

// Every Tracker method is a safe no-op on a nil receiver, so the scheduler
// can run without a health plane and never branch.
func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	tr.ObserveQuality("x", "c", good)
	tr.ObserveOutcome("x", true)
	if tr.State("x") != metrics.HealthHealthy || tr.Score("x") != 0 {
		t.Fatal("nil tracker not Healthy/zero")
	}
	if tr.CanaryDue("x") || tr.RecordCanary("x", true) {
		t.Fatal("nil tracker probes canaries")
	}
	if !tr.AnyServing([]string{"x"}) {
		t.Fatal("nil tracker gates the pool")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracker snapshot not nil")
	}
}

// Burn alerting follows the multi-window rule: a fast spike over a calm slow
// window stays quiet, a sustained burn trips both windows and alerts, and
// the alert clears as soon as the fast window recovers even while the slow
// window is still elevated.
func TestBurnMultiWindowRule(t *testing.T) {
	const burning = DefaultBurnThreshold * DefaultMissBudget
	bt := NewBurnTracker(1)
	for i := 0; i < 50; i++ {
		bt.Observe(0, false, false)
	}
	if bt.Alerting(0) {
		t.Fatal("calm shard alerting")
	}
	// Two misses spike the fast window past 2× budget (≈ 0.10); the slow
	// window (≈ 0.01) is still calm, so the multi-window rule holds fire.
	bt.Observe(0, true, false)
	bt.Observe(0, true, false)
	sn := bt.Snapshot()[0]
	if sn.FastMissRate < burning {
		t.Fatalf("fast window %.3f did not spike", sn.FastMissRate)
	}
	if bt.Alerting(0) {
		t.Fatal("fast spike over a calm slow window alerted")
	}
	// A sustained burn elevates the slow window too — now it alerts.
	for i := 0; i < 30 && !bt.Alerting(0); i++ {
		bt.Observe(0, true, false)
	}
	if !bt.Alerting(0) {
		t.Fatal("sustained burn never alerted")
	}
	// A long incident: the slow window climbs to ≈ 0.25.
	for i := 0; i < 50; i++ {
		bt.Observe(0, true, false)
	}
	// Recovery: the fast window falls below threshold within ≈ 80 clean
	// requests and the alert clears, while the slow window, decaying ten
	// times more slowly, still burns on its own (no stale-incident
	// alerting).
	for i := 0; i < 80 && bt.Alerting(0); i++ {
		bt.Observe(0, false, false)
	}
	sn = bt.Snapshot()[0]
	if bt.Alerting(0) {
		t.Fatalf("alert stuck after recovery (fast=%.3f slow=%.3f)", sn.FastMissRate, sn.SlowMissRate)
	}
	if sn.SlowMissRate <= sn.FastMissRate || sn.SlowMissRate < burning {
		t.Fatalf("slow window %.4f not still burning over fast %.4f", sn.SlowMissRate, sn.FastMissRate)
	}
}

// The BER budget is its own SLO: BER-risk events alone trip the alert with
// the deadline-miss budget untouched.
func TestBurnBERBudget(t *testing.T) {
	bt := NewBurnTracker(2)
	for i := 0; i < 40 && !bt.Alerting(1); i++ {
		bt.Observe(1, false, true)
	}
	if !bt.Alerting(1) {
		t.Fatal("BER burn never alerted")
	}
	if bt.Alerting(0) {
		t.Fatal("untouched shard alerting")
	}
	sn := bt.Snapshot()
	if len(sn) != 2 || sn[1].FastMissRate != 0 || sn[1].FastBERRate == 0 || !sn[1].Alerting {
		t.Fatalf("snapshot: %+v", sn)
	}
}

// DefaultBurnMinSamples suppresses alerting on a cold shard even when every
// early request burns (the EWMA seeds at 1.0 on the first miss).
func TestBurnMinSamplesColdStart(t *testing.T) {
	bt := NewBurnTracker(1)
	for i := 0; i < DefaultBurnMinSamples-1; i++ {
		bt.Observe(0, true, true)
		if bt.Alerting(0) {
			t.Fatalf("cold shard alerted after %d samples (min %d)", i+1, DefaultBurnMinSamples)
		}
	}
	bt.Observe(0, true, true)
	if !bt.Alerting(0) {
		t.Fatal("warm burning shard not alerting")
	}
}

func TestBurnNilAndBounds(t *testing.T) {
	var bt *BurnTracker
	bt.Observe(0, true, true)
	if bt.Alerting(0) || bt.Shards() != 0 || bt.Snapshot() != nil {
		t.Fatal("nil burn tracker not a no-op")
	}
	real := NewBurnTracker(2)
	real.Observe(-1, true, true)
	real.Observe(2, true, true)
	if real.Alerting(-1) || real.Alerting(2) {
		t.Fatal("out-of-range shard alerting")
	}
	if real.Snapshot()[0].Observed != 0 {
		t.Fatal("out-of-range observation landed on shard 0")
	}
}

// The canary instance is deterministic per seed, its ground energy is an
// exact brute-force anchor, and Check accepts exactly the results that reach
// it (within tolerance).
func TestCanaryDeterministicAndCheck(t *testing.T) {
	c1, err := NewCanary(7)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCanary(7)
	if err != nil {
		t.Fatal(err)
	}
	if c1.GroundEnergy != c2.GroundEnergy {
		t.Fatalf("same seed, different ground energies: %g vs %g", c1.GroundEnergy, c2.GroundEnergy)
	}
	// Noise-free instances reduce with the offset folded in, so the ground
	// energy sits at ~0 (float error below zero) — the anchor the absolute
	// slack floor in Check exists for.
	if c1.GroundEnergy > 0 || math.IsInf(c1.GroundEnergy, 0) || math.IsNaN(c1.GroundEnergy) {
		t.Fatalf("implausible ground energy %g", c1.GroundEnergy)
	}
	if c1.Problem.Users() != CanaryUsers {
		t.Fatalf("canary spans %d users, want %d", c1.Problem.Users(), CanaryUsers)
	}

	if !c1.Check(&backend.Result{Energy: c1.GroundEnergy}, nil) {
		t.Fatal("exact ground state rejected")
	}
	if !c1.Check(&backend.Result{Energy: c1.GroundEnergy + 0.01*math.Abs(c1.GroundEnergy)}, nil) {
		t.Fatal("in-tolerance result rejected")
	}
	// An excited state sits at least a spectral gap (O(1) for this
	// instance) above the ground anchor — well past the slack floor.
	if c1.Check(&backend.Result{Energy: c1.GroundEnergy + 0.1}, nil) {
		t.Fatal("excited-state result accepted")
	}
	if c1.Check(&backend.Result{Energy: c1.GroundEnergy}, backend.ErrInjectedFault) {
		t.Fatal("errored probe accepted")
	}
	if c1.Check(nil, nil) {
		t.Fatal("nil result accepted")
	}

	// A classical solver actually reaches the anchor — the probe question is
	// answerable, so a pass/fail verdict reflects the device, not the probe.
	sa := backend.NewClassicalSA("sa", 256, 20)
	res, err := sa.Solve(context.Background(), c1.Problem, rng.New(1))
	if !c1.Check(res, err) {
		t.Fatalf("classical SA failed the canary: %v / %+v", err, res)
	}
}
