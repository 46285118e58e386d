package backend

import (
	"context"
	"reflect"
	"testing"

	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// Problem.StopRepeats makes ClassicalSA's restarts a cap, and the Result says
// what ran: Reads is the restarts run, ReadsPlanned the cap. An unarmed
// problem reports Reads == ReadsPlanned and the answer it always gave; the
// annealer ignores the rule — it runs, reports and charges every planned
// read — and the rule does not split a batch.
func TestStopRepeatsCapsTheSATier(t *testing.T) {
	ctx := context.Background()
	plain := problemOf(testInstance(t, 21, modulation.QPSK, 3)) // noise-free
	armed := *plain
	armed.StopRepeats = 3

	sa := NewClassicalSA("sa", 128, 20)
	full, err := sa.Solve(ctx, plain, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sa.Solve(ctx, &armed, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if full.Reads != 20 || full.ReadsPlanned != 20 {
		t.Fatalf("unarmed SA: %d of %d restarts", full.Reads, full.ReadsPlanned)
	}
	if got.Reads >= 20 || got.Reads < 3 || got.ReadsPlanned != 20 || !reflect.DeepEqual(got.Bits, full.Bits) {
		t.Fatalf("armed SA: %d of %d restarts, bits %v vs %v", got.Reads, got.ReadsPlanned, got.Bits, full.Bits)
	}

	a, err := NewAnnealer("qpu0", testOptions()) // Na = 40, Pf = 1
	if err != nil {
		t.Fatal(err)
	}
	if !Batchable(&armed, plain) {
		t.Fatal("the repeat rule split a batch")
	}
	qFull, err := a.Solve(ctx, plain, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	qGot, err := a.Solve(ctx, &armed, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if qGot.Reads != 40 || qGot.ReadsPlanned != 40 || qGot.ComputeMicros != 40*2 ||
		!reflect.DeepEqual(qGot.Bits, qFull.Bits) || qGot.Energy != qFull.Energy || qGot.BrokenChains != qFull.BrokenChains {
		t.Fatalf("annealer under the repeat rule: %d of %d reads, %v µs, energy %v (unarmed %v)",
			qGot.Reads, qGot.ReadsPlanned, qGot.ComputeMicros, qGot.Energy, qFull.Energy)
	}
}

// Problem.StopRadius ends a shared-run member's reads when its answer is in,
// and the Results say what ran: each member its own Reads under the run's
// ReadsPlanned, the device charged the most any member ran. An un-armed
// co-member runs the budget and answers as it would have; a solo run stops
// alike and is charged what it ran; and the radius does not split a batch.
func TestStopRadiusStopsASharedRunMember(t *testing.T) {
	ctx := context.Background()
	a, err := NewAnnealer("qpu0", testOptions()) // Na = 40, Pf = 1
	if err != nil {
		t.Fatal(err)
	}
	// Noise-free instances: the transmitted vector sits at energy 0, inside any
	// radius, and the annealer finds it within a few reads.
	armed := problemOf(testInstance(t, 31, modulation.QPSK, 2))
	armed.StopRadius = 1e-6
	soft := problemOf(testInstance(t, 32, modulation.QPSK, 2))
	soft.StopRadius, soft.Soft, soft.NoiseVar = 1e-6, true, 0.1
	plain := problemOf(testInstance(t, 33, modulation.QPSK, 2))
	if !Batchable(armed, plain) || !Batchable(soft, plain) {
		t.Fatal("the stop radius split a batch")
	}

	got, err := a.SolveBatch(ctx, []*Problem{armed, soft, plain}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	unarmed := *armed
	unarmed.StopRadius = 0
	uncut, err := a.SolveBatch(ctx, []*Problem{&unarmed, soft, plain}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Reads >= 40 || got[0].Energy > armed.StopRadius || !reflect.DeepEqual(got[0].Bits, uncut[0].Bits) {
		t.Errorf("armed hard member: %d of %d reads, energy %v, bits %v (uncut %v)", got[0].Reads, got[0].ReadsPlanned, got[0].Energy, got[0].Bits, uncut[0].Bits)
	}
	if got[1].Reads < softout.MinEnsemble || got[1].Reads >= 40 || len(got[1].LLRs) != len(got[1].Bits) {
		t.Errorf("armed soft member: %d reads (ensemble floor %d), %d LLRs", got[1].Reads, softout.MinEnsemble, len(got[1].LLRs))
	}
	got[2].CompileMicros, uncut[2].CompileMicros = 0, 0 // wall clock: an un-keyed compile is timed
	if got[2].Reads != 40 || !reflect.DeepEqual(got[2], uncut[2]) {
		t.Errorf("un-armed member: %+v, beside an un-armed co-member %+v", got[2], uncut[2])
	}
	for i, r := range got {
		if r.ReadsPlanned != 40 || r.Batched != 3 || r.ComputeMicros != 40*2 {
			t.Errorf("member %d: planned %d, batched %d, %v µs; want the run's 40 reads charged to all three", i, r.ReadsPlanned, r.Batched, r.ComputeMicros)
		}
	}
	// With every member armed the run ends when the slowest is settled, and
	// that is what the device is charged.
	all, err := a.SolveBatch(ctx, []*Problem{armed, soft}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	ran := max(all[0].Reads, all[1].Reads)
	if ran >= 40 || all[0].ComputeMicros != float64(ran)*2 || all[1].ComputeMicros != float64(ran)*2 {
		t.Errorf("all-armed run: members ran %d and %d reads, charged %v and %v µs", all[0].Reads, all[1].Reads, all[0].ComputeMicros, all[1].ComputeMicros)
	}
	solo, err := a.Solve(ctx, armed, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	soloUncut, err := a.Solve(ctx, &unarmed, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if solo.Reads >= 40 || solo.ReadsPlanned != 40 || solo.ComputeMicros != float64(solo.Reads)*2 ||
		solo.Energy > armed.StopRadius || !reflect.DeepEqual(solo.Bits, soloUncut.Bits) || soloUncut.Reads != 40 {
		t.Errorf("solo run under a radius: %d of %d reads, %v µs, energy %v, bits %v (uncut: %d reads, bits %v)",
			solo.Reads, solo.ReadsPlanned, solo.ComputeMicros, solo.Energy, solo.Bits, soloUncut.Reads, soloUncut.Bits)
	}
}
