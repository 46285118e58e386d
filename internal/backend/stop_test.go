package backend

import (
	"context"
	"reflect"
	"testing"

	"quamax/internal/modulation"
	"quamax/internal/rng"
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
