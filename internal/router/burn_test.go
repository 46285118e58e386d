package router

import (
	"context"
	"errors"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/health"
)

// Burn-driven shedding: a shard whose SLO burn tracker alerts is shed with
// the tagged error even when the EWMA threshold is disabled, un-keyed
// traffic steers around it, and the shed clears on its own once the burn
// recovers — no operator reset.
func TestBurnRateShedding(t *testing.T) {
	burn := health.NewBurnTracker(2)
	s0, s1 := newFakeShard(0), newFakeShard(0)
	r := newTestRouter(t, []Shard{s0, s1}, Config{Burn: burn})

	win0, win1 := windowOn(r, 0), windowOn(r, 1)
	if _, err := r.Dispatch(context.Background(), &backend.Problem{Window: win0}, time.Second); err != nil {
		t.Fatalf("calm shard refused: %v", err)
	}

	// Burn shard 0's miss budget. In production the shard's own scheduler
	// feeds these observations; the router only reads the verdict.
	for i := 0; i < 40 && !burn.Alerting(0); i++ {
		burn.Observe(0, true, false)
	}
	if !burn.Alerting(0) {
		t.Fatal("setup: shard 0 never alerted")
	}
	_, err := r.Dispatch(context.Background(), &backend.Problem{Window: win0}, time.Second)
	if err == nil {
		t.Fatal("burning shard accepted keyed traffic")
	}
	var se *ShedError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("burn shed error %v, want *ShedError for shard 0", err)
	}
	if r.ShedCount(0) == 0 {
		t.Fatal("burn shed not counted")
	}
	if _, err := r.Dispatch(context.Background(), &backend.Problem{Window: win1}, time.Second); err != nil {
		t.Fatalf("calm shard refused during peer burn: %v", err)
	}
	before := s1.dispatched.Load()
	for i := 0; i < 20; i++ {
		if _, err := r.Dispatch(context.Background(), &backend.Problem{}, time.Second); err != nil {
			t.Fatalf("un-keyed dispatch refused with one calm shard: %v", err)
		}
	}
	if got := s1.dispatched.Load() - before; got != 20 {
		t.Fatalf("calm shard served %d/20 un-keyed dispatches during burn", got)
	}

	// Recovery: clean requests decay the fast window below threshold and the
	// shard rejoins, keyed traffic and all.
	for i := 0; i < 200 && burn.Alerting(0); i++ {
		burn.Observe(0, false, false)
	}
	if burn.Alerting(0) {
		t.Fatal("setup: shard 0 never recovered")
	}
	if _, err := r.Dispatch(context.Background(), &backend.Problem{Window: win0}, time.Second); err != nil {
		t.Fatalf("recovered shard still shed: %v", err)
	}
}
