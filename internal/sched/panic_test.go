package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/health"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// panicBackend panics on its k-th solver call (Solve and SolveBatch share
// the count) and answers every other one. hold, when non-nil, blocks the
// first call until it is closed, so a test can queue work behind it.
type panicBackend struct {
	name  string
	est   float64
	k     int64
	hold  chan struct{}
	calls atomic.Int64
}

func (b *panicBackend) Describe() *backend.Capabilities {
	return &backend.Capabilities{Name: b.name, Latency: func(*backend.Problem) float64 { return b.est }}
}

func (b *panicBackend) call() {
	n := b.calls.Add(1)
	if n == 1 && b.hold != nil {
		<-b.hold
	}
	if n == b.k {
		panic("solver bug")
	}
}

func (b *panicBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	b.call()
	return &backend.Result{Bits: []byte{0}, Backend: b.name, Batched: 1}, nil
}

// panicBatchBackend is panicBackend with four batch slots.
type panicBatchBackend struct{ panicBackend }

func (b *panicBatchBackend) BatchSlots(*backend.Problem) int { return 4 }

func (b *panicBatchBackend) SolveBatch(ctx context.Context, ps []*backend.Problem, src *rng.Source) ([]*backend.Result, error) {
	b.call()
	out := make([]*backend.Result, len(ps))
	for i := range out {
		out[i] = &backend.Result{Bits: []byte{0}, Backend: b.name, Batched: len(ps)}
	}
	return out, nil
}

// checkContained asserts the accounting a contained panic leaves behind:
// every request terminal, the panics counted as failures of the backend that
// raised them, and the health plane told.
func checkContained(t *testing.T, s *Scheduler, tracker *health.Tracker, name string, submitted, failed uint64) {
	t.Helper()
	st := s.Stats()
	if st.Submitted != submitted || st.Failed != failed || st.Submitted != st.Completed+st.Failed {
		t.Errorf("submitted %d, completed %d, failed %d; want %d submitted, %d failed, none outstanding",
			st.Submitted, st.Completed, st.Failed, submitted, failed)
	}
	for _, be := range st.Backends {
		if be.Name == name && be.Errors != failed {
			t.Errorf("backend %s counts %d errors, want %d", name, be.Errors, failed)
		}
	}
	for _, h := range tracker.Snapshot() {
		if h.Name == name {
			if !(h.FailureEWMA > 0) {
				t.Errorf("health plane holds %s at failure rate %v, want its panics observed", name, h.FailureEWMA)
			}
			return
		}
	}
	t.Errorf("health plane never heard of %s", name)
}

// wantPanicError asserts err is the typed error of a panic in backend name.
func wantPanicError(t *testing.T, err error, name string) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Backend != name || pe.Value != "solver bug" || len(pe.Stack) == 0 {
		t.Errorf("got error %v, want a PanicError from %s carrying the panic value and a stack", err, name)
	}
}

// A panic inside a backend must cost the request(s) it was solving and
// nothing else: a typed error, Failed/errors counters, a health-plane
// failure, and the same worker serving the next request. Without containment
// each of these cases kills the process.
func TestSolvePanicIsContained(t *testing.T) {
	p, _ := testProblem(t, 7, modulation.BPSK, 2)
	ctx := context.Background()

	t.Run("pool solo", func(t *testing.T) {
		tracker := health.NewTracker(health.Config{})
		be := &panicBackend{name: "qpu", est: 100, k: 2}
		s, err := New(Config{Pool: []backend.Backend{be}, Health: tracker})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 1; i <= 3; i++ {
			_, err := s.Dispatch(ctx, p, 0)
			if i == 2 {
				wantPanicError(t, err, "qpu")
			} else if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}
		checkContained(t, s, tracker, "qpu", 3, 1)
	})

	t.Run("pool batch", func(t *testing.T) {
		tracker := health.NewTracker(health.Config{})
		be := &panicBatchBackend{panicBackend{name: "qpu", est: 100, k: 2, hold: make(chan struct{})}}
		s, err := New(Config{Pool: []backend.Backend{be}, Health: tracker})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// The first request holds the worker while three more queue behind
		// it; released, they ride one SolveBatch — the call that panics.
		errs := make([]error, 4)
		var wg sync.WaitGroup
		dispatch := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = s.Dispatch(ctx, p, 0)
			}()
		}
		dispatch(0)
		waitFor(t, "the first request to reach the backend", func() bool { return be.calls.Load() == 1 })
		for i := 1; i < 4; i++ {
			dispatch(i)
		}
		waitFor(t, "three requests to queue", func() bool { return s.Stats().QueueDepth == 3 })
		close(be.hold)
		wg.Wait()
		if errs[0] != nil {
			t.Errorf("the request ahead of the panicking batch: %v", errs[0])
		}
		for _, err := range errs[1:] {
			wantPanicError(t, err, "qpu")
		}
		if _, err := s.Dispatch(ctx, p, 0); err != nil {
			t.Errorf("request after the panic: %v", err)
		}
		checkContained(t, s, tracker, "qpu", 5, 3)
	})

	t.Run("fallback", func(t *testing.T) {
		tracker := health.NewTracker(health.Config{})
		pool := &panicBackend{name: "qpu", est: 1000}
		fb := &panicBackend{name: "sa", est: 10, k: 1}
		s, err := New(Config{Pool: []backend.Backend{pool}, Fallback: fb, Health: tracker})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// 100 µs against a 1000 µs pool estimate: both requests fall back.
		_, err = s.Dispatch(ctx, p, 100*time.Microsecond)
		wantPanicError(t, err, "sa")
		if _, err := s.Dispatch(ctx, p, 100*time.Microsecond); err != nil {
			t.Errorf("request after the panic: %v", err)
		}
		if n := fb.calls.Load(); n != 2 {
			t.Errorf("fallback solved %d requests, want 2", n)
		}
		checkContained(t, s, tracker, "sa", 2, 1)
	})
}
