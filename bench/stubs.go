package main

import (
	"context"
	"time"

	"quamax/internal/backend"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// stubBackend is the bench's zero-cost solver: it answers every problem at
// once with all-zero bits of the right length (saturated LLRs on soft
// problems, as the classical backends do). Its capability descriptor models
// zero latency, so admission never projects a deadline miss on it.
type stubBackend struct {
	caps *backend.Capabilities
}

func newStubBackend(name string) *stubBackend {
	return &stubBackend{caps: &backend.Capabilities{
		Name:          name,
		Latency:       func(*backend.Problem) float64 { return 0 },
		MaxBatchSlots: 1,
		Features:      backend.FeatureSoft,
	}}
}

func (s *stubBackend) Describe() *backend.Capabilities { return s.caps }

func (s *stubBackend) Solve(_ context.Context, p *backend.Problem, _ *rng.Source) (*backend.Result, error) {
	return stubResult(p, s.caps.Name), nil
}

func stubResult(p *backend.Problem, name string) *backend.Result {
	res := &backend.Result{Bits: make([]byte, p.LogicalSpins()), Backend: name, Batched: 1}
	if p.Soft {
		res.LLRs = softout.Saturated(res.Bits, p.LLRClamp)
		res.LLRSaturated = len(res.LLRs)
	}
	return res
}

// stubDispatcher answers directly, with no router or scheduler behind it: the
// floor under the fronthaul round-trip ladder rows.
type stubDispatcher struct{}

func (stubDispatcher) Dispatch(_ context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
	return stubResult(p, "stub"), nil
}
