package telemetry

import (
	"math"
	"sync/atomic"

	"quamax/internal/metrics"
)

// Histogram is a live, concurrency-safe log-scale histogram. Observe is
// lock-free (one atomic add per bucket plus CAS loops for the running sum and
// extrema), so it can sit on the scheduler's hot path. Read it via Snapshot.
//
// The zero value is ready to use.
type Histogram struct {
	counts [metrics.NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	min    atomic.Uint64 // float64 bits; initialized lazily via count==0 CAS path
	max    atomic.Uint64 // float64 bits
	init   atomic.Bool
}

// Observe records one value in microseconds. NaN observations are dropped;
// negative values clamp to zero; +Inf lands in the catch-all bucket and is
// clamped to the largest finite bound for the running sum so means stay
// finite.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	i := metrics.BucketIndex(v)
	if math.IsInf(v, 1) {
		v = metrics.BucketBound(metrics.NumBuckets - 2)
	}
	h.counts[i].Add(1)
	if h.init.CompareAndSwap(false, true) {
		// First observer seeds the extrema; racing observers fold in below.
		h.min.Store(math.Float64bits(v))
		h.max.Store(math.Float64bits(v))
	}
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
	h.count.Add(1)
}

func atomicAddFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy. Concurrent Observes may tear a
// snapshot by at most the in-flight observations (counts and sum are read
// per-field); for reporting that skew is negligible and bounded.
func (h *Histogram) Snapshot() metrics.Hist {
	var s metrics.Hist
	if h.count.Load() == 0 {
		return s
	}
	s.Counts = make([]uint64, metrics.NumBuckets)
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Min = math.Float64frombits(h.min.Load())
	s.Max = math.Float64frombits(h.max.Load())
	return s
}
