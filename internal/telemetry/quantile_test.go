package telemetry

import (
	"math"
	"testing"

	"quamax/internal/metrics"
)

// Quantile edge cases the serving paths actually hit: empty histograms
// (freshly started shards), single-bucket mass (a constant-latency stage),
// the underflow and overflow buckets (sub-base and +Inf observations), and
// quantiles over merged snapshots (the multi-shard rollup).

func TestQuantileEmpty(t *testing.T) {
	var empty metrics.Hist
	for _, p := range []float64{0, 50, 99, 100} {
		if got := empty.Quantile(p); !math.IsNaN(got) {
			t.Fatalf("empty Quantile(%g) = %g, want NaN", p, got)
		}
	}
	if got := empty.Mean(); !math.IsNaN(got) {
		t.Fatalf("empty Mean = %g, want NaN", got)
	}
	// A wire-decoded snapshot can carry Count without bucket detail
	// (sparse encoding of an all-zero list); quantiles stay NaN rather
	// than inventing a shape.
	headerOnly := metrics.Hist{Count: 5, Sum: 10, Min: 1, Max: 3}
	if got := headerOnly.Quantile(50); !math.IsNaN(got) {
		t.Fatalf("bucket-less Quantile(50) = %g, want NaN", got)
	}
}

func TestQuantileSingleBucketMass(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(42)
	}
	s := h.Snapshot()
	nonzero := 0
	for _, c := range s.Counts {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("constant stream filled %d buckets", nonzero)
	}
	// With all mass in one bucket the exact extrema pin every quantile to
	// the true value — interpolation cannot wander inside the bucket.
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := s.Quantile(p); got != 42 {
			t.Fatalf("Quantile(%g) = %g, want 42", p, got)
		}
	}
}

func TestQuantileUnderflowBucket(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0, -3, 0.01, metrics.HistBase} {
		h.Observe(v) // all at or below the base: bucket 0, negatives clamped
	}
	s := h.Snapshot()
	if s.Counts[0] != 4 || s.Count != 4 {
		t.Fatalf("underflow observations not in bucket 0: %+v", s)
	}
	if s.Min != 0 {
		t.Fatalf("Min = %g, want 0 (negative clamps to zero)", s.Min)
	}
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("Quantile(0) = %g, want exact Min 0", got)
	}
	for _, p := range []float64{50, 99, 100} {
		got := s.Quantile(p)
		if got < 0 || got > metrics.HistBase {
			t.Fatalf("Quantile(%g) = %g outside bucket 0's range [0, %g]", p, got, metrics.HistBase)
		}
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(1))
	s := h.Snapshot()
	if s.Counts[metrics.NumBuckets-1] != 2 {
		t.Fatalf("+Inf observations not in the catch-all bucket: %+v", s.Counts)
	}
	// Quantiles inside the unbounded bucket report the clamped Max (the
	// largest finite bucket bound) — never +Inf or NaN.
	for _, p := range []float64{60, 99, 100} {
		got := s.Quantile(p)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Quantile(%g) = %g in the overflow bucket", p, got)
		}
		if got != s.Max {
			t.Fatalf("Quantile(%g) = %g, want clamped Max %g", p, got, s.Max)
		}
	}
	if got := s.Quantile(10); got != 1 {
		t.Fatalf("Quantile(10) = %g, want the finite observation 1", got)
	}
}

// Quantiles over a merged snapshot match quantiles over one histogram that
// saw both streams — the property the multi-shard stats rollup relies on.
func TestMergeThenQuantileEquivalence(t *testing.T) {
	var a, b, both Histogram
	va := []float64{0.05, 1, 2, 8, 30, 400, 1e4}
	vb := []float64{0.5, 3, 3, 90, 2e5, math.Inf(1)}
	for _, v := range va {
		a.Observe(v)
		both.Observe(v)
	}
	for _, v := range vb {
		b.Observe(v)
		both.Observe(v)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	w := both.Snapshot()
	for _, p := range []float64{0, 10, 25, 50, 75, 95, 99, 100} {
		got, want := m.Quantile(p), w.Quantile(p)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Quantile(%g): merged %g, combined %g", p, got, want)
		}
	}
	// Merging an empty snapshot changes nothing.
	for _, p := range []float64{25, 50, 95} {
		if got := m.Merge(metrics.Hist{}).Quantile(p); got != m.Quantile(p) {
			t.Fatalf("Quantile(%g) moved after merging empty: %g vs %g", p, got, m.Quantile(p))
		}
	}
}
