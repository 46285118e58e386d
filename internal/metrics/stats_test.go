package metrics

import (
	"math"
	"testing"
)

// The summary statistics must treat NaN as a missing measurement (skipped)
// and ±Inf as a real extreme (propagated) — a single NaN from a failed
// measurement must never poison a whole BENCH column.
func TestMeanNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, nan},
		{"all-NaN", []float64{nan, nan}, nan},
		{"NaN skipped", []float64{1, nan, 3}, 2},
		{"+Inf propagates", []float64{1, inf}, inf},
		{"-Inf propagates", []float64{-inf, 1}, -inf},
		{"opposing Infs", []float64{inf, -inf}, nan},
		{"plain", []float64{2, 4}, 3},
	}
	for _, c := range cases {
		got := Mean(c.xs)
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Errorf("%s: Mean = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestPercentileNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, nan},
		{"all-NaN", []float64{nan, nan, nan}, 50, nan},
		{"NaN skipped", []float64{3, nan, 1}, 50, 2},
		{"NaN skipped p0", []float64{nan, 5, nan, 2}, 0, 2},
		{"NaN skipped p100", []float64{nan, 5, nan, 2}, 100, 5},
		{"Inf is the top rank", []float64{1, 2, inf}, 100, inf},
		{"interpolation toward Inf snaps", []float64{1, inf}, 50, inf},
		{"interpolation near finite snaps", []float64{1, 2, 3, inf}, 40, 2.2},
		{"opposing Infs stay ordered", []float64{-inf, inf}, 50, inf},
		{"plain interpolation", []float64{1, 2, 3, 4}, 50, 2.5},
	}
	for _, c := range cases {
		got := Percentile(c.xs, c.p)
		bad := math.IsNaN(c.want) != math.IsNaN(got)
		if !bad && !math.IsNaN(c.want) && math.Abs(got-c.want) > 1e-12 && got != c.want {
			bad = true
		}
		if bad {
			t.Errorf("%s: P%g = %g, want %g", c.name, c.p, got, c.want)
		}
	}
}

func TestBoxNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	b := Box([]float64{1, 2, 3, 4, nan, inf})
	if b.Finite != 4 || b.Total != 6 {
		t.Fatalf("finite/total = %d/%d, want 4/6", b.Finite, b.Total)
	}
	if b.Median != 2.5 {
		t.Fatalf("median = %g, want 2.5 (NaN and Inf excluded)", b.Median)
	}
	if !math.IsInf(b.Mean, 1) {
		t.Fatalf("mean = %g, want +Inf (Inf propagates, NaN does not poison)", b.Mean)
	}
	empty := Box([]float64{nan, nan})
	if empty.Finite != 0 || empty.Total != 2 {
		t.Fatalf("all-NaN finite/total = %d/%d", empty.Finite, empty.Total)
	}
	if !math.IsNaN(empty.Median) || !math.IsNaN(empty.Mean) {
		t.Fatalf("all-NaN box should be NaN: %+v", empty)
	}
}

// Spend/energy accounting must treat non-finite addends as missing
// measurements: one NaN (or ±Inf) sample must never poison the merged
// aggregate a multi-pool deployment reports upward.
func TestPoolStatsMergeGuardsNonFiniteEconomics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	a := PoolStats{Backends: []BackendStats{{Name: "qpu", SpendMicroUSD: 10, EnergyMilliJ: nan}}}
	b := PoolStats{Backends: []BackendStats{{Name: "qpu", SpendMicroUSD: inf, EnergyMilliJ: 5}}}
	m := a.Merge(b)
	if got := m.Backends[0].SpendMicroUSD; got != 10 {
		t.Errorf("merged spend = %g, want 10 (Inf addend dropped)", got)
	}
	if got := m.Backends[0].EnergyMilliJ; got != 5 {
		t.Errorf("merged energy = %g, want 5 (NaN addend dropped)", got)
	}
}
