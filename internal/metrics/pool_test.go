package metrics

import (
	"math"
	"strings"
	"testing"
)

func samplePool() PoolStats {
	return PoolStats{
		QueueDepth:         2,
		Submitted:          10,
		Completed:          7,
		Failed:             1,
		FallbackDispatches: 3,
		PlannerClassical:   2,
		Certified:          1,
		DeadlineMisses:     1,
		BatchRuns:          2,
		BatchedProblems:    6,
		SoftSolved:         3,
		LLRSaturations:     12,
		SlotOccupancy:      0.5,
		Backends: []BackendStats{
			{Name: "qpu0", Solved: 5, Errors: 1, BusyMicros: 1000, Utilization: 0.5},
			{Name: "sa", Solved: 2, Errors: 0, BusyMicros: 100, Utilization: 0.05},
		},
	}
}

func TestPoolStatsMissRate(t *testing.T) {
	s := samplePool()
	if got, want := s.MissRate(), 1.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MissRate = %g, want %g", got, want)
	}
	if (PoolStats{}).MissRate() != 0 {
		t.Fatal("empty snapshot must report zero miss rate")
	}
}

func TestPoolStatsMergeCounters(t *testing.T) {
	a := samplePool()
	b := PoolStats{
		QueueDepth:         1,
		Submitted:          4,
		Completed:          4,
		FallbackDispatches: 1,
		Certified:          3,
		DeadlineMisses:     2,
		BatchRuns:          6,
		BatchedProblems:    12,
		SoftSolved:         2,
		LLRSaturations:     5,
		SlotOccupancy:      0.25,
		Backends: []BackendStats{
			{Name: "qpu0", Solved: 3, BusyMicros: 500, Utilization: 0.25},
			{Name: "sphere", Solved: 1, BusyMicros: 40, Utilization: 0.02},
		},
	}
	m := a.Merge(b)
	if m.QueueDepth != 3 || m.Submitted != 14 || m.Completed != 11 || m.Failed != 1 {
		t.Fatalf("merged counters: %+v", m)
	}
	if m.FallbackDispatches != 4 || m.PlannerClassical != 2 || m.Certified != 4 || m.DeadlineMisses != 3 {
		t.Fatalf("merged dispatch counters: %+v", m)
	}
	if m.BatchRuns != 8 || m.BatchedProblems != 18 {
		t.Fatalf("merged batch counters: %+v", m)
	}
	if m.SoftSolved != 5 || m.LLRSaturations != 17 {
		t.Fatalf("merged soft counters: %+v", m)
	}
	// Occupancy re-weights by batch runs: (0.5·2 + 0.25·6)/8.
	if want := (0.5*2 + 0.25*6) / 8; math.Abs(m.SlotOccupancy-want) > 1e-12 {
		t.Fatalf("merged occupancy = %g, want %g", m.SlotOccupancy, want)
	}
	// The originals must be untouched (Merge is a value operation).
	if a.Submitted != 10 || len(a.Backends) != 2 {
		t.Fatalf("Merge mutated its receiver: %+v", a)
	}
}

func TestPoolStatsMergeBackendsByName(t *testing.T) {
	a := samplePool()
	b := samplePool()
	b.Backends = []BackendStats{
		{Name: "sa", Solved: 8, Errors: 2, BusyMicros: 900, Utilization: 0.45},
		{Name: "sphere", Solved: 1, BusyMicros: 10, Utilization: 0.01},
	}
	m := a.Merge(b)
	if len(m.Backends) != 3 {
		t.Fatalf("merged backends: %+v", m.Backends)
	}
	byName := map[string]BackendStats{}
	for _, be := range m.Backends {
		byName[be.Name] = be
	}
	if sa := byName["sa"]; sa.Solved != 10 || sa.Errors != 2 || sa.BusyMicros != 1000 {
		t.Fatalf("merged sa entry: %+v", sa)
	}
	if math.Abs(byName["sa"].Utilization-0.5) > 1e-12 {
		t.Fatalf("merged sa utilization: %+v", byName["sa"])
	}
	if qpu := byName["qpu0"]; qpu.Solved != 5 || qpu.BusyMicros != 1000 {
		t.Fatalf("merged qpu0 entry: %+v", qpu)
	}
	if _, ok := byName["sphere"]; !ok {
		t.Fatal("merge dropped a backend present on one side only")
	}
}

// TestPoolStatsMergeAssociative folds three per-shard snapshots both ways —
// (a·b)·c and a·(b·c) — and checks every counter, the re-weighted occupancy
// and the by-name backend merge agree: the invariant that lets a sharded
// router's Stats() fold per-shard breakdowns in any order.
func TestPoolStatsMergeAssociative(t *testing.T) {
	a := samplePool()
	b := PoolStats{
		QueueDepth: 1, Submitted: 4, Completed: 4, FallbackDispatches: 1,
		BatchRuns: 6, BatchedProblems: 12, SlotOccupancy: 0.25,
		ChannelCache: ChannelCacheStats{Hits: 3, Misses: 1},
		Backends: []BackendStats{
			{Name: "qpu0", Solved: 3, BusyMicros: 500, Utilization: 0.25},
			{Name: "sphere", Solved: 1, BusyMicros: 40, Utilization: 0.02},
		},
	}
	c := PoolStats{
		Submitted: 9, Completed: 8, Failed: 1, DeadlineMisses: 4,
		BatchRuns: 2, BatchedProblems: 2, SoftSolved: 1, SlotOccupancy: 1,
		ChannelCache: ChannelCacheStats{Hits: 5, Misses: 5, Evictions: 1},
		Backends:     []BackendStats{{Name: "sa", Solved: 8, BusyMicros: 300, Utilization: 0.3}},
	}
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if left.Submitted != right.Submitted || left.Completed != right.Completed ||
		left.Failed != right.Failed || left.QueueDepth != right.QueueDepth ||
		left.FallbackDispatches != right.FallbackDispatches ||
		left.DeadlineMisses != right.DeadlineMisses ||
		left.BatchRuns != right.BatchRuns || left.BatchedProblems != right.BatchedProblems ||
		left.SoftSolved != right.SoftSolved || left.ChannelCache != right.ChannelCache {
		t.Fatalf("counter fold is order-dependent:\nleft  %+v\nright %+v", left, right)
	}
	if math.Abs(left.SlotOccupancy-right.SlotOccupancy) > 1e-12 {
		t.Fatalf("occupancy fold is order-dependent: %g vs %g", left.SlotOccupancy, right.SlotOccupancy)
	}
	fold := func(m PoolStats) map[string]BackendStats {
		byName := map[string]BackendStats{}
		for _, be := range m.Backends {
			byName[be.Name] = be
		}
		return byName
	}
	lb, rb := fold(left), fold(right)
	if len(lb) != len(rb) {
		t.Fatalf("backend sets differ: %v vs %v", lb, rb)
	}
	for name, l := range lb {
		r, ok := rb[name]
		if !ok || l.Solved != r.Solved || l.Errors != r.Errors ||
			math.Abs(l.BusyMicros-r.BusyMicros) > 1e-9 || math.Abs(l.Utilization-r.Utilization) > 1e-12 {
			t.Fatalf("backend %q folds order-dependently: %+v vs %+v", name, l, r)
		}
	}
}

func TestPoolStatsMergeZeroValue(t *testing.T) {
	a := samplePool()
	m := a.Merge(PoolStats{})
	if m.Submitted != a.Submitted || m.SlotOccupancy != a.SlotOccupancy {
		t.Fatalf("merge with zero snapshot drifted: %+v", m)
	}
	m = (PoolStats{}).Merge(a)
	if m.Submitted != a.Submitted || m.SlotOccupancy != a.SlotOccupancy {
		t.Fatalf("zero-receiver merge drifted: %+v", m)
	}
	z := (PoolStats{}).Merge(PoolStats{})
	if z.SlotOccupancy != 0 || z.Backends != nil {
		t.Fatalf("zero merge: %+v", z)
	}
}

func TestPoolStatsString(t *testing.T) {
	s := samplePool().String()
	for _, want := range []string{"fallback=3", "planner=2", "certified at admission=1", "batched runs=2", "soft decodes=3", "llr-saturations=12", "qpu0", "sa"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering misses %q:\n%s", want, s)
		}
	}
	if s := (PoolStats{}).String(); strings.Contains(s, "soft decodes") || strings.Contains(s, "certified") {
		t.Fatalf("String printed a soft or certified line with neither:\n%s", s)
	}
}

// Channel-cache counters must add under Merge, and the hit rate must report
// hits over lookups.
func TestChannelCacheStats(t *testing.T) {
	a := PoolStats{ChannelCache: ChannelCacheStats{Hits: 6, Misses: 2, Evictions: 1}}
	b := PoolStats{ChannelCache: ChannelCacheStats{Hits: 4, Misses: 8, Evictions: 3}}
	got := a.Merge(b).ChannelCache
	if got != (ChannelCacheStats{Hits: 10, Misses: 10, Evictions: 4}) {
		t.Fatalf("merged cache stats %+v", got)
	}
	if got.HitRate() != 0.5 {
		t.Fatalf("hit rate %g, want 0.5", got.HitRate())
	}
	if (ChannelCacheStats{}).HitRate() != 0 {
		t.Fatal("empty cache hit rate not 0")
	}
	s := a.String()
	if !strings.Contains(s, "channel cache hits=6 misses=2 evictions=1") {
		t.Fatalf("String omitted cache line:\n%s", s)
	}
	if strings.Contains(PoolStats{}.String(), "channel cache") {
		t.Fatal("String printed a cache line with no cache traffic")
	}
}
