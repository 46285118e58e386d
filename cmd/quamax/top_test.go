package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/metrics"
	"quamax/internal/qos"
	"quamax/internal/router"
	"quamax/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the -top golden files")

// fixedShard is a router shard that reports one fixed PoolStats.
type fixedShard struct{ stats metrics.PoolStats }

func (s fixedShard) Dispatch(context.Context, *backend.Problem, time.Duration) (*backend.Result, error) {
	return &backend.Result{}, nil
}
func (s fixedShard) Stats() metrics.PoolStats { return s.stats }

// fullSet is what a two-shard deployment with every plane running exports,
// built by the planes' own producers.
func fullSet(t *testing.T) []metrics.Sample {
	t.Helper()
	hist := func(idx ...int) metrics.Hist {
		h := metrics.Hist{Counts: make([]uint64, metrics.NumBuckets), Min: 0.3, Max: 9000, Sum: 12345}
		for i, ix := range idx {
			h.Counts[ix] = uint64(i + 1)
			h.Count += uint64(i + 1)
		}
		return h
	}
	sn := &telemetry.Snapshot{
		Finished: 41, Failed: 1, Traces: 42, CompileHits: 30, CompileMisses: 12,
		Wire: hist(10, 40), SlackMet: hist(55), SlackMissed: hist(0, metrics.NumBuckets-1),
		Quality: map[string]telemetry.QualityStats{
			"QPSK/4":   {Solves: 40, Reads: 4000, ChainBreaks: 7, LLRBits: 320, LLRSaturated: 3, BestEnergy: hist(20, 21, 22)},
			"16-QAM/8": {Solves: 2, Reads: 100, BestEnergy: hist(0)},
		},
	}
	for i := range sn.Stages {
		if i != int(telemetry.StageGather) { // one stage never observed
			sn.Stages[i] = hist(i, i+8)
		}
	}
	rt, err := router.New(router.Config{ShedThreshold: 0.1, Shards: []router.Shard{
		fixedShard{metrics.PoolStats{
			UptimeMicros: 7.5e6, QueueDepth: 2, Submitted: 30, Completed: 30, FallbackDispatches: 5, PlannerClassical: 3,
			DeadlineMisses: 2, BatchRuns: 3, BatchedProblems: 9, SoftSolved: 6, LLRSaturations: 1, SlotOccupancy: 0.5,
			StoppedEarly: 5, Certified: 7,
			ChannelCache: metrics.ChannelCacheStats{Hits: 20, Misses: 8},
			Backends: []metrics.BackendStats{
				{Name: "s0/qpu0", Solved: 25, Errors: 1, BusyMicros: 4000, Utilization: 0.4, SpendMicroUSD: 2222, EnergyMilliJ: 100000, ReadsPlanned: 470, ReadsRun: 470},
				{Name: "s0/sa", Solved: 5, BusyMicros: 800, Utilization: 0.08, SpendMicroUSD: 0.25, EnergyMilliJ: 12, ReadsPlanned: 500, ReadsRun: 55},
			},
		}},
		fixedShard{metrics.PoolStats{
			UptimeMicros: 7.4e6, Submitted: 12, Completed: 11, Failed: 1, BatchRuns: 1, BatchedProblems: 3, SlotOccupancy: 1,
			ChannelCache: metrics.ChannelCacheStats{Hits: 10, Misses: 4, Evictions: 2},
			Backends:     []metrics.BackendStats{{Name: "s1/qpu0", Solved: 11, Errors: 1, BusyMicros: 3.2e6, Utilization: 0.43, SpendMicroUSD: 1.8e6}},
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	planned := qos.Stats{Plans: 42, Quantum: 29, Classical: 13, Reverse: 6, Soft: 11, PT: 4, ReadsPlanned: 541, ByReason: map[string]uint64{
		qos.ReasonFit: 25, qos.ReasonNoTarget: 4, qos.ReasonDeadlineExceeded: 9, qos.ReasonFloorAboveTarget: 4,
	}}
	set := [][]metrics.Sample{rt.Samples(), sn.Samples(), planned.Samples()}
	for _, b := range []metrics.BackendHealth{
		{Name: "s0/qpu0", State: metrics.HealthQuarantined, Score: 4.25, Observations: 900,
			ChainBreakEWMA: 0.31, EnergyEWMA: 12.5, FailureEWMA: 0.05, ReadsPerSolve: 48, CanaryPass: 2, CanaryFail: 7},
		{Name: "s0/sa", Observations: 400, EnergyEWMA: 13.9},
		{Name: "s1/qpu0", State: metrics.HealthDegraded, Score: 1.5, Observations: 850, ChainBreakEWMA: 0.11, EnergyEWMA: 14, ReadsPerSolve: 50},
	} {
		set = append(set, b.Samples())
	}
	for i, b := range []metrics.ShardBurn{
		{FastMissRate: 0.2, SlowMissRate: 0.08, FastBERRate: 0.12, SlowBERRate: 0.11, Observed: 640, Alerting: true},
		{SlowMissRate: 0.002, Observed: 500},
	} {
		set = append(set, b.Samples(i))
	}
	return metrics.Collect(set...)
}

// bareSet is a single pool started without telemetry, health or router.
func bareSet() []metrics.Sample {
	return metrics.Collect(metrics.PoolStats{
		UptimeMicros: 1.25e6, Submitted: 3, Completed: 3,
		Backends: []metrics.BackendStats{{Name: "qpu0", Solved: 3, BusyMicros: 900, Utilization: 0.4}},
	}.Samples())
}

func TestRenderTopGolden(t *testing.T) {
	for name, set := range map[string][]metrics.Sample{"top_full": fullSet(t), "top_bare": bareSet()} {
		var got bytes.Buffer
		metrics.Render(&got, "quamax pool @ 127.0.0.1:9370", set)
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: -top rendering moved (rerun with -update if intended):\n%s", name, got.String())
		}
		for _, line := range strings.Split(got.String(), "\n") {
			if len([]rune(line)) > metrics.TableWidth+2 {
				t.Errorf("%s: line wider than %d columns: %q", name, metrics.TableWidth, line)
			}
		}
	}
}

// Every family /metrics exported before the sample set existed is still
// produced, under the same label keys (pool series gain shard behind a
// router).
func TestEveryExportedFamilySurvives(t *testing.T) {
	got := map[string]string{}
	for _, s := range fullSet(t) {
		var keys []string
		for _, l := range s.Labels {
			if l.Key != "shard" || strings.HasPrefix(s.Name, "quamax_slo_") || strings.HasPrefix(s.Name, "quamax_shard_") {
				keys = append(keys, l.Key)
			}
		}
		got[s.Name] = strings.Join(keys, ",")
	}
	want := map[string]string{
		"quamax_uptime_seconds": "", "quamax_traces_finished_total": "outcome", "quamax_compile_cache_total": "result",
		"quamax_stage_latency_micros": "stage", "quamax_fronthaul_wire_micros": "", "quamax_deadline_slack_micros": "outcome",
		"quamax_quality_solves_total": "class", "quamax_quality_reads_total": "class", "quamax_quality_chain_breaks_total": "class",
		"quamax_quality_llr_bits_total": "class", "quamax_quality_llr_saturated_total": "class", "quamax_quality_best_energy": "class",
		"quamax_pool_queue_depth": "", "quamax_pool_slot_occupancy": "", "quamax_pool_submitted_total": "",
		"quamax_pool_completed_total": "", "quamax_pool_failed_total": "", "quamax_pool_fallback_total": "",
		"quamax_pool_planner_classical_total": "", "quamax_pool_deadline_misses_total": "", "quamax_pool_batch_runs_total": "",
		"quamax_pool_batched_problems_total": "", "quamax_pool_soft_solved_total": "", "quamax_pool_llr_saturations_total": "",
		"quamax_channel_cache_total": "event", "quamax_backend_solved_total": "backend", "quamax_backend_errors_total": "backend",
		"quamax_backend_busy_micros_total": "backend", "quamax_backend_spend_microusd_total": "backend",
		"quamax_backend_energy_millij_total": "backend", "quamax_backend_utilization": "backend", "quamax_backend_health": "backend",
		"quamax_backend_health_score": "backend", "quamax_backend_canary_total": "backend,result",
		"quamax_slo_burn_rate": "shard,slo,window", "quamax_slo_alerting": "shard", "quamax_shard_sheds_total": "shard",
	}
	if len(want) != 37 {
		t.Fatalf("the parent exported 37 families, the table lists %d", len(want))
	}
	var missing []string
	for name, keys := range want {
		if g, ok := got[name]; !ok || g != keys {
			missing = append(missing, name+"{"+keys+"} got {"+g+"}")
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("families lost or relabelled:\n%s", strings.Join(missing, "\n"))
	}
}
