package telemetry

import (
	"encoding/json"
	"fmt"
	"os"

	"quamax/internal/metrics"
)

// StageSummary is the per-stage latency digest a Dump carries: enough for
// tools/benchjson to add p50/p95/p99 columns to BENCH rows without shipping
// raw buckets.
type StageSummary struct {
	Count      uint64  `json:"count"`
	MeanMicros float64 `json:"mean_micros"`
	P50Micros  float64 `json:"p50_micros"`
	P95Micros  float64 `json:"p95_micros"`
	P99Micros  float64 `json:"p99_micros"`
	MaxMicros  float64 `json:"max_micros"`
}

// Summarize digests a Hist into a StageSummary.
func Summarize(h metrics.Hist) StageSummary {
	if h.Count == 0 {
		return StageSummary{}
	}
	return StageSummary{
		Count:      h.Count,
		MeanMicros: h.Mean(),
		P50Micros:  h.Quantile(50),
		P95Micros:  h.Quantile(95),
		P99Micros:  h.Quantile(99),
		MaxMicros:  h.Max,
	}
}

// Dump is the structured JSON trace dump written by -trace-out: the full
// Snapshot, per-stage digests keyed by stage name, the pool counters they
// reconcile against, and the retained trace ring.
type Dump struct {
	// Snapshot is the recorder aggregate at dump time.
	Snapshot *Snapshot `json:"snapshot"`
	// Stages digests Snapshot.Stages by stage name; Wire, SlackMet and
	// SlackMissed digest their histograms.
	Stages      map[string]StageSummary `json:"stages"`
	Wire        StageSummary            `json:"wire"`
	SlackMet    StageSummary            `json:"slack_met"`
	SlackMissed StageSummary            `json:"slack_missed"`
	// Pool is the scheduler counter snapshot taken with the dump, when a
	// pool is attached; Dump readers check Submitted == Completed+Failed ==
	// Snapshot.Traces.
	Pool *metrics.PoolStats `json:"pool,omitempty"`
	// Traces is the retained ring, oldest first (capped at the ring size;
	// Snapshot.Traces counts all spans ever finished).
	Traces []Trace `json:"traces"`
	// Exemplars are the pinned worst-slack traces (see exemplar.go), worst
	// first — the named requests behind the tail.
	Exemplars []Trace `json:"exemplars,omitempty"`
}

// BuildDump assembles a Dump from a recorder and an optional pool snapshot.
// Safe on a nil receiver only insofar as it returns nil.
func BuildDump(r *Recorder, pool *metrics.PoolStats) *Dump {
	if r == nil {
		return nil
	}
	sn := r.Snapshot()
	d := &Dump{
		Snapshot:    sn,
		Stages:      make(map[string]StageSummary, NumStages),
		Wire:        Summarize(sn.Wire),
		SlackMet:    Summarize(sn.SlackMet),
		SlackMissed: Summarize(sn.SlackMissed),
		Pool:        pool,
		Traces:      r.Traces(),
		Exemplars:   r.Exemplars(),
	}
	for i := range sn.Stages {
		d.Stages[Stage(i).String()] = Summarize(sn.Stages[i])
	}
	return d
}

// WriteFile marshals the dump as indented JSON to path.
func (d *Dump) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal dump: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: write dump: %w", err)
	}
	return nil
}

// ReadDump parses a -trace-out JSON file (tools/benchjson's ingest path).
func ReadDump(path string) (*Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: read dump: %w", err)
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("telemetry: parse dump %s: %w", path, err)
	}
	return &d, nil
}

// StageNames returns the stage names in pipeline order (for stable tables).
func StageNames() []string {
	out := make([]string, NumStages)
	for i := range out {
		out[i] = Stage(i).String()
	}
	return out
}
