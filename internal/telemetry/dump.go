package telemetry

import (
	"encoding/json"
	"fmt"
	"os"

	"quamax/internal/metrics"
)

// Dump is the structured JSON trace dump written by -trace-out: the
// deployment's sample set at dump time (the series /metrics renders — stage,
// wire and slack histograms and the pool counters the traces reconcile
// against among them), the retained trace ring and the pinned exemplars.
type Dump struct {
	// Samples is the sample set in canonical order (metrics.Collect).
	Samples []metrics.Sample `json:"samples"`
	// Traces is the retained ring, oldest first (capped at the ring size;
	// the quamax_traces_finished_total samples count all spans ever
	// finished).
	Traces []Trace `json:"traces"`
	// Exemplars are the pinned worst-slack traces (see exemplar.go), worst
	// first — the named requests behind the tail.
	Exemplars []Trace `json:"exemplars,omitempty"`
}

// BuildDump assembles a Dump of a deployment's sample set and the recorder's
// ring and exemplars. The samples should include the recorder's own
// (Snapshot.Samples); a nil recorder builds no dump.
func BuildDump(r *Recorder, samples []metrics.Sample) *Dump {
	if r == nil {
		return nil
	}
	return &Dump{Samples: samples, Traces: r.Traces(), Exemplars: r.Exemplars()}
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
