package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/fronthaul"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/sched"
	"quamax/internal/telemetry"
)

// servedDump serves requests through the real producers — a scheduler with a
// planner behind a fronthaul server, all feeding one telemetry recorder — and
// dumps what they recorded. Half the requests carry a target BER (the
// certificate answers those at admission), half none (they queue for the SA
// pool member).
func servedDump(t *testing.T) (*telemetry.Dump, int) {
	t.Helper()
	rec := telemetry.New(telemetry.Config{})
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	planner.Telemetry = rec
	s, err := sched.New(sched.Config{
		Pool:      []backend.Backend{backend.NewClassicalSA("sa", 16, 4)},
		Planner:   planner,
		Seed:      1,
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := fronthaul.NewPoolServer(s)
	srv.Telemetry = rec
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := fronthaul.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	const requests = 8
	routes := map[string]int{}
	for i := 0; i < requests; i++ {
		in, err := mimo.Generate(src, mimo.Config{Mod: modulation.QPSK, Nt: 4, Nr: 4, Channel: channel.RandomPhase{}, SNRdB: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		target := 0.0
		if i%2 == 0 {
			target = 1e-3
		}
		resp, err := c.DecodeQoS(in.Mod, in.H, in.Y, time.Second, target)
		if err != nil {
			t.Fatal(err)
		}
		routes[resp.Backend]++
	}
	c.Close()
	l.Close()
	s.Close()
	if routes["certificate"] != requests/2 || routes["sa"] != requests/2 {
		t.Fatalf("backends %v, want %d certified and %d on sa", routes, requests/2, requests/2)
	}
	return telemetry.BuildDump(rec, metrics.Collect(s.Stats().Samples(), rec.Snapshot().Samples(), planner.Stats().Samples())), requests
}

// ingest writes d and runs -traces on it, returning the rows by name.
func ingest(t *testing.T, d *telemetry.Dump) (map[string]Result, error) {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "dump.json"), filepath.Join(dir, "rows.json")
	if err := d.WriteFile(in); err != nil {
		t.Fatal(err)
	}
	if err := ingestTraces(in, out); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	rows := map[string]Result{}
	for _, res := range r.Results {
		rows[res.Name] = res
	}
	return rows, nil
}

func TestIngestTracesRowsMatchTraces(t *testing.T) {
	d, requests := servedDump(t)
	rows, err := ingest(t, d)
	if err != nil {
		t.Fatal(err)
	}
	// Every request is one trace, one wire observation and, carrying a
	// deadline, one slack observation.
	slack := rows["TraceSlack/met"].Iterations + rows["TraceSlack/missed"].Iterations
	for name, n := range map[string]int64{"TraceStage/e2e": rows["TraceStage/e2e"].Iterations, "TraceWire": rows["TraceWire"].Iterations, "TraceSlack": slack} {
		if n != int64(requests) {
			t.Errorf("%s counts %d, want the %d traces", name, n, requests)
		}
	}
	for name, r := range rows {
		if strings.HasPrefix(name, "TraceExemplar/") {
			continue
		}
		if r.Metrics["p50-µs"] <= 0 || r.Metrics["max-µs"] < r.Metrics["p99-µs"] {
			t.Errorf("%s: implausible columns %v", name, r.Metrics)
		}
	}
	if _, ok := rows["TraceExemplar/0"]; !ok {
		t.Errorf("no exemplar row among %d rows", len(rows))
	}
}

func TestIngestTracesRefusesUnreconciledPool(t *testing.T) {
	d, _ := servedDump(t)
	bumped := false
	for i := range d.Samples {
		if d.Samples[i].Name == "quamax_pool_submitted_total" {
			d.Samples[i].Value++
			bumped = true
		}
	}
	if !bumped {
		t.Fatal("dump carries no pool counters")
	}
	if _, err := ingest(t, d); err == nil || !strings.Contains(err.Error(), "do not reconcile") {
		t.Fatalf("an unreconciled dump was ingested (err %v)", err)
	}
}
