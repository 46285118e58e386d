package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/telemetry"
)

// The telemetry plane's core contract, over the same lifecycle table as
// TestStatsReconcileAcrossPaths: every terminal request — whatever its route,
// and whether it was solved, failed, panicked or was discarded after context
// cancellation — finishes exactly one trace, so the span count reconciles
// exactly with the PoolStats counters (Submitted == Completed + Failed ==
// traces), and the trace says which route and backend served it.
func TestTelemetryTracesReconcileAcrossPaths(t *testing.T) {
	r := runLifecycleTable(t)
	st := r.s.Stats()
	sn := r.rec.Snapshot()
	if st.Submitted != uint64(len(r.rows)) {
		t.Fatalf("submitted = %d, want %d", st.Submitted, len(r.rows))
	}
	if sn.Traces != st.Submitted || sn.Traces != st.Completed+st.Failed {
		t.Fatalf("traces=%d submitted=%d completed+failed=%d: not reconciled",
			sn.Traces, st.Submitted, st.Completed+st.Failed)
	}
	if sn.Failed != st.Failed {
		t.Fatalf("failed traces = %d, pool failed = %d", sn.Failed, st.Failed)
	}
	if got := sn.Stages[telemetry.StageE2E].Count; got != sn.Traces {
		t.Fatalf("e2e histogram count = %d, want %d", got, sn.Traces)
	}
	// Every request carried a deadline; each landed in exactly one slack side.
	if got := sn.SlackMet.Count + sn.SlackMissed.Count; got != sn.Traces {
		t.Fatalf("slack observations = %d, want %d", got, sn.Traces)
	}

	// Requests ran one at a time (the cancelled one ends after the solve it
	// queued behind), so traces finish in submission order.
	traces := r.rec.Traces()
	if len(traces) != len(r.rows) {
		t.Fatalf("ring holds %d traces, want %d", len(traces), len(r.rows))
	}
	var planned uint64
	for i, row := range r.rows {
		tr := traces[i]
		// A request with a target was searched: the certified one finished
		// inside the budget, the planned ones ran out of it.
		wantClass, wantBackend, wantNodes := "QPSK/4", "fb", 0
		switch row.route {
		case routeQueue:
			wantClass, wantBackend, wantNodes = "QPSK/16", "qpu", qos.CertifyNodes+1
			planned++
		case routePlannerDenied:
			wantClass, wantNodes = "16-QAM/16", qos.CertifyNodes+1
			planned++
		case routeCertified:
			wantBackend = CertificateBackend
		}
		if row.outcome == outcomeCancelled {
			wantBackend = "" // no backend ran it
		}
		nodesOK := tr.CertifyNodes == wantNodes
		if row.route == routeCertified {
			nodesOK = tr.CertifyNodes >= 1 && tr.CertifyNodes <= qos.CertifyNodes
		}
		if tr.Class != wantClass || tr.Backend != wantBackend ||
			tr.Route != row.route.String() ||
			!nodesOK ||
			tr.Failed != (row.outcome != outcomeOK) {
			t.Errorf("request %d (route %v, outcome %d): trace %+v", i, row.route, row.outcome, tr)
		}
		if tr.Stages[telemetry.StageE2E] <= 0 {
			t.Errorf("request %d: trace missing its e2e span: %+v", i, tr)
		}
	}
	// The planner ran for the target-BER requests the certificate did not
	// answer (it owns StagePlan).
	if got := sn.Stages[telemetry.StagePlan].Count; got != planned {
		t.Fatalf("plan histogram count = %d, want %d", got, planned)
	}
}

// steppedClock advances a fixed tick on every read, so a span is the number
// of clock reads it brackets.
type steppedClock struct {
	mu   sync.Mutex
	t    time.Time
	tick time.Duration
}

func (c *steppedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.tick)
	return c.t
}

// A request has one deadline, measured from Dispatch entry, on the pool and
// the fallback route alike: its trace satisfies e2e + slack == deadline
// exactly, and it counts as a miss when entry-to-finish exceeds the deadline
// even though the time since it was queued (pool) or since its solve started
// (fallback) does not.
func TestDeadlineMeasuredFromEntry(t *testing.T) {
	for _, tc := range []struct {
		name    string
		poolEst float64 // µs; an estimate past any deadline routes to the fallback
		route   string
	}{
		{"pool", 1, "queue"},
		{"fallback", 1e13, "deadline_projected"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &steppedClock{t: time.Unix(1_000_000, 0), tick: 10 * time.Microsecond}
			rec := telemetry.New(telemetry.Config{Now: clock.Now})
			s, err := New(Config{
				Pool:      []backend.Backend{&fakeBackend{name: "qpu", est: tc.poolEst}},
				Fallback:  &fakeBackend{name: "fb", est: 1},
				Telemetry: rec, Now: clock.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			p, _ := testProblem(t, 990, modulation.QPSK, 4)
			// A relaxed request measures how long the lifecycle takes on this
			// clock; the same request given half a tick less than that has
			// missed by the time it finishes, measured from entry, and not
			// missed measured from any later origin.
			if _, err := s.Dispatch(context.Background(), p, time.Hour); err != nil {
				t.Fatal(err)
			}
			e2e := time.Duration(rec.Traces()[0].Stages[telemetry.StageE2E]) * time.Microsecond
			if _, err := s.Dispatch(context.Background(), p, e2e-clock.tick/2); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().DeadlineMisses; got != 1 {
				t.Errorf("DeadlineMisses = %d, want 1: the second request finished %v after entry on a %v deadline",
					got, e2e, e2e-clock.tick/2)
			}
			traces := rec.Traces()
			if len(traces) != 2 {
				t.Fatalf("ring holds %d traces, want 2", len(traces))
			}
			if traces[0].SlackMicros <= 0 || traces[1].SlackMicros >= 0 {
				t.Errorf("slack %v then %v µs, want a met and a missed deadline", traces[0].SlackMicros, traces[1].SlackMicros)
			}
			for i, tr := range traces {
				if tr.Route != tc.route {
					t.Errorf("trace %d took the wrong route: %+v", i, tr)
				}
				if got := tr.Stages[telemetry.StageE2E] + tr.SlackMicros; got != tr.DeadlineMicros {
					t.Errorf("trace %d: e2e %v + slack %v = %v µs, want the deadline %v µs",
						i, tr.Stages[telemetry.StageE2E], tr.SlackMicros, got, tr.DeadlineMicros)
				}
			}
		})
	}
}

// With no Recorder configured, dispatch must not record anything anywhere —
// the nil path is the zero-overhead default.
func TestNoTelemetryByDefault(t *testing.T) {
	pool := &fakeBackend{name: "qpu", est: 100}
	s, err := New(Config{Pool: []backend.Backend{pool}})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := testProblem(t, 980, modulation.QPSK, 4)
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertReconciled(t, s)
}
