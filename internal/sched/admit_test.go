package sched

import (
	"context"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/detector"
	"quamax/internal/health"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
)

// admit alone, with no Dispatch and no solve, routes each lifecycle steering
// request as Dispatch does, runs the problem the route needs — a planned copy
// for a planned route, the caller's own otherwise — and reports the nodes its
// search visited. The deadline-projected request leaves admit on the queue
// route, priced past its deadline: the queue rule is Dispatch's, under the
// lock. A best-effort 48×48 BPSK decode, as the bpsk48 workloads send it
// (no target, no deadline, on a pool that is not cost-aware), goes to the
// queue as the caller's own problem and factors nothing.
func TestAdmitRoutes(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	pool := &fakeBackend{name: "qpu", est: 100, cost: backend.DefaultQPUCostModel}
	fb := &fakeBackend{name: "fb", est: 10, cost: backend.DefaultClassicalCostModel}
	lifecycle, err := New(Config{Pool: []backend.Backend{pool}, Fallback: fb, Planner: pl, CostAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lifecycle.Close()
	plain, err := New(Config{Pool: []backend.Backend{pool}, Fallback: fb, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	in, err := mimo.Generate(rng.New(48), mimo.Config{Mod: modulation.BPSK, Nt: 48, Nr: 48, Channel: channel.Rayleigh{}, SNRdB: 20})
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		name     string
		s        *Scheduler
		p        *backend.Problem
		deadline time.Duration
		want     route
		planned  bool // a planned copy, not the caller's own problem
		nodes    int  // -1: a finished search, 1..qos.CertifyNodes nodes
	}
	var rows []row
	for r := routeQueue; r <= routeCertified; r++ {
		p, d := lifecycleRequest(t, r, 2000+int64(r))
		rw := row{name: r.String(), s: lifecycle, p: p, deadline: d, want: r}
		switch r {
		case routeQueue, routePlannerDenied:
			rw.planned, rw.nodes = true, qos.CertifyNodes+1
		case routeDeadlineProjected:
			rw.want = routeQueue
		case routeCertified:
			rw.nodes = -1
		}
		rows = append(rows, rw)
	}
	rows = append(rows, row{name: "bpsk48", s: plain, p: &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y}, want: routeQueue})

	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			before := detector.SphereCompiles()
			d := c.s.admit(c.p, c.deadline)
			compiles := detector.SphereCompiles() - before
			if d.route != c.want {
				t.Fatalf("routed %v, want %v", d.route, c.want)
			}
			if planned := d.p != c.p; planned != c.planned {
				t.Errorf("runs a planned copy: %v, want %v", planned, c.planned)
			}
			if c.planned && d.p.TargetBER != c.p.TargetBER {
				t.Errorf("planned copy carries target %g, the request %g", d.p.TargetBER, c.p.TargetBER)
			}
			if c.nodes < 0 {
				if d.proved == nil || d.nodes < 1 || d.nodes > qos.CertifyNodes {
					t.Errorf("certified after %d nodes with answer %v", d.nodes, d.proved)
				}
			} else if d.proved != nil || d.nodes != c.nodes {
				t.Errorf("%d nodes with answer %v, want %d and none", d.nodes, d.proved, c.nodes)
			}
			if c.nodes == 0 && compiles != 0 {
				t.Errorf("a request without a target factored %d sphere programs", compiles)
			}
			if c.name == routeDeadlineProjected.String() && d.est <= micros(c.deadline) {
				t.Errorf("priced at %v µs against a %v deadline: the queue rule would not fire", d.est, c.deadline)
			}
		})
	}
}

// Cost-aware dispatch prices the pool on the members that would serve: a
// cheap member the health plane quarantined takes no regular work, so a
// fallback cheaper than the dear member still serving wins a best-effort
// request, whatever the quarantined member would have charged.
func TestCostDivertSkipsQuarantinedMembers(t *testing.T) {
	tracker := health.NewTracker(health.Config{})
	cheap := &fakeBackend{name: "cheap", est: 100, cost: backend.CostModel{MicroUSDPerDeviceSecond: 1}}
	dear := &fakeBackend{name: "dear", est: 100, cost: backend.DefaultQPUCostModel}
	fb := &fakeBackend{name: "fb", est: 100, cost: backend.CostModel{MicroUSDPerDeviceSecond: 1000}}
	s, err := New(Config{Pool: []backend.Backend{cheap, dear}, Fallback: fb, CostAware: true, Health: tracker})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; tracker.State("cheap") != metrics.HealthQuarantined; i++ {
		if i == 100 {
			t.Fatal("100 failed outcomes did not quarantine the cheap member")
		}
		tracker.ObserveOutcome("cheap", true)
	}
	p, _ := testProblem(t, 45, modulation.QPSK, 4)
	res, err := s.Dispatch(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); res.Backend != "fb" || st.FallbackDispatches != 1 {
		t.Fatalf("served by %q with %d fallback dispatches: the quarantined member's price kept the request on the pool", res.Backend, st.FallbackDispatches)
	}
	if d := s.admit(p, 0); d.route != routeCostDivert {
		t.Fatalf("admit routed %v, want %v", d.route, routeCostDivert)
	}
}
