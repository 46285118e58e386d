package sched

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/health"
	"quamax/internal/qos"
	"quamax/internal/router"
	"quamax/internal/telemetry"
)

// Certified requests reconcile like every other route: hard decodes with a
// target, dispatched from many goroutines over shared windows, are answered at
// admission — each one completion, one trace carrying its node count, one
// burn observation and one deadline verdict — while no backend runs, no
// backend counter or health observation moves, and every answer is the exact
// ML answer. A third of them carry a deadline they cannot meet: the
// certificate still answers them (it runs before the deadline projection),
// and they are counted as misses, once. Run under -race.
func TestCertifiedRequestsReconcile(t *testing.T) {
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Config{})
	tracker := health.NewTracker(health.Config{})
	burn := health.NewBurnTracker(1, health.SLOConfig{})
	pool := &lifecycleBackend{fakeBackend: fakeBackend{name: "qpu", est: 100}}
	fb := &lifecycleBackend{fakeBackend: fakeBackend{name: "fb", est: 10}}
	s, err := New(Config{
		Pool: []backend.Backend{pool}, Fallback: fb, Planner: pl,
		Telemetry: rec, Health: tracker, Burn: burn, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	var problems []*backend.Problem
	var want []detector.SphereResult
	for _, window := range noisyProblems(t, 4, 8) {
		key := core.FingerprintChannel(window[0].Mod, window[0].H)
		for _, p := range window {
			p.ChannelKey = key
			ml, err := detector.SphereDecode(p.Mod, p.H, p.Y, detector.SphereOptions{})
			if err != nil {
				t.Fatal(err)
			}
			problems = append(problems, p)
			want = append(want, ml)
		}
	}
	deadline := func(i int) time.Duration {
		if i%3 == 0 {
			return time.Nanosecond // blown before the search ends
		}
		return time.Hour
	}
	const workers = 8
	results := make([]*backend.Result, len(problems))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(problems); i += workers {
				res, err := s.Dispatch(context.Background(), problems[i], deadline(i))
				if err != nil {
					t.Errorf("dispatch %d: %v", i, err)
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	n := uint64(len(problems))
	missed := uint64(0)
	for i, res := range results {
		if deadline(i) < time.Microsecond {
			missed++
		}
		if res.Backend != CertificateBackend || res.Reads != 0 || res.ReadsPlanned != 0 {
			t.Fatalf("request %d served by %q with %d/%d reads, want the certificate and none", i, res.Backend, res.Reads, res.ReadsPlanned)
		}
		if !slices.Equal(res.Bits, want[i].Bits) || !relEqual(res.Energy, want[i].Metric) {
			t.Errorf("request %d: certified bits %v energy %v; the exact search's %v energy %v", i, res.Bits, res.Energy, want[i].Bits, want[i].Metric)
		}
	}
	assertReconciled(t, s)
	st, sn := s.Stats(), rec.Snapshot()
	if st.Submitted != n || st.Completed != n || st.Certified != n || sn.Traces != n || st.FallbackDispatches != 0 {
		t.Fatalf("submitted/completed/certified/traces/fallbacks = %d/%d/%d/%d/%d, want %d/%d/%d/%d/0",
			st.Submitted, st.Completed, st.Certified, sn.Traces, st.FallbackDispatches, n, n, n, n)
	}
	for _, be := range st.Backends {
		if be.Solved != 0 || be.Errors != 0 || be.ReadsPlanned != 0 {
			t.Errorf("backend %s moved: %+v", be.Name, be)
		}
	}
	if calls := pool.calls.Load() + fb.calls.Load(); calls != 0 {
		t.Errorf("backends ran %d solves", calls)
	}
	for _, h := range tracker.Snapshot() {
		if h.Observations != 0 {
			t.Errorf("health observed %s %d times", h.Name, h.Observations)
		}
	}
	if got := burn.Snapshot()[0].Observed; got != n {
		t.Errorf("burn tracker observed %d requests, want %d", got, n)
	}
	if st.DeadlineMisses != missed || sn.SlackMissed.Count != missed || sn.SlackMet.Count != n-missed {
		t.Errorf("misses %d, slack missed/met %d/%d; want %d missed of %d", st.DeadlineMisses, sn.SlackMissed.Count, sn.SlackMet.Count, missed, n)
	}
	for i, tr := range rec.Traces() {
		if tr.Backend != CertificateBackend || tr.CertifyNodes < 1 || tr.CertifyNodes > qos.CertifyNodes || tr.Fallback || tr.Failed {
			t.Errorf("trace %d: %+v", i, tr)
		}
	}
}

// A keyed, certified hard dispatch, through the router as the server sends
// it, allocates only its answer: the Result and its Bits. Admission holds the
// job and its trace on the stack, and the window's sphere program is built by
// the first dispatch, before the count.
func TestCertifiedDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu", est: 100}}, Planner: pl, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := router.New(router.Config{Shards: []router.Shard{s}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := noisyProblems(t, 1, 1)[0][0]
	p.ChannelKey = core.FingerprintChannel(p.Mod, p.H)
	p.TargetBER = 1e-3
	dispatch := func() {
		res, err := r.Dispatch(context.Background(), p, time.Hour)
		if err != nil || res.Backend != CertificateBackend {
			t.Fatalf("dispatch: %+v, %v; want the certificate's answer", res, err)
		}
	}
	dispatch()
	if allocs := testing.AllocsPerRun(200, dispatch); allocs > 2 {
		t.Fatalf("certified dispatch allocates %.2f objects, want ≤ 2", allocs)
	}
}
