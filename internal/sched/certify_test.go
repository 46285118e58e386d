package sched

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/health"
	"quamax/internal/qos"
	"quamax/internal/rng"
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
	burn := health.NewBurnTracker(1)
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
		w := core.NewWindow(window[0].Mod, window[0].H)
		for _, p := range window {
			p.Window = w
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
		if tr.Backend != CertificateBackend || tr.CertifyNodes < 1 || tr.CertifyNodes > qos.CertifyNodes || tr.Route != "certified" || tr.Failed {
			t.Errorf("trace %d: %+v", i, tr)
		}
	}
}

// A keyed, certified hard dispatch, through the router as the server sends
// it, allocates nothing: its answer lands in the Result the problem lends
// (backend.Problem.Answer), its Bits in that Result's own capacity. Admission
// holds the job and its trace on the stack, and the window's sphere program
// and the lent Bits' capacity are built by the first dispatch, before the
// count. With no Result lent the answer is the two objects it was before.
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
	p.Window = core.NewWindow(p.Mod, p.H)
	p.TargetBER = 1e-3
	dispatch := func() {
		res, err := r.Dispatch(context.Background(), p, time.Hour)
		if err != nil || res.Backend != CertificateBackend {
			t.Fatalf("dispatch: %+v, %v; want the certificate's answer", res, err)
		}
		if p.Answer != nil && res != p.Answer {
			t.Fatal("the certificate's answer is not the lent Result")
		}
	}
	dispatch()
	if allocs := testing.AllocsPerRun(200, dispatch); allocs > 2 {
		t.Fatalf("certified dispatch with no Result lent allocates %.2f objects, want ≤ 2", allocs)
	}
	p.Answer = new(backend.Result)
	dispatch()
	if allocs := testing.AllocsPerRun(200, dispatch); allocs != 0 {
		t.Fatalf("certified dispatch into a lent Result allocates %.2f objects, want 0", allocs)
	}
}

// echoBackend answers after delay with a Result of its own, the one object
// a queued dispatch through it must allocate, whose Energy is the problem's
// first sample.
type echoBackend struct {
	caps  backend.Capabilities
	delay time.Duration
}

func (e *echoBackend) Describe() *backend.Capabilities { return &e.caps }
func (e *echoBackend) Solve(_ context.Context, p *backend.Problem, _ *rng.Source) (*backend.Result, error) {
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	return &backend.Result{Backend: e.caps.Name, Energy: real(p.Y[0])}, nil
}

// A queued dispatch allocates nothing of the scheduler's in steady state: its
// job comes from the free list with its done channel and its answer storage,
// the queue keeps its backing array, and a batch of one returns its result in
// the worker's own slice. Only a backend's own Result is new: one that
// answers in the storage the job lends it (backend.Problem.Answer) allocates
// nothing, and the answer is copied into the caller's lent Result, if any, in
// its capacity.
func TestQueuedDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	latency := func(*backend.Problem) float64 { return 1 }
	for _, c := range []struct {
		be   backend.Backend
		lent bool
		max  float64
	}{
		{&echoBackend{caps: backend.Capabilities{Name: "echo", Latency: latency}}, false, 1},
		{&echoBackend{caps: backend.Capabilities{Name: "echo", Latency: latency}}, true, 1},
		{newLendingBackend(1, false), true, 0},
	} {
		s, err := New(Config{Pool: []backend.Backend{c.be}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		p := *noisyProblems(t, 1, 1)[0][0]
		if c.lent {
			p.Answer = new(backend.Result)
		}
		name := c.be.Describe().Name
		dispatch := func() {
			res, err := s.Dispatch(context.Background(), &p, time.Hour)
			if err != nil || res.Backend != name || res.Energy != real(p.Y[0]) {
				t.Fatalf("dispatch: %+v, %v; want the %s's answer", res, err, name)
			}
			if c.lent && res != p.Answer {
				t.Fatalf("the %s's answer is not in the lent Result", name)
			}
		}
		dispatch()
		if allocs := testing.AllocsPerRun(200, dispatch); allocs > c.max {
			t.Errorf("a queued dispatch through the %s (Result lent: %v) allocates %.2f objects, want ≤ %v", name, c.lent, allocs, c.max)
		}
		s.Close()
	}
}

// Queued jobs are reused, and a job goes back to the free list only when both
// sides are through with it: many goroutines dispatch through two slow
// workers while a third of them give up with their job still queued, so
// Dispatch frees some jobs and the workers free the abandoned ones. Every
// answer is its own problem's, every give-up reports its context, and the
// counters reconcile. CI runs this under -race -count=10.
func TestQueuedJobsReusedAcrossCancellation(t *testing.T) {
	caps := backend.Capabilities{Name: "echo", Latency: func(*backend.Problem) float64 { return 1 }}
	s, err := New(Config{Pool: []backend.Backend{
		&echoBackend{caps: caps, delay: 50 * time.Microsecond}, &echoBackend{caps: caps, delay: 50 * time.Microsecond},
	}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := float64(g*rounds + r)
				p := &backend.Problem{Y: []complex128{complex(id, 0)}}
				ctx, cancel := context.WithCancel(context.Background())
				if r%3 == 0 {
					cancel()
				}
				res, err := s.Dispatch(ctx, p, time.Hour)
				cancel()
				switch {
				case err != nil && !errors.Is(err, context.Canceled):
					t.Errorf("caller %d round %d: %v", g, r, err)
				case err == nil && res.Energy != id:
					t.Errorf("caller %d round %d: the answer to problem %v", g, r, res.Energy)
				case err != nil && r%3 != 0:
					t.Errorf("caller %d round %d gave up uncancelled: %v", g, r, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Completed+st.Failed != callers*rounds || st.Submitted != callers*rounds {
		t.Fatalf("submitted %d, completed %d, failed %d; want %d submitted, all ended", st.Submitted, st.Completed, st.Failed, callers*rounds)
	}
	// Every job made is back on the list, and no more were made than could
	// be live at once: one per caller, plus those it abandoned to the queue.
	s.mu.Lock()
	defer s.mu.Unlock()
	if abandoned := (rounds + 2) / 3; len(s.free) == 0 || len(s.free) > callers*(1+abandoned) {
		t.Fatalf("%d jobs made for %d callers of %d dispatches each", len(s.free), callers, rounds)
	}
}
