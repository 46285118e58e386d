package sched

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/health"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/telemetry"
)

// fakeBackend is a deterministic Backend for scheduler-mechanics tests.
type fakeBackend struct {
	name  string
	est   float64
	cost  backend.CostModel
	delay time.Duration
	gate  chan struct{} // when non-nil, each Solve first receives from it

	mu    sync.Mutex
	order []*backend.Problem
}

func (f *fakeBackend) Describe() *backend.Capabilities {
	return &backend.Capabilities{
		Name:    f.name,
		Latency: func(p *backend.Problem) float64 { return f.est },
		Cost:    f.cost,
	}
}
func (f *fakeBackend) record(p *backend.Problem) {
	f.mu.Lock()
	f.order = append(f.order, p)
	f.mu.Unlock()
}
func (f *fakeBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.record(p)
	return &backend.Result{Bits: []byte{0}, Backend: f.name, Batched: 1}, nil
}

// fakeBatchBackend adds deterministic batch capability.
type fakeBatchBackend struct {
	fakeBackend
	slots   int
	batches []int // sizes of SolveBatch calls
}

func (f *fakeBatchBackend) BatchSlots(p *backend.Problem) int { return f.slots }
func (f *fakeBatchBackend) SolveBatch(ctx context.Context, ps []*backend.Problem, src *rng.Source) ([]*backend.Result, error) {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.batches = append(f.batches, len(ps))
	f.mu.Unlock()
	out := make([]*backend.Result, len(ps))
	for i, p := range ps {
		f.record(p)
		out[i] = &backend.Result{Bits: []byte{0}, Backend: f.name, Batched: len(ps)}
	}
	return out, nil
}

func testProblem(t *testing.T, seed int64, mod modulation.Modulation, nt int) (*backend.Problem, *mimo.Instance) {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y}, in
}

// uncertifiedWindow draws symbols requests through one seeded Rayleigh channel
// the certificate cannot finish on, so admission hands them to the planner
// (NoiseVar carries the draw's σ², which only a soft request reads):
// 16×16 QPSK at −6 dB, or 16×16 16-QAM at 10 dB (32 and 64 logical spins: the
// QPSK class shares device runs on the default chip; each ran out of nodes on
// 1,000 of 1,000 seeded draws). Each
// carries no target BER and is asserted to run its hard search out of
// qos.CertifyNodes nodes; a soft search visits every node the hard one does,
// so it runs out too. A test that needs the planner thereby fails loudly
// instead of quietly testing the certificate.
func uncertifiedWindow(t *testing.T, seed int64, mod modulation.Modulation, symbols int) []*backend.Problem {
	t.Helper()
	snr := -6.0
	if mod == modulation.QAM16 {
		snr = 10
	}
	src := rng.New(seed)
	cfg := mimo.Config{Mod: mod, Nt: 16, Nr: 16, Channel: channel.Rayleigh{}, SNRdB: snr}
	first, err := mimo.Generate(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := detector.CompileSphere(mod, first.H)
	out := make([]*backend.Problem, symbols)
	for i := range out {
		in, err := mimo.FromParts(src, cfg, first.H, src.Bits(16*mod.BitsPerSymbol()))
		if err != nil {
			t.Fatal(err)
		}
		if e := qos.EstimateInto(est, in.Y, qos.CertifyNodes, nil, nil, nil); e.Proved {
			t.Fatalf("seed %d symbol %d: the certificate finished in %d nodes; the request would never reach the planner", seed, i, e.Nodes)
		}
		out[i] = &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y, NoiseVar: in.NoiseVariance()}
	}
	return out
}

// uncertified is one request of uncertifiedWindow.
func uncertified(t *testing.T, seed int64, mod modulation.Modulation) *backend.Problem {
	t.Helper()
	return uncertifiedWindow(t, seed, mod, 1)[0]
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A saturated single-worker pool must serve queued problems in FIFO order.
func TestFIFOFairnessUnderSaturation(t *testing.T) {
	f := &fakeBackend{name: "slow", est: 100, gate: make(chan struct{})}
	s, err := New(Config{Pool: []backend.Backend{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 6
	probs := make([]*backend.Problem, n)
	for i := range probs {
		probs[i], _ = testProblem(t, int64(100+i), modulation.BPSK, 2)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Dispatch(context.Background(), probs[i], 0); err != nil {
				t.Errorf("dispatch %d: %v", i, err)
			}
		}()
		// Admission order defines FIFO order: wait until this submission is
		// queued (or, for the first, picked up by the gated worker) before
		// launching the next.
		waitFor(t, "admission", func() bool {
			st := s.Stats()
			return st.Submitted == uint64(i+1) && (i == 0 || st.QueueDepth == i)
		})
	}
	close(f.gate) // release the worker
	wg.Wait()

	if len(f.order) != n {
		t.Fatalf("served %d problems, want %d", len(f.order), n)
	}
	for i, p := range f.order {
		if p != probs[i] {
			t.Fatalf("service order violates FIFO at position %d", i)
		}
	}
	if st := s.Stats(); st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// A deadline the pool cannot meet must route to the classical fallback
// without touching the queue.
func TestDeadlineRoutesToFallback(t *testing.T) {
	pool := &fakeBackend{name: "qpu", est: 1e6} // 1 s per solve
	fb := &fakeBackend{name: "fb", est: 10}
	s, err := New(Config{Pool: []backend.Backend{pool}, Fallback: fb})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p, _ := testProblem(t, 200, modulation.BPSK, 2)
	res, err := s.Dispatch(context.Background(), p, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "fb" {
		t.Fatalf("dispatched to %q, want fallback", res.Backend)
	}
	st := s.Stats()
	if st.FallbackDispatches != 1 || len(pool.order) != 0 {
		t.Fatalf("fallback accounting: %+v (pool served %d)", st, len(pool.order))
	}

	// A relaxed deadline keeps the problem on the pool.
	res, err = s.Dispatch(context.Background(), p, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "qpu" {
		t.Fatalf("relaxed deadline dispatched to %q, want pool", res.Backend)
	}
}

// Acceptance: with the real annealer, a deadline shorter than the annealer's
// queue+anneal time provably routes to the classical SA fallback, and the
// fallback still decodes correctly.
func TestDeadlineFallbackWithRealAnnealer(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu0", core.Options{
		Graph:  chimera.New(6),
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	sa := backend.NewClassicalSA("sa", 128, 60)
	s, err := New(Config{Pool: []backend.Backend{qpu}, Fallback: sa, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p, in := testProblem(t, 300, modulation.QPSK, 4)
	// Annealer service time is Na·(Ta+Tp) = 200 µs even with an empty queue;
	// a 50 µs deadline is unmeetable on the QPU.
	if est := qpu.Describe().PredictMicros(p); est < 200 {
		t.Fatalf("annealer estimate %g µs, expected 200", est)
	}
	res, err := s.Dispatch(context.Background(), p, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sa" {
		t.Fatalf("deadline-constrained decode ran on %q, want classical fallback", res.Backend)
	}
	if errs := in.BitErrors(res.Bits); errs != 0 {
		t.Fatalf("fallback decode: %d bit errors", errs)
	}
	if st := s.Stats(); st.FallbackDispatches != 1 {
		t.Fatalf("FallbackDispatches = %d, want 1", st.FallbackDispatches)
	}

	// The same problem with a generous deadline runs on the QPU.
	res, err = s.Dispatch(context.Background(), p, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "qpu0" {
		t.Fatalf("relaxed decode ran on %q, want qpu0", res.Backend)
	}
	if errs := in.BitErrors(res.Bits); errs != 0 {
		t.Fatalf("pool decode: %d bit errors", errs)
	}
}

// Close must drain queued and in-flight work, then reject new submissions.
func TestGracefulDrain(t *testing.T) {
	f := &fakeBackend{name: "slow", est: 100, delay: 5 * time.Millisecond}
	s, err := New(Config{Pool: []backend.Backend{f}})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	results := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		p, _ := testProblem(t, int64(400+i), modulation.BPSK, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[i] = s.Dispatch(context.Background(), p, 0)
		}()
	}
	waitFor(t, "all submissions admitted", func() bool { return s.Stats().Submitted == n })

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("dispatch %d dropped during drain: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Completed != n || st.QueueDepth != 0 {
		t.Fatalf("drain left stats %+v", st)
	}
	p, _ := testProblem(t, 499, modulation.BPSK, 2)
	if _, err := s.Dispatch(context.Background(), p, 0); err != ErrClosed {
		t.Fatalf("post-close dispatch: %v, want ErrClosed", err)
	}
}

// A backlog of batch-compatible problems must ride one batched run, and the
// occupancy stats must reflect it.
func TestBatchingDrainsCompatibleQueue(t *testing.T) {
	f := &fakeBatchBackend{
		fakeBackend: fakeBackend{name: "qpu", est: 100, gate: make(chan struct{})},
		slots:       8,
	}
	s, err := New(Config{Pool: []backend.Backend{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	dispatch := func(seed int64, nt int) {
		p, _ := testProblem(t, seed, modulation.BPSK, nt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
				t.Errorf("dispatch: %v", err)
			}
		}()
	}

	// First problem occupies the gated worker solo.
	dispatch(500, 2)
	waitFor(t, "worker busy", func() bool { return s.Stats().Submitted == 1 && s.Stats().QueueDepth == 0 })
	// Queue: three batch-compatible (N=2) and one incompatible (N=4) problem.
	for i := 0; i < 3; i++ {
		dispatch(int64(501+i), 2)
	}
	dispatch(504, 4)
	waitFor(t, "backlog queued", func() bool { return s.Stats().QueueDepth == 4 })

	f.gate <- struct{}{} // solo head-of-line solve
	f.gate <- struct{}{} // batched run of the three compatible problems
	f.gate <- struct{}{} // solo run of the incompatible problem
	wg.Wait()

	f.mu.Lock()
	batches := append([]int(nil), f.batches...)
	f.mu.Unlock()
	if len(batches) != 1 || batches[0] != 3 {
		t.Fatalf("batched runs %v, want one run of 3", batches)
	}
	st := s.Stats()
	if st.BatchRuns != 1 || st.BatchedProblems != 3 {
		t.Fatalf("batch stats: %+v", st)
	}
	if want := 3.0 / 8.0; math.Abs(st.SlotOccupancy-want) > 1e-9 {
		t.Fatalf("SlotOccupancy = %g, want %g", st.SlotOccupancy, want)
	}
}

// gatedAnnealer delays the first annealer run so a cross-request batch can
// form behind it.
type gatedAnnealer struct {
	*backend.Annealer
	once    sync.Once
	entered chan struct{} // closed when the first run reaches the gate
	gate    chan struct{}
}

func (g *gatedAnnealer) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.Annealer.Solve(ctx, p, src)
}

// End-to-end: concurrent requests through a real annealer pool get batched
// into shared embedding slots and still decode correctly.
func TestRealAnnealerBatchThroughScheduler(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu0", core.Options{
		Graph:  chimera.New(6),
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedAnnealer{Annealer: qpu, entered: make(chan struct{}), gate: make(chan struct{})}
	s, err := New(Config{Pool: []backend.Backend{gated}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 5
	type outcome struct {
		res *backend.Result
		err error
	}
	ins := make([]*mimo.Instance, n)
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	dispatch := func(i int) {
		p, in := testProblem(t, int64(600+i), modulation.QPSK, 2)
		ins[i] = in
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Dispatch(context.Background(), p, 0)
			outs[i] = outcome{res, err}
		}()
	}
	// Admit the head job alone and wait until the gated worker holds it in
	// Solve — past its gather, which would otherwise sweep up the requests
	// below — so they provably queue behind one blocked run.
	dispatch(0)
	<-gated.entered
	for i := 1; i < n; i++ {
		dispatch(i)
	}
	waitFor(t, "backlog behind gated run", func() bool {
		return s.Stats().QueueDepth == n-1
	})
	close(gated.gate)
	wg.Wait()

	batchedMax := 0
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("dispatch %d: %v", i, o.err)
		}
		if errs := ins[i].BitErrors(o.res.Bits); errs != 0 {
			t.Errorf("request %d: %d bit errors", i, errs)
		}
		if o.res.Batched > batchedMax {
			batchedMax = o.res.Batched
		}
	}
	if batchedMax < n-1 {
		t.Fatalf("largest batch %d, want the %d queued requests to share one run", batchedMax, n-1)
	}
	st := s.Stats()
	if st.BatchRuns < 1 || st.SlotOccupancy <= 0 {
		t.Fatalf("batch stats: %+v", st)
	}
}

// plannerTable is a minimal QPSK fit for scheduler planning tests: 4-user
// QPSK at 20–30 dB with p0=0.5, zero floor, 0.1 spread.
func plannerTable() *qos.Table { return flatTable("QPSK", 4) }

// flatTable fits mod at 16 users with one operating point (chain strength jf)
// and one distribution from −20 to 30 dB (p0 = 0.5, spread 0.1, no floor): an
// uncertified request of mod plans alike whatever its SNR estimate, and a
// soft target of 1e-3 — relieved SoftTargetRelief× to 4e-3 — plans
// (0.5)^Na·0.1 ≤ 4e-3 → Na = 5 reads. Every other modulation is unfitted:
// the planner denies it.
func flatTable(mod string, jf float64) *qos.Table {
	pt := qos.Point{Mod: mod, Nt: 16, SNRdB: -20, Mode: qos.ModeForward, P0: 0.5, FloorBER: 0, SpreadBER: 0.1}
	top := pt
	top.SNRdB = 30
	return &qos.Table{
		Ops:    []qos.ClassOp{{Mod: mod, JF: jf, Ta: 1, Tp: 1, Sp: 0.35}},
		Points: []qos.Point{pt, top},
	}
}

// The planner tests below dispatch uncertified requests: anything the
// certificate search finishes — hard or soft — is answered at admission and
// never meets the planner.

// A target-BER request must reach the backend with a planner-sized anneal
// budget, leaving the caller's Problem untouched.
func TestPlannerSizesAnnealBudget(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBackend{name: "qpu", est: 100}
	s, err := New(Config{Pool: []backend.Backend{f}, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A soft 1e-3 on the flat table: (0.5)^Na·0.1 ≤ 4e-3 → Na = 5.
	p := uncertified(t, 900, modulation.QPSK)
	p.TargetBER, p.Soft = 1e-3, true
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	if p.Anneal != nil {
		t.Fatal("Dispatch mutated the caller's Problem")
	}
	f.mu.Lock()
	served := f.order[0]
	f.mu.Unlock()
	if served.Anneal == nil || served.Anneal.NumAnneals != 5 {
		t.Fatalf("backend saw Anneal=%+v, want a 5-read budget", served.Anneal)
	}
	if served.Anneal.AnnealTimeMicros != 1 || served.Anneal.PauseTimeMicros != 1 {
		t.Fatalf("backend saw schedule %+v, want the class operating point", served.Anneal)
	}
}

// A planner denial must route to the classical fallback and be counted.
func TestPlannerDenialRoutesToFallback(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	pool := &fakeBackend{name: "qpu", est: 100}
	fb := &fakeBackend{name: "fb", est: 10}
	s, err := New(Config{Pool: []backend.Backend{pool}, Fallback: fb, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 16-QAM is not in the table: the planner denies quantum dispatch even
	// though the pool queue is empty and the deadline generous.
	p := uncertified(t, 901, modulation.QAM16)
	p.TargetBER = 1e-3
	res, err := s.Dispatch(context.Background(), p, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "fb" {
		t.Fatalf("dispatched to %q, want planner-denied fallback", res.Backend)
	}
	st := s.Stats()
	if st.PlannerClassical != 1 || st.FallbackDispatches != 1 || len(pool.order) != 0 {
		t.Fatalf("planner accounting: %+v (pool served %d)", st, len(pool.order))
	}

	// The planner's own stats recorded the denial reason.
	if pst := pl.Stats(); pst.Classical != 1 || pst.ByReason[qos.ReasonUnfittedClass] != 1 {
		t.Fatalf("planner stats: %+v", pst)
	}
}

// DefaultTargetBER must apply to requests that carry no target of their own.
func TestPlannerDefaultTargetBER(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBackend{name: "qpu", est: 100}
	s, err := New(Config{Pool: []backend.Backend{f}, Planner: pl, DefaultTargetBER: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := uncertified(t, 902, modulation.QPSK)
	p.Soft = true
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	served := f.order[0]
	f.mu.Unlock()
	if served.Anneal == nil || served.Anneal.NumAnneals != 5 {
		t.Fatalf("backend saw Anneal=%+v, want the default-target 5-read budget", served.Anneal)
	}
}

// Jobs whose anneal schedules disagree must not share a batched run.
func TestBatchRequiresCompatibleAnnealParams(t *testing.T) {
	f := &fakeBatchBackend{
		fakeBackend: fakeBackend{name: "qpu", est: 100, gate: make(chan struct{})},
		slots:       8,
	}
	s, err := New(Config{Pool: []backend.Backend{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	dispatch := func(seed int64, params *anneal.Params) {
		p, _ := testProblem(t, seed, modulation.BPSK, 2)
		p.Anneal = params
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
				t.Errorf("dispatch: %v", err)
			}
		}()
	}

	sized := func(na int, ta float64) *anneal.Params {
		return &anneal.Params{AnnealTimeMicros: ta, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: na}
	}
	// Head occupies the gated worker; then two jobs sharing one schedule
	// (different read budgets — compatible) and one with a longer anneal
	// time (incompatible).
	dispatch(910, sized(10, 1))
	waitFor(t, "worker busy", func() bool { return s.Stats().Submitted == 1 && s.Stats().QueueDepth == 0 })
	dispatch(911, sized(10, 1))
	dispatch(912, sized(40, 1))
	dispatch(913, sized(10, 2))
	waitFor(t, "backlog queued", func() bool { return s.Stats().QueueDepth == 3 })

	f.gate <- struct{}{} // head solo
	f.gate <- struct{}{} // batch of the two compatible jobs
	f.gate <- struct{}{} // incompatible job solo
	wg.Wait()

	f.mu.Lock()
	batches := append([]int(nil), f.batches...)
	f.mu.Unlock()
	if len(batches) != 1 || batches[0] != 2 {
		t.Fatalf("batched runs %v, want one run of 2", batches)
	}
}

// Without a fallback, a deadline-driven planner denial must run the clamped
// best-effort budget instead of the static configuration.
func TestPlannerBestEffortWithoutFallback(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBackend{name: "qpu", est: 100}
	s, err := New(Config{Pool: []backend.Backend{f}, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The flat table's fit needs 5 reads (10 µs) for a soft 1e-3; an 8 µs
	// deadline fits 4.
	p := uncertified(t, 930, modulation.QPSK)
	p.TargetBER, p.Soft = 1e-3, true
	if _, err := s.Dispatch(context.Background(), p, 8*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	served := f.order[0]
	f.mu.Unlock()
	if served.Anneal == nil || served.Anneal.NumAnneals != 4 {
		t.Fatalf("backend saw Anneal=%+v, want the clamped 4-read best effort", served.Anneal)
	}
	if st := s.Stats(); st.PlannerClassical != 0 || st.FallbackDispatches != 0 {
		t.Fatalf("best-effort dispatch miscounted: %+v", st)
	}
}

// The planner's fitted chain strength must reach the backend.
func TestPlannerAppliesChainStrength(t *testing.T) {
	pl, err := qos.NewPlanner(flatTable("16-QAM", 12)) // as the built-in table fits 16-QAM
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBackend{name: "qpu", est: 100}
	s, err := New(Config{Pool: []backend.Backend{f}, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := uncertified(t, 931, modulation.QAM16)
	p.TargetBER = 0.05
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	served := f.order[0]
	f.mu.Unlock()
	if served.ChainJF != 12 {
		t.Fatalf("backend saw ChainJF=%g, want the fitted 12", served.ChainJF)
	}
}

// assertReconciled checks the PoolStats accounting invariant after a drain:
// every submitted problem is exactly one of completed or failed, completions
// are the per-backend solved counters plus the certificate's answers, and
// planner denials are a subset of fallback dispatches.
func assertReconciled(t *testing.T, s *Scheduler) {
	t.Helper()
	st := s.Stats()
	if st.QueueDepth != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
	if st.Submitted != st.Completed+st.Failed {
		t.Fatalf("Submitted %d != Completed %d + Failed %d", st.Submitted, st.Completed, st.Failed)
	}
	var solved, errors uint64
	for _, be := range st.Backends {
		solved += be.Solved
		errors += be.Errors
	}
	if solved+st.Certified != st.Completed {
		t.Fatalf("Σ backend Solved %d + Certified %d != Completed %d (%+v)", solved, st.Certified, st.Completed, st)
	}
	if errors > st.Failed {
		t.Fatalf("Σ backend Errors %d > Failed %d", errors, st.Failed)
	}
	if st.PlannerClassical > st.FallbackDispatches {
		t.Fatalf("PlannerClassical %d > FallbackDispatches %d", st.PlannerClassical, st.FallbackDispatches)
	}
}

// The outcomes a request can end in, the second axis of the lifecycle table.
const (
	outcomeOK = iota
	outcomeError
	outcomePanic
	outcomeCancelled // queue route only: the submitter gives up while queued
)

var errSolverFault = errors.New("injected solver fault")

// lifecycleBackend answers, fails or panics as its mode says, counts the
// solves it ran, and can hold one solve until released so work queues
// behind it.
type lifecycleBackend struct {
	fakeBackend
	mode  atomic.Int32 // the outcome of the solves that follow
	calls atomic.Int64
	hold  atomic.Pointer[chan struct{}] // taken by the next solve, which waits on it
}

func (b *lifecycleBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	b.calls.Add(1)
	if h := b.hold.Swap(nil); h != nil {
		<-*h
	}
	switch b.mode.Load() {
	case outcomeError:
		return nil, errSolverFault
	case outcomePanic:
		panic("solver bug")
	}
	return b.fakeBackend.Solve(ctx, p, src)
}

// lifecycleRow is one request of the lifecycle table, in submission order.
type lifecycleRow struct {
	route   route
	outcome int
}

// lifecycleRun is a drained scheduler that served the lifecycle table with
// every plane attached.
type lifecycleRun struct {
	s        *Scheduler
	rec      *telemetry.Recorder
	tracker  *health.Tracker
	burn     *health.BurnTracker
	pool, fb *lifecycleBackend
	rows     []lifecycleRow
}

// lifecycleRequest is what steers a request down route r on a lifecycle
// scheduler (pool estimate 100 µs, fallback 10 µs and cheaper, cost-aware,
// the flat QPSK table). The planned routes carry uncertified requests: the
// certificate answers the others at admission.
func lifecycleRequest(t *testing.T, r route, seed int64) (*backend.Problem, time.Duration) {
	t.Helper()
	switch r {
	case routeQueue: // a hard BER class keeps its QPU reads whatever the price
		p := uncertified(t, seed, modulation.QPSK)
		p.TargetBER = 1e-9
		return p, time.Hour
	case routePlannerDenied: // 16-QAM is not in the table
		p := uncertified(t, seed, modulation.QAM16)
		p.TargetBER = 1e-3
		return p, time.Hour
	case routeCertified: // a hard decode with a target: the search proves it
		p, _ := testProblem(t, seed, modulation.QPSK, 4)
		p.TargetBER = 1e-3
		return p, time.Hour
	case routeCostDivert: // best effort, and the fallback is cheaper
		p, _ := testProblem(t, seed, modulation.QPSK, 4)
		return p, time.Hour
	default: // 5 µs: too tight for the fallback to divert for cost, and for the pool
		p, _ := testProblem(t, seed, modulation.QPSK, 4)
		return p, 5 * time.Microsecond
	}
}

// runLifecycleTable drives {queue, plannerDenied, costDivert,
// deadlineProjected} × {ok, solver error, panic, cancelled while queued
// (queue route only)}, plus the certified route (ok only: no backend runs
// it), through one scheduler, one request at a time, checks what each
// submitter got back, and closes the scheduler.
func runLifecycleTable(t *testing.T) *lifecycleRun {
	t.Helper()
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	r := &lifecycleRun{
		rec:     telemetry.New(telemetry.Config{}),
		tracker: health.NewTracker(health.Config{}),
		burn:    health.NewBurnTracker(1),
		pool:    &lifecycleBackend{fakeBackend: fakeBackend{name: "qpu", est: 100, cost: backend.DefaultQPUCostModel}},
		fb:      &lifecycleBackend{fakeBackend: fakeBackend{name: "fb", est: 10, cost: backend.DefaultClassicalCostModel}},
	}
	pl.Telemetry = r.rec
	r.s, err = New(Config{
		Pool: []backend.Backend{r.pool}, Fallback: r.fb, Planner: pl, CostAware: true,
		Telemetry: r.rec, Health: r.tracker, Burn: r.burn, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	dispatch := func(ctx context.Context, route route, outcome int) error {
		p, d := lifecycleRequest(t, route, int64(1000+len(r.rows)))
		r.rows = append(r.rows, lifecycleRow{route, outcome})
		_, err := r.s.Dispatch(ctx, p, d)
		return err
	}
	for route := routeQueue; route <= routeCertified; route++ {
		be := r.fb
		if route == routeQueue {
			be = r.pool
		}
		last := outcomePanic
		if route == routeCertified {
			last = outcomeOK // no backend runs it: nothing can fail
		}
		for outcome := outcomeOK; outcome <= last; outcome++ {
			be.mode.Store(int32(outcome))
			err := dispatch(context.Background(), route, outcome)
			var pe *PanicError
			switch {
			case outcome == outcomeOK && err != nil,
				outcome == outcomeError && !errors.Is(err, errSolverFault),
				outcome == outcomePanic && !(errors.As(err, &pe) && pe.Backend == be.name):
				t.Fatalf("route %v outcome %d: submitter got %v", route, outcome, err)
			}
		}
		be.mode.Store(outcomeOK)
	}

	// Cancelled while queued: a held solve occupies the worker, the next
	// request queues behind it, its submitter gives up, and the worker ends
	// it unsolved when it surfaces.
	hold := make(chan struct{})
	r.pool.hold.Store(&hold)
	held := make(chan error, 1)
	go func() { held <- dispatch(context.Background(), routeQueue, outcomeOK) }()
	waitFor(t, "the held solve to start", func() bool { return r.pool.hold.Load() == nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() { cancelled <- dispatch(ctx, routeQueue, outcomeCancelled) }()
	waitFor(t, "the second request to queue", func() bool { return r.s.Stats().QueueDepth == 1 })
	cancel()
	if err := <-cancelled; err != context.Canceled {
		t.Fatalf("cancelled dispatch returned %v", err)
	}
	close(hold)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := r.s.Close(); err != nil {
		t.Fatal(err)
	}
	return r
}

// The ledger must reconcile over the whole lifecycle — every route crossed
// with every way a request can end — with health, burn and telemetry
// attached: each request is exactly one of completed or failed, each route
// moves the dispatch counters it always did, and every request a backend ran
// is one solved-or-error on that backend, one health outcome and one burn
// observation; a certified request is one completion and one burn
// observation on no backend; a request cancelled while queued is none of
// those.
func TestStatsReconcileAcrossPaths(t *testing.T) {
	r := runLifecycleTable(t)
	assertReconciled(t, r.s)
	var want struct{ completed, failed, fallbacks, denied, certified, burned uint64 }
	type served struct{ solved, errors uint64 }
	wantServed := map[*lifecycleBackend]*served{r.pool: {}, r.fb: {}}
	for _, row := range r.rows {
		if row.route == routeCertified {
			want.completed++
			want.certified++
			want.burned++
			continue
		}
		be := wantServed[r.fb]
		if row.route == routeQueue {
			be = wantServed[r.pool]
		} else {
			want.fallbacks++
		}
		if row.route == routePlannerDenied {
			want.denied++
		}
		switch row.outcome {
		case outcomeOK:
			want.completed++
			be.solved++
		case outcomeCancelled: // failed, but no backend ran it
			want.failed++
		default:
			want.failed++
			be.errors++
		}
		if row.outcome != outcomeCancelled {
			want.burned++
		}
	}
	st := r.s.Stats()
	if st.Submitted != uint64(len(r.rows)) || st.Completed != want.completed || st.Failed != want.failed {
		t.Fatalf("submitted/completed/failed = %d/%d/%d, want %d/%d/%d",
			st.Submitted, st.Completed, st.Failed, len(r.rows), want.completed, want.failed)
	}
	if st.FallbackDispatches != want.fallbacks || st.PlannerClassical != want.denied || st.Certified != want.certified {
		t.Fatalf("FallbackDispatches/PlannerClassical/Certified = %d/%d/%d, want %d/%d/%d",
			st.FallbackDispatches, st.PlannerClassical, st.Certified, want.fallbacks, want.denied, want.certified)
	}
	if st.BatchRuns != 0 || st.BatchedProblems != 0 {
		t.Fatalf("a non-batch pool recorded %d batch runs of %d problems", st.BatchRuns, st.BatchedProblems)
	}
	observations := make(map[string]uint64)
	for _, h := range r.tracker.Snapshot() {
		observations[h.Name] = h.Observations
	}
	for _, be := range []*lifecycleBackend{r.pool, r.fb} {
		var bs metrics.BackendStats
		for _, b := range st.Backends {
			if b.Name == be.name {
				bs = b
			}
		}
		if w := wantServed[be]; bs.Solved != w.solved || bs.Errors != w.errors || bs.Solved+bs.Errors != uint64(be.calls.Load()) {
			t.Errorf("%s: Solved/Errors = %d/%d over %d solves run, want %d/%d",
				be.name, bs.Solved, bs.Errors, be.calls.Load(), w.solved, w.errors)
		}
		// One outcome per solve; a success adds its quality sample.
		if got, want := observations[be.name], 2*bs.Solved+bs.Errors; got != want {
			t.Errorf("%s: %d health observations, want %d (one outcome per request it ran)", be.name, got, want)
		}
	}
	if got := r.burn.Snapshot()[0].Observed; got != want.burned {
		t.Errorf("burn tracker observed %d requests, want %d (every request a backend ran or the certificate answered, once)", got, want.burned)
	}
}

// The coherence-aware gather must fill a keyed head's batch with same-window
// symbols first, even when other compatible jobs sit ahead of them in the
// queue. An unrelated blocker job holds the worker so the keyed head gathers
// from a populated queue.
func TestCoherentGatherPrefersSameChannel(t *testing.T) {
	f := &fakeBatchBackend{
		fakeBackend: fakeBackend{name: "qpu", est: 100, gate: make(chan struct{})},
		slots:       3,
	}
	s, err := New(Config{Pool: []backend.Backend{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Gathering reads only a window's key: a tag window stands for each.
	window, elsewhere := core.NewWindow(modulation.BPSK, linalg.Identity(2)), core.NewWindow(modulation.QPSK, linalg.Identity(2))
	var wg sync.WaitGroup
	dispatch := func(seed int64, w *core.Window) *backend.Problem {
		p, _ := testProblem(t, seed, modulation.BPSK, 2)
		p.Window = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
				t.Errorf("dispatch: %v", err)
			}
		}()
		return p
	}

	// A blocker occupies the gated worker so everything below queues; each
	// admission is sequenced so the queue order is deterministic.
	blocker := dispatch(969, nil)
	waitFor(t, "worker busy", func() bool { return s.Stats().Submitted == 1 && s.Stats().QueueDepth == 0 })
	// Queue order: keyed head, then two other-window jobs AHEAD of the two
	// same-window symbols.
	enqueue := func(i int, seed int64, w *core.Window) *backend.Problem {
		p := dispatch(seed, w)
		waitFor(t, "admission", func() bool { return s.Stats().QueueDepth == i })
		return p
	}
	head := enqueue(1, 970, window)
	other1 := enqueue(2, 971, nil)
	other2 := enqueue(3, 972, elsewhere)
	same1 := enqueue(4, 973, window)
	same2 := enqueue(5, 974, window)

	f.gate <- struct{}{} // blocker solves solo
	f.gate <- struct{}{} // coherent batch around the keyed head
	f.gate <- struct{}{} // leftover batch of the other-window jobs
	wg.Wait()

	f.mu.Lock()
	order := append([]*backend.Problem(nil), f.order...)
	batches := append([]int(nil), f.batches...)
	f.mu.Unlock()

	// The keyed head's 3-slot batch must be {head, same1, same2}, skipping
	// the two other-window jobs queued ahead; those ride the next run.
	if len(batches) != 2 || batches[0] != 3 || batches[1] != 2 {
		t.Fatalf("batch sizes %v, want [3 2]", batches)
	}
	want := []*backend.Problem{blocker, head, same1, same2, other1, other2}
	for i, p := range want {
		if order[i] != p {
			t.Fatalf("service order[%d] unexpected: coherent gather did not prefer same-window symbols", i)
		}
	}
	assertReconciled(t, s)
}

// With spare slots, a coherent gather must fill leftovers with other
// batch-compatible jobs rather than leaving slots idle, while still
// excluding batch-incompatible ones.
func TestCoherentGatherFillsLeftoverSlots(t *testing.T) {
	f := &fakeBatchBackend{
		fakeBackend: fakeBackend{name: "qpu", est: 100, gate: make(chan struct{})},
		slots:       4,
	}
	s, err := New(Config{Pool: []backend.Backend{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	window := core.NewWindow(modulation.BPSK, linalg.Identity(2)) // gathering reads only its key
	var wg sync.WaitGroup
	dispatch := func(seed int64, w *core.Window, nt int) {
		p, _ := testProblem(t, seed, modulation.BPSK, nt)
		p.Window = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
				t.Errorf("dispatch: %v", err)
			}
		}()
	}
	dispatch(979, nil, 2) // blocker
	waitFor(t, "worker busy", func() bool { return s.Stats().Submitted == 1 && s.Stats().QueueDepth == 0 })
	enqueue := func(i int, seed int64, w *core.Window, nt int) {
		dispatch(seed, w, nt)
		waitFor(t, "admission", func() bool { return s.Stats().QueueDepth == i })
	}
	enqueue(1, 980, window, 2) // keyed head
	enqueue(2, 981, nil, 2)    // other window, compatible
	enqueue(3, 982, window, 2) // same window
	enqueue(4, 983, nil, 4)    // incompatible N

	f.gate <- struct{}{} // blocker solo
	f.gate <- struct{}{} // head batch: same-window symbols + leftover compatible
	f.gate <- struct{}{} // the incompatible job, solo
	wg.Wait()

	f.mu.Lock()
	batches := append([]int(nil), f.batches...)
	f.mu.Unlock()
	if len(batches) != 1 || batches[0] != 3 {
		t.Fatalf("batched runs %v, want one run of 3", batches)
	}
	assertReconciled(t, s)
}

// Cost-aware dispatch must minimize spend through the capability
// descriptors' cost models without ever trading away a deadline or a BER
// target: easy (or best-effort) decodes divert to a strictly cheaper
// fallback, hard SNR classes keep their QPU reads, and a fallback that is
// pricier or too slow never wins.
func TestCostAwareDispatch(t *testing.T) {
	pricey := backend.CostModel{MicroUSDPerDeviceSecond: 3e6, PowerWatts: 500}
	cases := []struct {
		name      string
		costAware bool
		fbCost    backend.CostModel
		fbEst     float64
		deadline  time.Duration
		targetBER float64
		want      string
	}{
		{"cost-aware off stays on pool", false, backend.DefaultClassicalCostModel, 50, 0, 0, "qpu"},
		{"best-effort diverts to cheaper fallback", true, backend.DefaultClassicalCostModel, 50, 0, 0, "fb"},
		{"pricier fallback stays on pool", true, pricey, 50, 0, 0, "qpu"},
		{"fallback too slow for deadline stays on pool", true, backend.DefaultClassicalCostModel, 5000, time.Millisecond, 0, "qpu"},
		{"easy BER class diverts (planned reads ≤ easy bound)", true, backend.DefaultClassicalCostModel, 50, 0, 1e-3, "fb"},
		{"hard BER class keeps its QPU reads", true, backend.DefaultClassicalCostModel, 50, 0, 1e-9, "qpu"},
	}
	for i, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			pl, err := qos.NewPlanner(plannerTable())
			if err != nil {
				t.Fatal(err)
			}
			pool := &fakeBackend{name: "qpu", est: 100, cost: backend.DefaultQPUCostModel}
			fb := &fakeBackend{name: "fb", est: c.fbEst, cost: c.fbCost}
			s, err := New(Config{
				Pool: []backend.Backend{pool}, Fallback: fb,
				Planner: pl, CostAware: c.costAware,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// The flat table prices a soft 1e-3 (relieved to 4e-3) at 5
			// reads (easy, under DefaultCostEasyReads) and a soft 1e-9 at 25
			// (hard, over it): (0.5)^Na·0.1 ≤ target. Uncertified, because
			// the certificate answers any other request with a target at
			// admission.
			p := uncertified(t, int64(950+i), modulation.QPSK)
			p.TargetBER, p.Soft = c.targetBER, true
			res, err := s.Dispatch(context.Background(), p, c.deadline)
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend != c.want {
				t.Fatalf("decode served by %q, want %q", res.Backend, c.want)
			}
			st := s.Stats()
			if c.want == "fb" {
				if st.FallbackDispatches != 1 || st.PlannerClassical != 0 {
					t.Fatalf("cost divert accounting: fallback=%d planner=%d",
						st.FallbackDispatches, st.PlannerClassical)
				}
			} else if st.FallbackDispatches != 0 {
				t.Fatalf("unexpected fallback dispatch (%d)", st.FallbackDispatches)
			}
			assertReconciled(t, s)
		})
	}
}

// Completed work must charge spend and energy against the serving backend
// through its descriptor's cost model.
func TestStatsAccountSpendAndEnergy(t *testing.T) {
	f := &fakeBackend{name: "qpu", est: 100, cost: backend.DefaultQPUCostModel, delay: time.Millisecond}
	s, err := New(Config{Pool: []backend.Backend{f}})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := testProblem(t, 970, modulation.BPSK, 2)
	if _, err := s.Dispatch(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	be := s.Stats().Backends[0]
	// ≥ 1 ms at 555,555 µUSD/s and 25 kW: at least ~555 µUSD and 25 J.
	if be.SpendMicroUSD < 500 {
		t.Fatalf("SpendMicroUSD = %g, want ≥ 500 for a ≥1 ms QPU solve", be.SpendMicroUSD)
	}
	if be.EnergyMilliJ < 20_000 {
		t.Fatalf("EnergyMilliJ = %g, want ≥ 20000 for a ≥1 ms 25 kW solve", be.EnergyMilliJ)
	}
}
