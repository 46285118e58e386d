package backend

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/telemetry"
)

func testOptions() core.Options {
	return core.Options{
		Graph:  chimera.New(6),
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 40},
	}
}

func testInstance(t *testing.T, seed int64, mod modulation.Modulation, nt int) *mimo.Instance {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func problemOf(in *mimo.Instance) *Problem {
	return &Problem{Mod: in.Mod, H: in.H, Y: in.Y}
}

func TestLogicalSpins(t *testing.T) {
	for _, tc := range []struct {
		mod  modulation.Modulation
		nt   int
		want int
	}{
		{modulation.BPSK, 4, 4},
		{modulation.QPSK, 2, 4},
		{modulation.QAM16, 3, 12},
	} {
		in := testInstance(t, 7, tc.mod, tc.nt)
		if got := problemOf(in).LogicalSpins(); got != tc.want {
			t.Errorf("%v × %d users: LogicalSpins = %d, want %d", tc.mod, tc.nt, got, tc.want)
		}
	}
}

func TestAnnealerSolve(t *testing.T) {
	a, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := testInstance(t, 11, modulation.QPSK, 4)
	res, err := a.Solve(context.Background(), problemOf(in), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if errs := in.BitErrors(res.Bits); errs != 0 {
		t.Fatalf("annealer backend: %d bit errors on a noise-free channel", errs)
	}
	if res.Backend != "qpu0" || res.Batched != 1 {
		t.Fatalf("result metadata: %+v", res)
	}
	if res.ComputeMicros <= 0 {
		t.Fatal("no compute time reported")
	}
	if est := a.Describe().PredictMicros(problemOf(in)); est != 40*2 {
		t.Fatalf("PredictMicros = %g, want Na·(Ta+Tp) = 80", est)
	}
}

func TestAnnealerBatchAcrossModulations(t *testing.T) {
	a, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// BPSK×4 and QPSK×2 both reduce to N = 4 spins: batch-compatible.
	ins := []*mimo.Instance{
		testInstance(t, 21, modulation.BPSK, 4),
		testInstance(t, 22, modulation.QPSK, 2),
		testInstance(t, 23, modulation.BPSK, 4),
	}
	ps := make([]*Problem, len(ins))
	for i, in := range ins {
		ps[i] = problemOf(in)
	}
	if slots := a.BatchSlots(ps[0]); slots < len(ps) {
		t.Fatalf("BatchSlots = %d, need ≥ %d for this test", slots, len(ps))
	}
	results, err := a.SolveBatch(context.Background(), ps, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if errs := ins[i].BitErrors(res.Bits); errs != 0 {
			t.Errorf("batched problem %d: %d bit errors", i, errs)
		}
		if res.Batched != len(ps) {
			t.Errorf("problem %d: Batched = %d, want %d", i, res.Batched, len(ps))
		}
	}
}

func TestAnnealerBatchRejectsMixedSizes(t *testing.T) {
	a, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ps := []*Problem{
		problemOf(testInstance(t, 31, modulation.BPSK, 4)),
		problemOf(testInstance(t, 32, modulation.BPSK, 6)),
	}
	if _, err := a.SolveBatch(context.Background(), ps, rng.New(3)); err == nil {
		t.Fatal("mixed logical sizes accepted into one batch")
	}
}

func TestClassicalSASolve(t *testing.T) {
	c := NewClassicalSA("sa", 128, 60)
	in := testInstance(t, 41, modulation.QPSK, 4)
	p := problemOf(in)
	res, err := c.Solve(context.Background(), p, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if errs := in.BitErrors(res.Bits); errs != 0 {
		t.Fatalf("SA backend: %d bit errors on a noise-free channel", errs)
	}
	if res.Backend != "sa" {
		t.Fatalf("backend name %q", res.Backend)
	}
	if est := c.Describe().PredictMicros(p); est <= 0 {
		t.Fatalf("PredictMicros = %g", est)
	}
}

func TestSphereSolveAndAdaptiveEstimate(t *testing.T) {
	s := NewSphere("sphere", 0)
	in := testInstance(t, 51, modulation.QPSK, 4)
	p := problemOf(in)
	if est := s.Describe().PredictMicros(p); est != s.PriorMicros {
		t.Fatalf("cold estimate %g, want prior %g", est, s.PriorMicros)
	}
	res, err := s.Solve(context.Background(), p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if errs := in.BitErrors(res.Bits); errs != 0 {
		t.Fatalf("sphere backend: %d bit errors (exact ML on noise-free channel)", errs)
	}
	if est := s.Describe().PredictMicros(p); est == s.PriorMicros {
		t.Fatal("estimate not updated from measurement")
	}
}

// A problem carrying its window is searched on the window's sphere program —
// no factorization per solve — and answered exactly as one without; a
// window that is not the problem's own channel is not trusted.
func TestSphereSearchesTheWindowsProgram(t *testing.T) {
	s := NewSphere("sphere", 0)
	in := testInstance(t, 52, modulation.QPSK, 4)
	want, err := s.Solve(context.Background(), problemOf(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	other := testInstance(t, 53, modulation.QPSK, 4)
	for _, c := range []struct {
		w      *core.Window
		builds uint64
	}{{core.NewWindow(in.Mod, in.H), 0}, {core.NewWindow(other.Mod, other.H), 3}} {
		c.w.Sphere()
		before := detector.SphereCompiles()
		for i := 0; i < 3; i++ {
			p := problemOf(in)
			p.Window = c.w
			got, err := s.Solve(context.Background(), p, nil)
			if err != nil || !reflect.DeepEqual(got.Bits, want.Bits) || got.Energy != want.Energy {
				t.Fatalf("solve %d: %+v, %v; want %+v", i, got, err, want)
			}
		}
		if n := detector.SphereCompiles() - before; n != c.builds {
			t.Fatalf("%d factorizations over 3 solves, want %d", n, c.builds)
		}
	}
}

func TestSolveHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := testInstance(t, 61, modulation.BPSK, 4)
	a, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(ctx, problemOf(in), rng.New(6)); err == nil {
		t.Fatal("canceled context accepted")
	}
	if _, err := NewClassicalSA("sa", 8, 2).Solve(ctx, problemOf(in), rng.New(7)); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// A problem carrying its window must route through the compiled-channel path,
// produce a result bit-identical to the recompiling path, and register cache
// traffic; repeated symbols of the window must hit.
func TestAnnealerSolveCompiledChannel(t *testing.T) {
	a, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := testInstance(t, 77, modulation.QPSK, 4)
	plain := problemOf(in)
	keyed := problemOf(in)
	keyed.Window = core.NewWindow(in.Mod, in.H)

	want, err := a.Solve(context.Background(), plain, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Solve(context.Background(), keyed, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Bits) != string(want.Bits) || got.Energy != want.Energy {
		t.Fatalf("compiled solve diverged: %+v vs %+v", got, want)
	}
	if st := a.ChannelCacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cache stats after first window symbol: %+v", st)
	}
	// Second symbol of the same window: cache hit.
	if _, err := a.Solve(context.Background(), keyed, rng.New(10)); err != nil {
		t.Fatal(err)
	}
	if st := a.ChannelCacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats after second window symbol: %+v", st)
	}
}

// An un-keyed problem compiles in the backend, outside the store, and that
// compile is visible: its Result carries the time with CacheHit false, and an
// attached recorder counts one miss per solve.
func TestAnnealerSolveTimesFreshCompile(t *testing.T) {
	a, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Config{})
	a.Decoder().SetTelemetry(rec)
	const solves = 3
	for i := 0; i < solves; i++ {
		res, err := a.Solve(context.Background(), problemOf(testInstance(t, int64(60+i), modulation.QPSK, 4)), rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if res.CompileMicros <= 0 || res.CacheHit {
			t.Fatalf("solve %d: compile %v µs, cache hit %t; want a timed miss", i, res.CompileMicros, res.CacheHit)
		}
	}
	if sn := rec.Snapshot(); sn.CompileMisses != solves || sn.CompileHits != 0 {
		t.Fatalf("recorder compile hits/misses = %d/%d, want 0/%d", sn.CompileHits, sn.CompileMisses, solves)
	}
	if st := a.ChannelCacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("an un-keyed solve touched the channel store: %+v", st)
	}
}

// A batch of keyed problems must ride the compiled shared run and match the
// unkeyed batch exactly.
func TestAnnealerBatchCompiledChannel(t *testing.T) {
	a, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ins := []*mimo.Instance{
		testInstance(t, 81, modulation.QPSK, 2),
		testInstance(t, 82, modulation.QPSK, 2),
	}
	if slots := a.BatchSlots(problemOf(ins[0])); slots < 2 {
		t.Skipf("only %d slots", slots)
	}
	plain := []*Problem{problemOf(ins[0]), problemOf(ins[1])}
	keyed := []*Problem{problemOf(ins[0]), problemOf(ins[1])}
	for i, p := range keyed {
		p.Window = core.NewWindow(ins[i].Mod, ins[i].H)
	}
	want, err := a.SolveBatch(context.Background(), plain, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.SolveBatch(context.Background(), keyed, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if string(got[i].Bits) != string(want[i].Bits) || got[i].Energy != want[i].Energy {
			t.Fatalf("batched compiled solve %d diverged", i)
		}
		if errs := ins[i].BitErrors(got[i].Bits); errs != 0 {
			t.Fatalf("batched compiled solve %d: %d bit errors", i, errs)
		}
	}
}

// One Annealer behind several sched workers: keyed, unkeyed, soft and reverse
// Solves plus a SolveBatch run concurrently (CI runs this package under
// -race) and each must equal its serial twin — a solve's answer depends on
// its problem and its source, never on what shares the decoder's caches.
// The keyed reverse row also pins that reverse decodes reuse the window's
// cached channel instead of recompiling it.
func TestAnnealerConcurrentSolvesMatchSerial(t *testing.T) {
	in := testInstance(t, 91, modulation.QPSK, 2)
	other := testInstance(t, 92, modulation.BPSK, 4) // same N=4: batches with in
	win := core.NewWindow(in.Mod, in.H)
	mk := func(edit func(*Problem)) []*Problem {
		p := problemOf(in)
		edit(p)
		return []*Problem{p}
	}
	jobs := [][]*Problem{
		mk(func(p *Problem) {}),
		mk(func(p *Problem) { p.Window = win }),
		mk(func(p *Problem) { p.Soft = true; p.NoiseVar = 0.1 }),
		mk(func(p *Problem) { p.Soft = true; p.NoiseVar = 0.1; p.Window = win }),
		mk(func(p *Problem) { p.Reverse = true }),
		mk(func(p *Problem) { p.Reverse = true; p.Window = win; p.ChainJF = 6 }),
		{problemOf(in), {Mod: in.Mod, H: in.H, Y: in.Y, Window: win, Soft: true}, problemOf(other)},
	}
	solve := func(a *Annealer, ps []*Problem, seed int64) ([]*Result, error) {
		if len(ps) > 1 {
			return a.SolveBatch(context.Background(), ps, rng.New(seed))
		}
		res, err := a.Solve(context.Background(), ps[0], rng.New(seed))
		return []*Result{res}, err
	}

	serial, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if slots := serial.BatchSlots(jobs[6][0]); slots < 3 {
		t.Skipf("only %d slots", slots)
	}
	const rounds = 3
	want := make([][]*Result, rounds*len(jobs))
	for i := range want {
		if want[i], err = solve(serial, jobs[i%len(jobs)], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if res := want[len(want)-2][0]; !res.CacheHit || res.CompileMicros <= 0 {
		t.Fatalf("keyed reverse solve did not go through the warm channel cache: %+v", res)
	}

	shared, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*Result, len(want))
	errs := make([]error, len(want))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = solve(shared, jobs[i%len(jobs)], int64(i))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		for k, g := range got[i] {
			w := want[i][k]
			if !reflect.DeepEqual(g.Bits, w.Bits) || g.Energy != w.Energy || g.BrokenChains != w.BrokenChains ||
				!reflect.DeepEqual(g.LLRs, w.LLRs) || g.Batched != w.Batched || g.Reads != w.Reads {
				t.Errorf("job %d item %d: concurrent %+v, serial %+v", i, k, g, w)
			}
		}
	}
}

// A raw channel compiles into run storage its decoder pools: many goroutines
// solving distinct raw channels on one Annealer — alone and two to a shared
// run, at three problem sizes — each get what a serial solve of the same
// problem on the same seed gets, so no run's compile is another's. CI runs
// this under -race -count=10.
func TestPooledRawCompileNeverAliased(t *testing.T) {
	shapes := []struct {
		mod modulation.Modulation
		nt  int
	}{{modulation.QPSK, 4}, {modulation.BPSK, 8}, {modulation.QAM16, 3}}
	const jobs = 24
	problems := make([][]*Problem, jobs) // job j: one problem solo, or two sharing a run
	for j := range problems {
		s := shapes[j%len(shapes)]
		for k := 0; k < 1+j%2; k++ {
			problems[j] = append(problems[j], problemOf(testInstance(t, int64(200+2*j+k), s.mod, s.nt)))
		}
	}
	solve := func(a *Annealer, j int) ([]*Result, error) {
		src := rng.New(int64(j))
		if len(problems[j]) == 1 {
			res, err := a.Solve(context.Background(), problems[j][0], src)
			return []*Result{res}, err
		}
		return a.SolveBatch(context.Background(), problems[j], src)
	}
	serial, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]*Result, jobs)
	for j := range want {
		if want[j], err = solve(serial, j); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := NewAnnealer("qpu0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < rounds*jobs; g++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got, err := solve(shared, j)
			if err != nil {
				t.Errorf("job %d: %v", j, err)
				return
			}
			for k, g := range got {
				w := want[j][k]
				if !reflect.DeepEqual(g.Bits, w.Bits) || g.Energy != w.Energy || g.BrokenChains != w.BrokenChains ||
					g.Reads != w.Reads || g.Batched != w.Batched || g.CompileMicros <= 0 {
					t.Errorf("job %d item %d: concurrent %+v, serial %+v", j, k, g, w)
				}
			}
		}(g % jobs)
	}
	wg.Wait()
}
