package sched

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/telemetry"
)

// noisyProblem is an 8×8 QPSK decode at snr dB with its instance.
func noisyProblem(t *testing.T, seed int64, snr float64) (*backend.Problem, *mimo.Instance) {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: modulation.QPSK, Nt: 8, Nr: 8, Channel: channel.Rayleigh{}, SNRdB: snr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y, TargetBER: 1e-3}, in
}

// planned is the planner's half of admission (plan): the problem a request
// meets, and whether it was denied, when no certificate answers it — one
// whose search ran out of nodes. The arming tests below are about that half,
// so they call it on problems the certificate would otherwise answer.
func planned(s *Scheduler, p *backend.Problem, deadline time.Duration) (*backend.Problem, bool) {
	if p.TargetBER <= 0 {
		return p, false
	}
	return s.plan(p, p.TargetBER, deadline, qos.EstimateInto(p.Window.SphereFor(p.Mod, p.H), p.Y, 0, nil, nil, nil))
}

// plan arms the repeat rule on a classical denial and nowhere else: a fitted
// quantum plan and a request without a target run every planned read, and the
// caller's Problem is never written.
func TestApplyPlanArmsTheRepeatRule(t *testing.T) {
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := &fakeBackend{name: "qpu", est: 100}
	with, err := New(Config{Pool: []backend.Backend{pool}, Fallback: &fakeBackend{name: "sa", est: 100}, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	defer with.Close()
	without, err := New(Config{Pool: []backend.Backend{pool}, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	defer without.Close()
	deadline := 50 * time.Millisecond

	fit, _ := noisyProblem(t, 11, 25)
	if q, denied := planned(with, fit, deadline); denied || q.StopRepeats != 0 || q.Anneal == nil {
		t.Fatalf("fitted decode: denied=%v repeats=%d, want a planned budget and no rule", denied, q.StopRepeats)
	}
	untargeted := *fit
	untargeted.TargetBER = 0
	if q, _ := planned(with, &untargeted, deadline); q != &untargeted {
		t.Fatal("a request without a target BER was planned")
	}
	low, _ := noisyProblem(t, 12, 2) // below the fitted range: denied
	if q, denied := planned(with, low, deadline); !denied || q.StopRepeats != qos.StopRepeats || low.StopRepeats != 0 {
		t.Fatalf("denied decode: denied=%v repeats=%d (caller's %d), want %d on a copy", denied, q.StopRepeats, low.StopRepeats, qos.StopRepeats)
	}
	if q, denied := planned(without, low, deadline); !denied || q != low {
		t.Fatalf("denied decode with no fallback and no PT budget: denied=%v, want the caller's problem back", denied)
	}
}

// plan arms the device tier's noise radius on a fitted plan that is not a
// precode, from what admission already holds — the request's own σ² on a soft
// request that carries one, the zero-forcing residual of its SNR estimate
// otherwise — and nowhere else; the caller's Problem is never written.
func TestApplyPlanArmsTheStopRadius(t *testing.T) {
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu", est: 100}}, Fallback: &fakeBackend{name: "sa", est: 100}, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deadline := 50 * time.Millisecond
	const nr = 8
	spread := nr + math.Sqrt(nr) // Nr + one deviation √Nr, in units of σ²

	hard, in := noisyProblem(t, 11, 25)
	zf, err := detector.ZeroForcing(hard.Mod, hard.H, hard.Y)
	if err != nil {
		t.Fatal(err)
	}
	q, denied := planned(s, hard, deadline)
	if want := zf.Metric / nr * spread; denied || math.Abs(q.StopRadius-want) > 1e-9*want || hard.StopRadius != 0 {
		t.Fatalf("fitted hard decode: denied=%v radius %v (caller's %v), want the ZF residual %v × (1 + 1/√Nr) = %v on a copy", denied, q.StopRadius, hard.StopRadius, zf.Metric, want)
	}
	if q.StopRadius < in.NoiseVariance()*nr/4 || q.StopRadius > in.NoiseVariance()*nr*4 {
		t.Errorf("hard radius %v is not of the order of Nr·σ² = %v", q.StopRadius, in.NoiseVariance()*nr)
	}
	soft := *hard
	soft.Soft, soft.NoiseVar = true, 0.03
	if q, denied := planned(s, &soft, deadline); denied || q.StopRadius != 0.03*spread {
		t.Fatalf("fitted soft decode carrying σ²: denied=%v radius %v, want σ²·(Nr + √Nr) = %v", denied, q.StopRadius, 0.03*spread)
	}
	soft.NoiseVar = 0
	if q, _ := planned(s, &soft, deadline); math.Abs(q.StopRadius-zf.Metric/nr*spread) > 1e-9 {
		t.Fatalf("soft decode without σ²: radius %v, want the ZF-residual radius", q.StopRadius)
	}
	low, _ := noisyProblem(t, 12, 2) // below the fitted range: denied
	if q, denied := planned(s, low, deadline); !denied || q.StopRadius != 0 {
		t.Fatalf("denied decode: denied=%v radius %v, want none", denied, q.StopRadius)
	}
	vp, err := precoding.Compile(modulation.QPSK, hard.H, 0)
	if err != nil {
		t.Fatal(err)
	}
	fitted := 0
	src := rng.New(5)
	for i := 0; i < 8; i++ {
		p := vp.Problem(modulation.QPSK.MapGrayVector(src.Bits(16)))
		p.TargetBER = 1e-3
		q, denied := planned(s, p, deadline)
		if q.StopRadius != 0 {
			t.Fatalf("precode %d (denied=%v) carries a noise radius %v: its residual is the objective, not noise", i, denied, q.StopRadius)
		}
		if !denied {
			fitted++
		}
	}
	if fitted == 0 {
		t.Error("no precode was fitted: the set no longer exercises the exclusion")
	}
}

// A precode under the armed stack answers with the γ the unarmed stack gives:
// vector-perturbation searches over a seeded set go through plan to the
// backend it routes them to, armed and uncut on the same stream — as a
// precode whose certificate search ran out of nodes would. (The repeat
// rule on denied precodes changed 5 answers in 710 on the sizing corpus; this
// set is small enough to demand equality.)
func TestPrecodeGammaUnmovedByTheRule(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu", core.Options{AmortizeParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	sa := backend.NewClassicalSA("sa", 128, 100)
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{qpu}, Fallback: sa, Planner: planner, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := rng.New(77)
	ctx := context.Background()
	onSA, saved := 0, 0
	for i := 0; i < 24; i++ {
		h := channel.Rayleigh{}.Generate(src, 8, 8)
		vp, err := precoding.Compile(modulation.QPSK, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		symbols := modulation.QPSK.MapGrayVector(src.Bits(16))
		p := vp.Problem(symbols)
		p.TargetBER = 1e-3
		q, denied := planned(s, p, 50*time.Millisecond)
		be := backend.Backend(qpu)
		if denied {
			be = sa
			onSA++
		}
		uncut := *q
		uncut.StopRepeats = 0
		armed, err := be.Solve(ctx, q, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		full, err := be.Solve(ctx, &uncut, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		saved += full.Reads - armed.Reads
		gamma := func(r *backend.Result) float64 {
			return vp.Gamma(symbols, precoding.AppendPerturbationFromGrayBits(nil, vp.PerturbMod(), r.Bits))
		}
		if ga, gf := gamma(armed), gamma(full); math.Float64bits(ga) != math.Float64bits(gf) || !slices.Equal(armed.Bits, full.Bits) {
			t.Errorf("precode %d on %s: γ %v under the armed stack, %v uncut", i, be.Describe().Name, ga, gf)
		}
	}
	if onSA == 0 || saved == 0 {
		t.Errorf("%d precodes denied to SA, %d restarts saved: the set no longer exercises the repeat rule", onSA, saved)
	}
}

// What the rules did shows in the pool counters and on the trace's solve span:
// reads run beside reads planned per backend, and the solves stopped early —
// by the repeat rule on the SA tier, by the noise radius on the annealer,
// whose solo runs honour it as shared-run members do. The requests are
// uncertified, so no certificate answers them at admission; the flat table,
// given a BER floor of 1e-4, fits a 1e-3 target and denies a 1e-5 one.
func TestStopCountersAndTraceFields(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	table := plannerTable()
	table.Points[0].FloorBER, table.Points[1].FloorBER = 1e-4, 1e-4
	planner, err := qos.NewPlanner(table)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Config{})
	s, err := New(Config{
		Pool: []backend.Backend{qpu}, Fallback: backend.NewClassicalSA("sa", 64, 40),
		Planner: planner, Telemetry: rec, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var planned, run [2]uint64 // [qpu, sa]
	var stopped uint64
	for i := 0; i < 24; i++ {
		p := uncertified(t, int64(500+i), modulation.QPSK)
		p.TargetBER = 1e-3
		if i%4 == 3 {
			p.TargetBER = 1e-5 // denied: the SA tier
		}
		res, err := s.Dispatch(ctx, p, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		tier := 0
		if res.Backend == "sa" {
			tier = 1
		}
		if res.Reads < 1 || res.Reads > res.ReadsPlanned {
			t.Fatalf("request %d on %s: %d of %d reads", i, res.Backend, res.Reads, res.ReadsPlanned)
		}
		planned[tier] += uint64(res.ReadsPlanned)
		run[tier] += uint64(res.Reads)
		if res.Reads < res.ReadsPlanned {
			stopped++
		}
	}
	st := s.Stats()
	if st.StoppedEarly != stopped || stopped == 0 {
		t.Errorf("pool counter stopped early %d, results say %d (want some)", st.StoppedEarly, stopped)
	}
	for tier, name := range []string{"qpu", "sa"} {
		for _, be := range st.Backends {
			if be.Name == name && (be.ReadsPlanned != planned[tier] || be.ReadsRun != run[tier]) {
				t.Errorf("backend %s: reads run/planned %d/%d, results say %d/%d", name, be.ReadsRun, be.ReadsPlanned, run[tier], planned[tier])
			}
		}
	}
	var traced, tracedPlanned [2]uint64
	for _, tr := range rec.Traces() {
		tier := 0
		if tr.Backend == "sa" {
			tier = 1
		}
		traced[tier] += uint64(tr.Reads)
		tracedPlanned[tier] += uint64(tr.ReadsPlanned)
	}
	if traced != run || tracedPlanned != planned {
		t.Errorf("traces carry reads run/planned %v/%v; results say %v/%v", traced, tracedPlanned, run, planned)
	}
}

// The device tier's stops show in the same counters as the SA tier's, and the
// fitted decodes the annealer did not settle are counted per class: a shared
// run of fitted uncertified soft requests carrying their σ² behind a gated
// head, reconciled against its results. The table fits QPSK and 16-QAM with a
// low success probability (p0 = 0.1), so a soft 1e-3 target plans 31 reads:
// room for a QPSK member to stop past the softout.MinEnsemble floor, while
// the 16-QAM requests (64 spins: runs of one, armed alike) rarely reach their
// radius.
func TestDeviceStopsAndRadiusMissesAreCounted(t *testing.T) {
	qpu, err := backend.NewAnnealer("qpu", core.Options{AmortizeParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	table := plannerTable()
	qam := flatTable("16-QAM", 12)
	table.Ops, table.Points = append(table.Ops, qam.Ops...), append(table.Points, qam.Points...)
	for i := range table.Points {
		table.Points[i].P0 = 0.1
	}
	planner, err := qos.NewPlanner(table)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedAnnealer{Annealer: qpu, entered: make(chan struct{}), gate: make(chan struct{})}
	s, err := New(Config{Pool: []backend.Backend{gated}, Planner: planner, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n, deadline = 13, 50 * time.Millisecond
	problems := make([]*backend.Problem, n)
	results := make([]*backend.Result, n)
	var wg sync.WaitGroup
	dispatch := func(i int) {
		mod := modulation.QPSK
		if i%4 == 2 {
			mod = modulation.QAM16
		}
		problems[i] = uncertified(t, int64(900+i), mod)
		problems[i].TargetBER, problems[i].Soft = 1e-3, true
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Dispatch(context.Background(), problems[i], deadline)
			if err != nil {
				t.Errorf("dispatch %d: %v", i, err)
			}
			results[i] = res
		}()
	}
	dispatch(0) // solo, held at the gate while the others queue behind it
	<-gated.entered
	for i := 1; i < n; i++ {
		dispatch(i)
	}
	waitFor(t, "backlog behind gated run", func() bool { return s.Stats().QueueDepth == n-1 })
	close(gated.gate)
	wg.Wait()
	if t.Failed() {
		return
	}

	var stopped, run uint64
	misses := map[string]uint64{}
	for i, res := range results {
		// What the request was dispatched as: a fit carries its radius; a denial
		// (there is no fallback to deny to) rides along un-armed.
		q, denied := planned(s, problems[i], deadline)
		if denied != (q.StopRadius == 0) {
			t.Fatalf("request %d: denied=%v radius %v", i, denied, q.StopRadius)
		}
		if res.Reads > res.ReadsPlanned || (denied && res.Reads != res.ReadsPlanned) {
			t.Errorf("request %d (run of %d): %d of %d reads", i, res.Batched, res.Reads, res.ReadsPlanned)
		}
		run += uint64(res.Reads)
		if res.Reads < res.ReadsPlanned {
			stopped++
			if res.Energy > q.StopRadius {
				t.Errorf("request %d stopped after %d reads at energy %v, outside its radius %v", i, res.Reads, res.Energy, q.StopRadius)
			}
		}
		if !denied && res.Energy > q.StopRadius {
			misses[telemetry.Class(q.Mod.String(), q.Users())]++
		}
	}
	st := s.Stats()
	if st.StoppedEarly != stopped || stopped == 0 {
		t.Errorf("pool counter stopped early %d, results say %d (want some)", st.StoppedEarly, stopped)
	}
	if !reflect.DeepEqual(st.RadiusMisses, misses) || len(misses) == 0 {
		t.Errorf("radius misses %v, results say %v (want some)", st.RadiusMisses, misses)
	}
	if got := st.Backends[0].ReadsRun; got != run {
		t.Errorf("backend reads run %d, results say %d", got, run)
	}
}
