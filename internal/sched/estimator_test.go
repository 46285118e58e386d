package sched

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
)

// noisyProblems draws symbols symbols through each of windows 8×8 QPSK
// channels at 15–30 dB, un-keyed.
func noisyProblems(t *testing.T, windows, symbols int) [][]*backend.Problem {
	t.Helper()
	src := rng.New(41)
	out := make([][]*backend.Problem, windows)
	for w := range out {
		cfg := mimo.Config{Mod: modulation.QPSK, Nt: 8, Nr: 8, Channel: channel.Rayleigh{},
			SNRdB: []float64{15, 20, 25, 30}[w%4]}
		first, err := mimo.Generate(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < symbols; s++ {
			in, err := mimo.FromParts(src, cfg, first.H, src.Bits(16))
			if err != nil {
				t.Fatal(err)
			}
			out[w] = append(out[w], &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y, TargetBER: 1e-3})
		}
	}
	return out
}

// A problem admitted through the per-window store must get exactly the
// verdict the same problem gets un-keyed (estimator built and discarded) — the
// same certificate, or the same plan — on first sight of its window and on
// every later symbol, and only keyed problems are remembered, one estimator
// per window. Each symbol is admitted hard and soft: on the 8×8 windows the
// certificate answers both, and the uncertified windows are planned — sized
// (QPSK, which the flat table fits) or denied (16-QAM, which it does not).
func TestKeyedPlanMatchesUnkeyed(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu"}}, Fallback: &fakeBackend{name: "sa"}, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const symbols = 4
	windows := noisyProblems(t, 4, symbols)
	for w := 0; w < 4; w++ {
		mod := []modulation.Modulation{modulation.QPSK, modulation.QAM16}[w%2]
		window := uncertifiedWindow(t, int64(60+w), mod, symbols)
		for _, p := range window {
			p.TargetBER = 1e-3
		}
		windows = append(windows, window)
	}
	quantum, denied, certified := 0, 0, 0
	for _, window := range windows {
		key := core.FingerprintChannel(window[0].Mod, window[0].H)
		for _, hard := range window {
			soft := *hard
			soft.Soft = true
			for _, p := range []*backend.Problem{hard, &soft} {
				keyed := *p
				keyed.ChannelKey = key
				want := s.applyPlan(p, 50*time.Millisecond)
				got := s.applyPlan(&keyed, 50*time.Millisecond)
				gotQ := *got.p
				gotQ.ChannelKey = 0
				got.p = &gotQ
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("keyed verdict (%+v, %+v) differs from un-keyed (%+v, %+v)", got, got.p, want, want.p)
				}
				switch {
				case want.proved != nil:
					certified++
				case want.denied:
					denied++
				case want.p.Anneal != nil:
					quantum++
				}
			}
		}
	}
	if quantum != 2*2*symbols || denied != 2*2*symbols || certified != 4*2*symbols {
		t.Fatalf("%d sized plans, %d denials, %d certificates: want %d, %d and %d", quantum, denied, certified, 2*2*symbols, 2*2*symbols, 4*2*symbols)
	}
	n := uint64(len(windows))
	if st, want := s.snr.Stats(), (metrics.ChannelCacheStats{Hits: n * (2*symbols - 1), Misses: n}); st != want {
		t.Fatalf("planning store %+v, want %+v: one build per keyed window, un-keyed problems never stored", st, want)
	}
}

// Two channels under one ChannelKey: each request is planned from its OWN
// channel. The key's first channel here has nearly collinear columns, the
// other is the uncertified 16×16 QPSK channel it was bent from; the table's
// success probability climbs with SNR, so the two plan different budgets and
// a scheduler that trusted the key would plan one request from the other's
// estimate.
func TestReusedKeyPlansFromTheRequestsOwnChannel(t *testing.T) {
	table := plannerTable()
	table.Points[0].P0, table.Points[1].P0 = 0.05, 0.95
	pl, err := qos.NewPlanner(table)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu"}}, Fallback: &fakeBackend{name: "sa"}, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := uncertified(t, 43, modulation.QPSK)
	hBad := good.H.Clone()
	for r := 0; r < hBad.Rows; r++ {
		for c := 1; c < hBad.Cols; c++ {
			hBad.Set(r, c, hBad.At(r, 0)+0.05*hBad.At(r, c))
		}
	}
	src := rng.New(44)
	bad, err := mimo.FromParts(src, mimo.Config{Mod: modulation.QPSK, Nt: 16, Nr: 16, Channel: channel.Rayleigh{}, SNRdB: -6}, hBad, src.Bits(32))
	if err != nil {
		t.Fatal(err)
	}
	key := core.FingerprintChannel(modulation.QPSK, hBad)
	plan := func(p *backend.Problem, key core.ChannelKey) (backend.Problem, bool) {
		q := *p
		q.TargetBER, q.ChannelKey, q.Soft = 1e-3, key, true
		v := s.applyPlan(&q, 50*time.Millisecond)
		if v.proved != nil {
			t.Fatal("the certificate answered a request the test needs planned")
		}
		out := *v.p
		out.ChannelKey = 0
		return out, v.denied
	}
	badP := &backend.Problem{Mod: bad.Mod, H: bad.H, Y: bad.Y}
	wantGood, wantGoodDenied := plan(good, 0)
	wantBad, wantBadDenied := plan(badP, 0)
	if wantGoodDenied == wantBadDenied && reflect.DeepEqual(wantGood.Anneal, wantBad.Anneal) {
		t.Fatal("the two channels plan alike: the test cannot tell whose estimator was used")
	}
	for i, c := range []struct {
		p          *backend.Problem
		want       backend.Problem
		wantDenied bool
	}{{badP, wantBad, wantBadDenied}, {good, wantGood, wantGoodDenied}, {badP, wantBad, wantBadDenied}} {
		if got, denied := plan(c.p, key); denied != c.wantDenied || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("request %d under the shared key: budget %+v denied=%v, its own channel's plan is %+v denied=%v",
				i, got.Anneal, denied, c.want.Anneal, c.wantDenied)
		}
	}
}

// The symbols of two new windows arriving together: every goroutine gets its
// window's one estimator. Run under -race.
func TestEstimatorConcurrentWindows(t *testing.T) {
	windows := noisyProblems(t, 2, 1)
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers = 16
	got := make([]*qos.SNREstimator, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := *windows[g%2][0]
			p.ChannelKey = core.ChannelKey(1 + g%2)
			got[g] = s.estimator(&p)
			if !got[g].Estimate(p.Y, qos.CertifyNodes, nil).OK {
				t.Errorf("goroutine %d: estimate failed", g)
			}
		}()
	}
	wg.Wait()
	for g := 2; g < workers; g++ {
		if got[g] != got[g%2] {
			t.Fatalf("goroutine %d got its own estimator for window %d", g, g%2)
		}
	}
	if got[0] == got[1] {
		t.Fatal("two windows share one estimator")
	}
}
