package sched

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/detector"
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

// A problem carrying its window must get exactly the decision the same
// problem gets without one (a sphere program factored and discarded) — the
// same certificate, or the same plan — on first sight of its window and on
// every later symbol, and a window is factored once, however many of its
// symbols admission reads. Each symbol is admitted hard and soft: on the 8×8
// windows the certificate answers both, and the uncertified windows are
// planned — sized (QPSK, which the flat table fits) or denied (16-QAM, which
// it does not).
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
	var windowBuilds uint64
	for _, window := range windows {
		win := core.NewWindow(window[0].Mod, window[0].H)
		for _, hard := range window {
			soft := *hard
			soft.Soft = true
			for _, p := range []*backend.Problem{hard, &soft} {
				keyed := *p
				keyed.Window = win
				want := s.admit(p, 50*time.Millisecond)
				before := detector.SphereCompiles()
				got := s.admit(&keyed, 50*time.Millisecond)
				windowBuilds += detector.SphereCompiles() - before
				gotQ := *got.p
				gotQ.Window = nil
				got.p = &gotQ
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("windowed decision (%+v, %+v) differs from un-windowed (%+v, %+v)", got, got.p, want, want.p)
				}
				switch {
				case want.route == routeCertified:
					certified++
				case want.route == routePlannerDenied:
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
	if n := uint64(len(windows)); windowBuilds != n {
		t.Fatalf("%d sphere programs factored for the windowed problems of %d windows: want one per window", windowBuilds, n)
	}
}

// Two channels under one window: each request is planned from its OWN
// channel. The window's channel here has nearly collinear columns, the
// other is the uncertified 16×16 QPSK channel it was bent from; the table's
// success probability climbs with SNR, so the two plan different budgets and
// a scheduler that trusted the window would plan one request from the other's
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
	win := core.NewWindow(modulation.QPSK, hBad)
	plan := func(p *backend.Problem, w *core.Window) (backend.Problem, bool) {
		q := *p
		q.TargetBER, q.Window, q.Soft = 1e-3, w, true
		d := s.admit(&q, 50*time.Millisecond)
		if d.route == routeCertified {
			t.Fatal("the certificate answered a request the test needs planned")
		}
		out := *d.p
		out.Window = nil
		return out, d.route == routePlannerDenied
	}
	badP := &backend.Problem{Mod: bad.Mod, H: bad.H, Y: bad.Y}
	wantGood, wantGoodDenied := plan(good, nil)
	wantBad, wantBadDenied := plan(badP, nil)
	if wantGoodDenied == wantBadDenied && reflect.DeepEqual(wantGood.Anneal, wantBad.Anneal) {
		t.Fatal("the two channels plan alike: the test cannot tell whose program was used")
	}
	for i, c := range []struct {
		p          *backend.Problem
		want       backend.Problem
		wantDenied bool
	}{{badP, wantBad, wantBadDenied}, {good, wantGood, wantGoodDenied}, {badP, wantBad, wantBadDenied}} {
		if got, denied := plan(c.p, win); denied != c.wantDenied || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("request %d under the shared window: budget %+v denied=%v, its own channel's plan is %+v denied=%v",
				i, got.Anneal, denied, c.want.Anneal, c.wantDenied)
		}
	}
}

// The symbols of two new windows arriving together: each window is factored
// once, and every symbol is certified from it. Run under -race.
func TestEstimatorConcurrentWindows(t *testing.T) {
	pl, err := qos.NewPlanner(plannerTable())
	if err != nil {
		t.Fatal(err)
	}
	windows := noisyProblems(t, 2, 1)
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu"}}, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wins := []*core.Window{core.NewWindow(windows[0][0].Mod, windows[0][0].H), core.NewWindow(windows[1][0].Mod, windows[1][0].H)}
	const workers = 16
	before := detector.SphereCompiles()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := *windows[g%2][0]
			p.Window = wins[g%2]
			if d := s.admit(&p, 50*time.Millisecond); d.route != routeCertified {
				t.Errorf("goroutine %d: the certificate did not answer", g)
			}
		}()
	}
	wg.Wait()
	if n := detector.SphereCompiles() - before; n != 2 {
		t.Fatalf("%d sphere programs factored for 2 windows", n)
	}
}
