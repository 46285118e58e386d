package sched

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
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

// A problem planned through the per-channel cache must get exactly the plan
// the same problem gets un-keyed (estimator built and discarded), on first
// sight of its window and on every later symbol.
func TestKeyedPlanMatchesUnkeyed(t *testing.T) {
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{&fakeBackend{name: "qpu"}}, Fallback: &fakeBackend{name: "sa"}, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	quantum, denied := 0, 0
	for _, window := range noisyProblems(t, 12, 6) {
		key := core.FingerprintChannel(window[0].Mod, window[0].H)
		for _, p := range window {
			keyed := *p
			keyed.ChannelKey = key
			wantQ, wantDenied := s.applyPlan(p, 50*time.Millisecond)
			gotQ, gotDenied := s.applyPlan(&keyed, 50*time.Millisecond)
			got := *gotQ
			got.ChannelKey = 0
			if gotDenied != wantDenied || !reflect.DeepEqual(&got, wantQ) {
				t.Fatalf("keyed plan (%+v, denied=%v) differs from un-keyed (%+v, denied=%v)", got, gotDenied, wantQ, wantDenied)
			}
			if wantDenied {
				denied++
			} else if wantQ.Anneal != nil {
				quantum++
			}
		}
	}
	if quantum == 0 || denied == 0 {
		t.Fatalf("%d sized plans, %d denials: the grid does not exercise both verdicts", quantum, denied)
	}
	if n := s.snr.lru.Len(); n != 12 {
		t.Fatalf("cache holds %d windows, want the 12 keyed ones (un-keyed problems must not be cached)", n)
	}
}

func TestSNRCacheEvictsLeastRecentlyUsed(t *testing.T) {
	var c snrCache
	p := noisyProblems(t, 1, 1)[0][0]
	at := func(key int) *qos.SNREstimator {
		q := *p
		q.ChannelKey = core.ChannelKey(key)
		return c.estimator(&q)
	}
	first := at(1)
	for key := 2; key <= snrCacheWindows; key++ {
		at(key)
	}
	if at(1) != first {
		t.Fatal("a window within the bound was rebuilt")
	}
	// Key 1 is now the most recent, key 2 the oldest: ten more windows evict
	// keys 2..11 and nothing else.
	for key := snrCacheWindows + 1; key <= snrCacheWindows+10; key++ {
		at(key)
	}
	if len(c.m) != snrCacheWindows || c.lru.Len() != snrCacheWindows {
		t.Fatalf("cache holds %d keys / %d entries, want the bound %d", len(c.m), c.lru.Len(), snrCacheWindows)
	}
	for key := 2; key <= 11; key++ {
		if _, ok := c.m[core.ChannelKey(key)]; ok {
			t.Fatalf("key %d outlived %d newer windows", key, snrCacheWindows)
		}
	}
	if at(1) != first {
		t.Fatal("the most recently used window was evicted")
	}
	if _, ok := c.m[12]; !ok {
		t.Fatal("key 12 evicted ahead of its turn")
	}
}

// The symbols of two new windows arriving together: every goroutine gets its
// window's one estimator, each built once. Run under -race.
func TestSNRCacheConcurrentWindows(t *testing.T) {
	windows := noisyProblems(t, 2, 1)
	var c snrCache
	const workers = 16
	got := make([]*qos.SNREstimator, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := *windows[g%2][0]
			p.ChannelKey = core.ChannelKey(1 + g%2)
			got[g] = c.estimator(&p)
			if _, ok := got[g].Estimate(p.Y); !ok {
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
