package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/detector"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// TestWindowStore scripts the store's whole contract, one row per rule: each
// step is one Get, naming its key, its channel (an index into a fixed set of
// matrices; 3 is a clone of 0 — equal contents under another pointer) and
// whether its build fails (returns an error) or panics, and stating whether it
// must hit. A hit must return exactly what the last successful build for that
// (key, channel) returned.
func TestWindowStore(t *testing.T) {
	src := rng.New(77)
	chans := []*linalg.Mat{
		channel.Rayleigh{}.Generate(src, 3, 3),
		channel.Rayleigh{}.Generate(src, 3, 3),
		channel.Rayleigh{}.Generate(src, 3, 3),
	}
	chans = append(chans, chans[0].Clone())
	type step struct {
		key  int
		ch   int
		mod  modulation.Modulation
		fail bool
		boom bool // the build panics
		hit  bool
	}
	const q, b = modulation.QPSK, modulation.BPSK
	for _, row := range []struct {
		name     string
		capacity int
		steps    []step
		want     metrics.ChannelCacheStats
	}{
		{"least recently used goes first", 2, []step{
			{key: 1, ch: 0, mod: q}, {key: 2, ch: 1, mod: q}, {key: 1, ch: 0, mod: q, hit: true},
			{key: 3, ch: 2, mod: q},            // evicts key 2, not the just-touched key 1
			{key: 1, ch: 0, mod: q, hit: true}, // still here
			{key: 2, ch: 1, mod: q},            // evicts key 3
			{key: 3, ch: 2, mod: q},            // evicts key 1
			{key: 1, ch: 0, mod: q},            // evicts key 2
		}, metrics.ChannelCacheStats{Hits: 2, Misses: 6, Evictions: 4}},
		{"capacity 1", 1, []step{
			{key: 1, ch: 0, mod: q}, {key: 1, ch: 0, mod: q, hit: true},
			{key: 2, ch: 1, mod: q}, {key: 1, ch: 0, mod: q},
		}, metrics.ChannelCacheStats{Hits: 1, Misses: 3, Evictions: 2}},
		{"equal contents under another pointer is the same channel", 2, []step{
			{key: 1, ch: 0, mod: q}, {key: 1, ch: 3, mod: q, hit: true}, {key: 1, ch: 0, mod: q, hit: true},
		}, metrics.ChannelCacheStats{Hits: 2, Misses: 1}},
		{"a key reused for another channel is a miss and the newer channel keeps it", 2, []step{
			{key: 1, ch: 0, mod: q}, {key: 1, ch: 1, mod: q}, {key: 1, ch: 1, mod: q, hit: true}, {key: 1, ch: 0, mod: q},
		}, metrics.ChannelCacheStats{Hits: 1, Misses: 3, Evictions: 2}},
		{"one matrix under another modulation is another channel", 2, []step{
			{key: 1, ch: 0, mod: q}, {key: 1, ch: 0, mod: b}, {key: 1, ch: 0, mod: b, hit: true},
		}, metrics.ChannelCacheStats{Hits: 1, Misses: 2, Evictions: 1}},
		{"a failed build is not remembered and the next caller builds again", 2, []step{
			{key: 1, ch: 0, mod: q, fail: true}, {key: 1, ch: 0, mod: q}, {key: 1, ch: 0, mod: q, hit: true},
		}, metrics.ChannelCacheStats{Hits: 1, Misses: 2}},
		{"a build that panics leaves no entry for later callers to wait on", 2, []step{
			{key: 1, ch: 0, mod: q, boom: true}, {key: 1, ch: 0, mod: q}, {key: 1, ch: 0, mod: q, hit: true},
		}, metrics.ChannelCacheStats{Hits: 1, Misses: 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := NewWindowStore[int](row.capacity)
			type built struct {
				key, ch int
				mod     modulation.Modulation
			}
			serial, last := 0, map[built]int{}
			boom := errors.New("boom")
			for i, st := range row.steps {
				who := built{st.key, st.ch % 3, st.mod} // a clone is its original
				build := func(v *int, _ *linalg.Mat) error {
					if st.fail {
						return boom
					}
					serial++
					last[who] = serial
					*v = serial
					return nil
				}
				if st.boom {
					func() {
						defer func() { recover() }()
						s.Get(ChannelKey(st.key), st.mod, chans[st.ch], false, func(*int, *linalg.Mat) error { panic("boom") })
						t.Fatalf("step %d: the build's panic did not reach its caller", i)
					}()
					continue
				}
				got, hit, err := s.Get(ChannelKey(st.key), st.mod, chans[st.ch], false, build)
				if st.fail != (err != nil) || (err != nil && !errors.Is(err, boom)) {
					t.Fatalf("step %d: err %v, fail=%v", i, err, st.fail)
				}
				if hit != st.hit {
					t.Fatalf("step %d (key %d, channel %d): hit=%v, want %v", i, st.key, st.ch, hit, st.hit)
				}
				if err == nil && *got != last[who] {
					t.Fatalf("step %d (key %d, channel %d): value of build %d, want this channel's build %d", i, st.key, st.ch, *got, last[who])
				}
			}
			if got := s.Stats(); got != row.want {
				t.Fatalf("stats %+v, want %+v", got, row.want)
			}
			if listed := s.listed(); listed != len(s.m) || len(s.m) > row.capacity {
				t.Fatalf("%d keys, %d entries, capacity %d", len(s.m), listed, row.capacity)
			}
		})
	}
}

// listed counts the recency list's entries, checking its links both ways.
func (s *WindowStore[V]) listed() int {
	n := 0
	var prev *windowEntry[V]
	for e := s.head; e != nil; prev, e = e, e.next {
		if e.prev != prev || s.m[e.key] != e {
			return -1
		}
		n++
	}
	if s.tail != prev {
		return -1
	}
	return n
}

// The symbols of two new windows arriving together: each window is built
// once, every caller gets its window's one value, and only the two builders
// count as misses — a caller that waits on a build compiled nothing, so it
// counts as a hit. CI runs this under -race -count=10.
func TestWindowStoreSingleFlight(t *testing.T) {
	src := rng.New(78)
	chans := []*linalg.Mat{channel.Rayleigh{}.Generate(src, 3, 3), channel.Rayleigh{}.Generate(src, 3, 3)}
	s := NewWindowStore[*int](4)
	const callers = 16
	var builds, misses atomic.Int32
	release := make(chan struct{})
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := g % 2
			v, hit, err := s.Get(ChannelKey(1+w), modulation.QPSK, chans[w], false, func(v **int, _ *linalg.Mat) error {
				builds.Add(1)
				<-release
				*v = &w
				return nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
				return
			}
			if !hit {
				misses.Add(1)
			}
			got[g] = *v
		}()
	}
	// Both builds stay open until every caller is in: each counts itself
	// before it builds or waits.
	for st := s.Stats(); st.Hits+st.Misses < callers; st = s.Stats() {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds for 2 windows", n)
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != callers-2 || misses.Load() != 2 {
		t.Fatalf("stats %+v and %d callers told of a miss, want 2 misses and %d hits", st, misses.Load(), callers-2)
	}
	for g := 0; g < callers; g++ {
		if got[g] == nil || got[g] != got[g%2] {
			t.Fatalf("caller %d got its own value for window %d", g, g%2)
		}
	}
	if got[0] == got[1] {
		t.Fatal("two windows share one value")
	}
}

// A hit allocates nothing — through the store, and through a Window decode
// into a lent Outcome above it, which is what every symbol of a warm window
// pays.
func TestWindowStoreHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled run scratch")
	}
	d := compiledTestDecoder(t, 2)
	in := compiledInstance(t, 960, modulation.QPSK, 2, 20)
	w := NewWindow(in.Mod, in.H)
	var out Outcome
	src := rng.New(1)
	req := Request{Window: w, Y: in.Y, Answer: &out}
	if _, err := d.Decode(req, Budget{}, src); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.Decode(req, Budget{}, src); err != nil || !out.CacheHit {
			t.Fatalf("hit=%v err=%v on a warm window", out.CacheHit, err)
		}
	}); n != 0 {
		t.Fatalf("a decode through a warm window makes %v allocations, want 0", n)
	}
}

// A window factors its channel once, on first use, however many goroutines
// ask at once; it serves its program only for its own channel — the same
// matrix or an equal one — and a foreign channel, or no window, gets a
// fresh program. CI runs this under -race.
func TestWindowSphereFor(t *testing.T) {
	src := rng.New(79)
	h := channel.Rayleigh{}.Generate(src, 4, 3)
	w := NewWindow(modulation.QPSK, h)
	if w.Key() != FingerprintChannel(modulation.QPSK, h) || (*Window)(nil).Key() != 0 {
		t.Fatal("a window's key is not its channel's fingerprint, or a nil window has a key")
	}
	before := detector.SphereCompiles()
	const callers = 8
	got := make([]*detector.SphereProgram, callers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = w.SphereFor(modulation.QPSK, h)
		}()
	}
	wg.Wait()
	if n := detector.SphereCompiles() - before; n != 1 {
		t.Fatalf("%d factorizations for one window", n)
	}
	for _, p := range got {
		if p != w.Sphere() {
			t.Fatal("a caller got a program that is not the window's")
		}
	}
	if w.SphereFor(modulation.QPSK, h.Clone()) != w.Sphere() {
		t.Fatal("an equal matrix under another pointer is not the window's channel")
	}
	other := channel.Rayleigh{}.Generate(src, 4, 3)
	for _, c := range []struct {
		w   *Window
		mod modulation.Modulation
		h   *linalg.Mat
	}{{w, modulation.QPSK, other}, {w, modulation.QAM16, h}, {nil, modulation.QPSK, h}} {
		if p := c.w.SphereFor(c.mod, c.h); p == w.Sphere() || p.Mod() != c.mod {
			t.Fatalf("SphereFor(%v, %p) on window %p served the window's program", c.mod, c.h, c.w)
		}
	}
}
