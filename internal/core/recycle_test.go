package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/chimera"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// A keyed miss allocates nothing on a full store — the evicted window's
// entry, channel, couplings, template list, weights and chip program are
// rebuilt in place for the next window — and at most 4 objects into a store
// that is still filling: the entry with its channel and first template, the
// couplings' fields and values, their nonzero index, and the weights.
func TestKeyedMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const fillingBound = 4
	for _, c := range []struct {
		mod modulation.Modulation
		nt  int
	}{{modulation.BPSK, 48}, {modulation.QPSK, 8}} {
		const windows = 24
		ins := make([]*mimo.Instance, windows)
		ws := make([]*Window, windows)
		for i := range ins {
			ins[i] = compiledInstance(t, int64(900+i), c.mod, c.nt, 20)
			ws[i] = NewWindow(ins[i].Mod, ins[i].H)
		}
		budget := Budget{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 2}}
		var out Outcome
		src := rng.New(1)
		measure := func(d *Decoder, runs int, next func() int) float64 {
			// A collection mid-measurement would empty the pooled scratch and
			// count its rebuild, so none runs while the decodes are counted.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			return testing.AllocsPerRun(runs, func() {
				i := next()
				if _, err := d.Decode(Request{Window: ws[i], Y: ins[i].Y, Answer: &out}, budget, src); err != nil || out.CacheHit {
					t.Fatalf("window %d: hit=%v err=%v, want a miss", i, out.CacheHit, err)
				}
			})
		}

		// Full: four windows cycling through a store of 3 miss every time.
		full, err := New(Options{ChannelCache: 3})
		if err != nil {
			t.Fatal(err)
		}
		turn := 0
		cycle := func() int { turn++; return turn % 4 }
		for range 8 { // fill the store and grow the spare's storage
			cycle()
			i := turn % 4
			if _, err := full.Decode(Request{Window: ws[i], Y: ins[i].Y, Answer: &out}, budget, src); err != nil {
				t.Fatal(err)
			}
		}
		if n := measure(full, 20, cycle); n != 0 {
			t.Errorf("%d×%d %v keyed miss on a full store: %v allocations, want 0", c.nt, c.nt, c.mod, n)
		}
		if st := full.ChannelCacheStats(); st.Hits != 0 || st.Misses != 8+21 || st.Evictions != 8+21-3 {
			t.Errorf("full store counted %+v, want every lookup a miss and all but 3 evicted", st)
		}

		// Filling: every window new to a store with room for all of them.
		filling, err := New(Options{ChannelCache: windows})
		if err != nil {
			t.Fatal(err)
		}
		i := -1
		if n := measure(filling, windows-1, func() int { i++; return i }); n > fillingBound {
			t.Errorf("%d×%d %v keyed miss into a filling store: %v allocations, want ≤ %d", c.nt, c.nt, c.mod, n, fillingBound)
		}
	}
}

// Recycled storage never aliases: goroutines decode keyed windows of mixed N
// and modulation — solo, soft, shared runs and Compile's kept channels —
// through one decoder whose store holds 2 entries, so evicted entries are
// rebuilt for windows of other sizes while other decodes run. Every answer is
// bit-identical to the same job's on a fresh decoder. CI runs this under
// -race -count=10.
func TestRecycledWindowNeverAliased(t *testing.T) {
	newDecoder := func(cache int) *Decoder {
		d, err := New(Options{
			Graph:        chimera.New(6),
			Params:       anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 6},
			ChannelCache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ins := []*mimo.Instance{
		compiledInstance(t, 71, modulation.QPSK, 4, 14),
		compiledInstance(t, 72, modulation.BPSK, 12, 12),
		compiledInstance(t, 73, modulation.QAM16, 3, 18),
		compiledInstance(t, 74, modulation.QPSK, 8, 10),
		compiledInstance(t, 75, modulation.BPSK, 12, 8),
		compiledInstance(t, 76, modulation.QPSK, 6, 12),
	}
	ws := make([]*Window, len(ins))
	for i, in := range ins {
		ws[i] = NewWindow(in.Mod, in.H)
	}
	type job func(d *Decoder, src *rng.Source) ([]*Outcome, error)
	solo := func(i int, soft bool) job {
		return func(d *Decoder, src *rng.Source) ([]*Outcome, error) {
			req := Request{Window: ws[i], Y: ins[i].Y}
			if soft {
				req.Soft = &softout.Spec{NoiseVar: ins[i].NoiseVariance()}
			}
			out, err := d.Decode(req, Budget{}, src)
			return []*Outcome{out}, err
		}
	}
	kept := func(i int) job {
		return func(d *Decoder, src *rng.Source) ([]*Outcome, error) {
			cc, err := d.Compile(ins[i].Mod, ins[i].H)
			if err != nil {
				return nil, err
			}
			out, err := d.Decode(Request{CC: cc, Y: ins[i].Y}, Budget{}, src)
			return []*Outcome{out}, err
		}
	}
	run := func(items ...int) job {
		return func(d *Decoder, src *rng.Source) ([]*Outcome, error) {
			reqs := make([]Request, len(items))
			for k, i := range items {
				reqs[k] = Request{Window: ws[i], Mod: ins[i].Mod, H: ins[i].H, Y: ins[i].Y}
			}
			return d.DecodeRun(reqs, Budget{}, src)
		}
	}
	jobs := []job{
		solo(0, false), solo(1, true), solo(2, false), solo(3, true), solo(4, false), solo(5, false),
		kept(3), kept(0),
		run(1, 2, 4), // N = 12 three times: BPSK, 16-QAM and BPSK windows sharing a run
		run(5, 5),    // one window twice in a run
	}
	wants := make([][]*Outcome, len(jobs))
	for i, j := range jobs {
		var err error
		if wants[i], err = j(newDecoder(0), rng.New(int64(200+i))); err != nil {
			t.Fatalf("job %d on a fresh decoder: %v", i, err)
		}
	}
	shared := newDecoder(2)
	var wg sync.WaitGroup
	for g := range 2 * len(jobs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 3 * len(jobs) {
				i := (g + rep*(1+g%3)) % len(jobs)
				got, err := jobs[i](shared, rng.New(int64(200+i)))
				if err != nil {
					t.Errorf("job %d: %v", i, err)
					return
				}
				for k := range wants[i] {
					if !sameDecision(got[k], wants[i][k]) {
						t.Errorf("job %d item %d: through the recycling store %+v, fresh decoder %+v", i, k, got[k], wants[i][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := shared.ChannelCacheStats(); st.Evictions == 0 {
		t.Fatalf("the store never evicted (%+v): nothing was recycled", st)
	}
}

// A window evicted while a decode holds it is not rebuilt under that decode.
// The decode pins its window, then waits (the test holds the decoder's lock,
// which its first program at a new chain strength takes); meanwhile a miss on
// a one-entry store evicts the window. The held entry must not become the
// spare while pinned — the miss builds elsewhere — the held decode must
// answer as its serial twin does, and the entry becomes the spare once the
// decode lets go.
func TestEvictedWhileHeldIsNotRebuilt(t *testing.T) {
	newDecoder := func() *Decoder { return compiledTestDecoder(t, 1) }
	a := compiledInstance(t, 81, modulation.QPSK, 3, 16)
	b := compiledInstance(t, 82, modulation.QPSK, 3, 16)
	wa, wb := NewWindow(a.Mod, a.H), NewWindow(b.Mod, b.H)
	held := Budget{JF: 3} // a chain strength no decode has programmed yet

	twin := func(w *Window, in *mimo.Instance, b Budget) *Outcome {
		out, err := newDecoder().Decode(Request{Window: w, Y: in.Y}, b, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	wantA, wantB := twin(wa, a, held), twin(wb, b, Budget{})

	d := newDecoder()
	if _, err := d.Decode(Request{Window: wa, Y: a.Y}, Budget{}, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	entry := func(key ChannelKey) (*windowEntry[CompiledChannel], int) {
		d.channels.mu.Lock()
		defer d.channels.mu.Unlock()
		e := d.channels.m[key]
		if e == nil {
			return nil, 0
		}
		return e, e.pins
	}
	ea, _ := entry(wa.Key())
	if ea == nil {
		t.Fatal("window A is not in the store")
	}

	d.mu.Lock() // the held decode's new template waits here
	var gotA, gotB *Outcome
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotA, errA = d.Decode(Request{Window: wa, Y: a.Y}, held, rng.New(9))
	}()
	for _, pins := entry(wa.Key()); pins == 0; _, pins = entry(wa.Key()) {
		runtime.Gosched()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotB, errB = d.Decode(Request{Window: wb, Y: b.Y}, Budget{}, rng.New(9))
	}()
	for st := d.ChannelCacheStats(); st.Evictions == 0; st = d.ChannelCacheStats() {
		runtime.Gosched()
	}
	d.channels.mu.Lock()
	if d.channels.spare == ea || !ea.dropped || ea.pins != 1 || ea.h != wa.Channel() {
		t.Errorf("evicted while held: spare=%v dropped=%v pins=%d own channel=%v", d.channels.spare == ea, ea.dropped, ea.pins, ea.h == wa.Channel())
	}
	d.channels.mu.Unlock()
	d.mu.Unlock()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !sameDecision(gotA, wantA) || !sameDecision(gotB, wantB) {
		t.Fatalf("held decode %+v want %+v; evicting decode %+v want %+v", gotA, wantA, gotB, wantB)
	}
	d.channels.mu.Lock()
	defer d.channels.mu.Unlock()
	if d.channels.spare != ea {
		t.Fatal("the evicted entry did not become the spare once its decode let go")
	}
}
