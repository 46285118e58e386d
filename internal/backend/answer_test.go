package backend

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/core"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// sameAnswer requires a Result answered into lent storage to read as the
// allocating solve's does, to the last float bit, but for the wall-clock
// fields.
func sameAnswer(got, want *Result) error {
	llrs := func(r *Result) []uint64 {
		out := make([]uint64, len(r.LLRs))
		for k, v := range r.LLRs {
			out[k] = math.Float64bits(v)
		}
		return out
	}
	switch {
	case !slices.Equal(got.Bits, want.Bits):
		return fmt.Errorf("bits %v, want %v", got.Bits, want.Bits)
	case !slices.Equal(llrs(got), llrs(want)):
		return fmt.Errorf("LLRs %v, want %v", got.LLRs, want.LLRs)
	case math.Float64bits(got.Energy) != math.Float64bits(want.Energy):
		return fmt.Errorf("energy %v, want %v", got.Energy, want.Energy)
	case got.Backend != want.Backend || got.Batched != want.Batched || got.CacheHit != want.CacheHit ||
		got.LLRSaturated != want.LLRSaturated || got.Reads != want.Reads || got.ReadsPlanned != want.ReadsPlanned ||
		got.BrokenChains != want.BrokenChains:
		return fmt.Errorf("%+v, want %+v", got, want)
	}
	return nil
}

// poison fills a lent Result with what a previous answer of another shape
// could leave behind, so an answer that kept any of it shows.
func poison(r *Result) {
	*r = Result{
		Bits: append(r.Bits[:0], 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), Energy: -1,
		ComputeMicros: 1e12, Backend: "stale", Batched: 9, LLRs: append(r.LLRs[:0], 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5),
		LLRSaturated: 99, CompileMicros: 1e12, CacheHit: true, Reads: 999, BrokenChains: 999, ReadsPlanned: 999,
	}
}

// A solve into lent storage (Problem.Answer) answers there and reads as the
// allocating solve of the same problem on the same stream does, whatever the
// storage held: one lent Result takes hard and soft answers, keyed and raw
// channels and every modulation in turn, solo and as a shared run's member,
// on the annealer and on each classical backend. Its CompileMicros is the
// solve's own, not a sum over the answers it has held.
func TestLentAnswerMatchesAllocatingSolve(t *testing.T) {
	ctx := context.Background()
	alloc, err := NewAnnealer("qpu", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	lend, err := NewAnnealer("qpu", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	problem := func(seed int64, mod modulation.Modulation, nt int, soft, keyed bool) *Problem {
		in := testInstance(t, seed, mod, nt)
		p := problemOf(in)
		p.Soft, p.NoiseVar = soft, 0.5
		if keyed {
			p.Window = core.NewWindow(in.Mod, in.H)
		}
		return p
	}
	ps := []*Problem{
		problem(31, modulation.QPSK, 4, false, true),
		problem(32, modulation.BPSK, 12, true, false),
		problem(33, modulation.QAM16, 3, false, false),
		problem(31, modulation.QPSK, 4, true, true),
		problem(34, modulation.BPSK, 6, false, true),
	}
	answers := []*Result{new(Result), new(Result)}
	for i, p := range ps {
		want, err := alloc.Solve(ctx, p, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		lent := *p
		lent.Answer = answers[0]
		poison(answers[0])
		got, err := lend.Solve(ctx, &lent, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if got != answers[0] {
			t.Fatalf("problem %d: the annealer's answer is not the lent Result", i)
		}
		if err := sameAnswer(got, want); err != nil {
			t.Fatalf("problem %d into a lent Result: %v", i, err)
		}
		if got.CompileMicros >= 1e12 || got.ComputeMicros != want.ComputeMicros {
			t.Fatalf("problem %d: compile %v µs, compute %v µs; want its own compile and %v µs", i, got.CompileMicros, got.ComputeMicros, want.ComputeMicros)
		}
	}

	// A shared run of a soft BPSK and a hard 16-QAM member (N = 12 both).
	run := []*Problem{ps[1], ps[2]}
	wants, err := alloc.SolveBatch(ctx, run, rng.New(40))
	if err != nil {
		t.Fatal(err)
	}
	lentRun := make([]*Problem, len(run))
	for i, p := range run {
		q := *p
		q.Answer = answers[len(run)-1-i] // each takes the other's last shape
		poison(q.Answer)
		lentRun[i] = &q
	}
	gots, err := lend.SolveBatch(ctx, lentRun, rng.New(40))
	if err != nil {
		t.Fatal(err)
	}
	for i := range run {
		if gots[i] != lentRun[i].Answer {
			t.Fatalf("run member %d: the answer is not the lent Result", i)
		}
		if err := sameAnswer(gots[i], wants[i]); err != nil {
			t.Fatalf("run member %d into a lent Result: %v", i, err)
		}
	}

	for _, be := range []Backend{NewClassicalSA("sa", 16, 4), NewSphere("sphere", 0), NewParallelTempering("pt", 4, 2, 10)} {
		for i, p := range ps {
			want, err := be.Solve(ctx, p, rng.New(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			lent := *p
			lent.Answer = answers[0]
			poison(answers[0])
			got, err := be.Solve(ctx, &lent, rng.New(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if got != answers[0] {
				t.Fatalf("%s, problem %d: the answer is not the lent Result", want.Backend, i)
			}
			if err := sameAnswer(got, want); err != nil {
				t.Fatalf("%s, problem %d into a lent Result: %v", want.Backend, i, err)
			}
		}
	}
}

// An annealer solve into a lent Result allocates nothing, raw channel or
// keyed, hard or soft but for the ensemble's map keys: the decoder writes an
// Outcome the annealer pools, whose Bits and LLRs are the lent Result's.
// With nothing lent a solve allocates its Result and the Result's Bits.
func TestAnnealerLentSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	opts := testOptions()
	opts.Params.NumAnneals = 4
	a, err := NewAnnealer("qpu", opts)
	if err != nil {
		t.Fatal(err)
	}
	in := testInstance(t, 41, modulation.QPSK, 4)
	raw := problemOf(in)
	keyed := problemOf(in)
	keyed.Window = core.NewWindow(in.Mod, in.H)
	soft := *keyed
	soft.Soft = true
	measure := func(p *Problem) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		src := rng.New(1)
		return testing.AllocsPerRun(50, func() {
			if _, err := a.Solve(context.Background(), p, src); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := measure(raw); got != 2 {
		t.Errorf("raw-channel solve with nothing lent: %v allocations, want 2", got)
	}
	for _, c := range []struct {
		name string
		p    *Problem
		max  float64
	}{{"raw", raw, 0}, {"keyed", keyed, 0}, {"keyed soft", &soft, 4}} {
		p := *c.p
		p.Answer = new(Result)
		if got := measure(&p); got > c.max {
			t.Errorf("%s solve into a lent Result: %v allocations, want ≤ %v", c.name, got, c.max)
		}
	}
}

// A shared run whose every member lends its Result allocates only the slice
// of results it returns — raw channels or keyed ones: the run's requests and
// the outcomes its members lend the decoder are a pooled batch's, and the
// decoder's slice of outcomes stays on SolveBatch's stack.
func TestAnnealerLentSolveBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	opts := core.Options{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 4}}
	a, err := NewAnnealer("qpu", opts)
	if err != nil {
		t.Fatal(err)
	}
	var raw, keyed []*Problem
	for i := range 3 {
		in := testInstance(t, int64(51+i), modulation.QPSK, 8)
		p := problemOf(in)
		p.Answer = new(Result)
		raw = append(raw, p)
		k := *p
		k.Window = core.NewWindow(in.Mod, in.H)
		k.H, k.Answer = k.Window.Channel(), new(Result)
		keyed = append(keyed, &k)
	}
	if slots := a.BatchSlots(raw[0]); slots < len(raw) {
		t.Fatalf("%d slots for N=16, want ≥ %d", slots, len(raw))
	}
	for _, c := range []struct {
		name string
		ps   []*Problem
	}{{"raw", raw}, {"keyed", keyed}} {
		src := rng.New(1)
		run := func() {
			results, err := a.SolveBatch(context.Background(), c.ps, src)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				if res != c.ps[i].Answer || res.Batched != len(c.ps) || len(res.Bits) != 16 {
					t.Fatalf("%s member %d: %+v, want a 3-member answer in its lent Result", c.name, i, res)
				}
			}
		}
		run()
		gc := debug.SetGCPercent(-1)
		got := testing.AllocsPerRun(50, run)
		debug.SetGCPercent(gc)
		if got > 1 {
			t.Errorf("%s 3-member shared run into lent Results: %v allocations, want ≤ 1 (the returned slice)", c.name, got)
		}
	}
}

// A keyed solve whose window misses a full store allocates nothing into a
// lent Result: 48×48 BPSK windows cycling through a 4-entry store each
// rebuild the storage of the window they evict.
func TestAnnealerKeyedMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	opts := core.Options{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 2}, ChannelCache: 4}
	a, err := NewAnnealer("qpu", opts)
	if err != nil {
		t.Fatal(err)
	}
	var ps []*Problem
	for i := range 5 {
		in := testInstance(t, int64(61+i), modulation.BPSK, 48)
		w := core.NewWindow(in.Mod, in.H)
		ps = append(ps, &Problem{Mod: in.Mod, H: w.Channel(), Y: in.Y, Window: w, Answer: new(Result)})
	}
	src, turn := rng.New(1), 0
	solve := func() {
		turn++
		if res, err := a.Solve(context.Background(), ps[turn%len(ps)], src); err != nil || res.CacheHit {
			t.Fatalf("solve %d: hit=%v err=%v, want a miss", turn, res != nil && res.CacheHit, err)
		}
	}
	for range 2 * len(ps) {
		solve()
	}
	gc := debug.SetGCPercent(-1)
	got := testing.AllocsPerRun(20, solve)
	debug.SetGCPercent(gc)
	if got != 0 {
		t.Fatalf("a keyed solve missing a full store: %v allocations into a lent Result, want 0", got)
	}
}
