package anneal

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// randSparse builds a random physical program on a ring plus chords.
func randSparse(src *rng.Source, n int) *qubo.Sparse {
	s := qubo.NewSparse(n)
	for i := range s.H {
		s.H[i] = src.Gauss(0, 1.5)
	}
	for i := 0; i < n; i++ {
		s.AddEdge(i, (i+1)%n, src.Gauss(0, 1))
	}
	for k := 0; k < n/2; k++ {
		i := src.Intn(n - 2)
		s.AddEdge(i, i+2, src.Gauss(0, 2))
	}
	return s
}

// RunPrepared on a prepared coupling program with fresh fields must be
// bit-identical to Run on the equivalent full program — the contract that
// lets the compiled decode path skip per-symbol preparation.
func TestRunPreparedMatchesRun(t *testing.T) {
	src := rng.New(21)
	params := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 12}
	for _, improved := range []bool{false, true} {
		prog := randSparse(src, 24)
		m := NewMachine()
		pp := m.PrepareProgram(prog, improved)
		if pp.N() != prog.N {
			t.Fatalf("prepared N = %d, want %d", pp.N(), prog.N)
		}
		// Several symbols: fresh fields per run over one prepared program.
		for sym := 0; sym < 3; sym++ {
			h := make([]float64, prog.N)
			for i := range h {
				h[i] = src.Gauss(0, 2+float64(sym)) // sym 2 exceeds HMax: scale kicks in
			}
			full := qubo.NewSparse(prog.N)
			copy(full.H, h)
			full.Edges = prog.Edges
			seed := int64(300 + sym)
			want, err := m.Run(full, params, improved, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.RunPrepared(pp, h, params, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("improved=%t sym=%d: RunPrepared samples diverge from Run", improved, sym)
			}
		}
	}
}

// The per-run divisor — coupler half folded in at prepare time, fields
// scanned per run — must reproduce a one-shot scan of the full program
// exactly, whichever of fields or couplers dominates (duplicate edges
// program one coupler with their summed weight).
func TestRescaleMatchesScale(t *testing.T) {
	src := rng.New(22)
	m := NewMachine()
	for trial := 0; trial < 10; trial++ {
		prog := randSparse(src, 12)
		dense := prog.ToDense()
		for _, improved := range []bool{false, true} {
			r := Range(improved)
			want := 1.0
			for i := 0; i < prog.N; i++ {
				want = math.Max(want, math.Abs(prog.H[i])/r.HMax)
				for j := i + 1; j < prog.N; j++ {
					if w := dense.GetJ(i, j); w >= 0 {
						want = math.Max(want, w/r.JPosMax)
					} else {
						want = math.Max(want, -w/r.JNegMax)
					}
				}
			}
			pp := m.PrepareProgram(prog, improved)
			if got := pp.scale(prog.H); got != want {
				t.Fatalf("trial %d improved=%t: prepared scale %g, one-shot scan %g", trial, improved, got, want)
			}
			if got := m.Scale(prog, improved); got != want {
				t.Fatalf("trial %d improved=%t: Scale %g, one-shot scan %g", trial, improved, got, want)
			}
		}
	}
}

// A field vector of the wrong length must be rejected.
func TestRunPreparedLengthMismatch(t *testing.T) {
	src := rng.New(23)
	m := NewMachine()
	prog := randSparse(src, 8)
	pp := m.PrepareProgram(prog, true)
	params := DefaultParams()
	if _, err := m.RunPrepared(pp, make([]float64, 7), params, rng.New(1)); err == nil {
		t.Fatal("short field vector accepted")
	}
}

// A run allocates only what it returns: the samples and their one backing
// array, plus the callback that keeps the reads — worker kernels, twins,
// streams, the β list, the one-slot run and the fan-out all live in the pooled
// Scratch, so the count does not depend on Na or the worker count. Na=5 is
// the bench ladder's anneal.allocs_per_run.
func TestRunPreparedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	prog := embeddedProgram(t)
	m := NewMachine()
	pp := m.PrepareProgram(prog, true)
	src := rng.New(31)
	for _, na := range []int{5, 19} {
		params := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: na}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := m.RunPrepared(pp, prog.H, params, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Fatalf("RunPrepared at Na=%d allocates %v times per run, want ≤ 3", na, allocs)
		}
	}
}

// Pooled worker scratch must never leak one run's spins, fields or weights
// into another: runs of different programs (so every scratch is rebound
// across sizes), forward and reverse, racing on one machine must each equal
// their serial twin. CI runs this under -race -count=10.
func TestConcurrentRunsMatchSerialTwins(t *testing.T) {
	m := NewMachine()
	gen := rng.New(32)
	type job struct {
		prog     *qubo.Sparse
		improved bool
		initial  []int8
		params   Params
		want     []Sample
	}
	run := func(j *job, seed int64) []Sample {
		var got []Sample
		var err error
		if j.initial == nil {
			got, err = m.Run(j.prog, j.params, j.improved, rng.New(seed))
		} else {
			got, err = m.RunReverse(j.prog, j.params, j.improved, j.initial, rng.New(seed))
		}
		if err != nil {
			t.Error(err)
		}
		return got
	}
	jobs := make([]*job, 6)
	for i := range jobs {
		prog := randSparse(gen, 10+7*i)
		j := &job{
			prog:     prog,
			improved: i%2 == 0,
			params:   Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 3 + 2*i},
		}
		if i%3 == 2 {
			j.initial = randomSpins(gen, prog.N)
		}
		j.want = run(j, int64(i))
		jobs[i] = j
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				if got := run(j, int64(i)); !reflect.DeepEqual(got, j.want) {
					t.Errorf("job %d rep %d: concurrent run diverges from its serial twin", i, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// One Scratch carried across runs of different programs, read counts and
// directions (so its kernels are rebound across sizes, its worker set grows
// and shrinks, and its β list flips between the forward schedule and the
// reverse cycle) must hand out what the allocating entry points return.
func TestScratchReuseMatchesAllocatingRuns(t *testing.T) {
	m := NewMachine()
	gen := rng.New(33)
	var sc Scratch
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 6; i++ {
			prog := randSparse(gen, 31-5*i)
			improved := i%2 == 0
			slot := Slot{PP: m.PrepareProgram(prog, improved), H: prog.H}
			params := Params{AnnealTimeMicros: 1 + float64(i%2), PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 1 + 3*i}
			seed := int64(10*rep + i)
			var want []Sample
			var err error
			if i%3 == 2 {
				slot.Init = randomSpins(gen, prog.N)
				want, err = m.RunReverse(prog, params, improved, slot.Init, rng.New(seed))
			} else {
				want, err = m.Run(prog, params, improved, rng.New(seed))
			}
			if err != nil {
				t.Fatal(err)
			}
			got := collectSlots(t, m, &sc, []Slot{slot}, params, seed, nil)[0]
			for a := range want {
				if !reflect.DeepEqual(got[a], want[a].Spins) {
					t.Fatalf("rep %d run %d read %d: reused scratch diverges from the allocating run", rep, i, a)
				}
			}
		}
	}
}
