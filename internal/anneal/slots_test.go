package anneal

import (
	"reflect"
	"testing"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// slotRun is a shared run for the tests below: slots of different sizes with
// fields of different magnitudes (one past HMax, so the fields of one slot set
// the auto-scale of all), and the combined program the run used to be — the
// slots' programs side by side at index offsets.
type slotRun struct {
	slots    []Slot
	combined *qubo.Sparse
}

func newSlotRun(m *Machine, src *rng.Source, improved bool, sizes ...int) slotRun {
	var r slotRun
	total := 0
	for _, n := range sizes {
		total += n
	}
	r.combined = qubo.NewSparse(total)
	off := 0
	for i, n := range sizes {
		prog := randSparse(src, n)
		for q := range prog.H {
			prog.H[q] *= float64(1 + i) // the last slot's fields dominate
		}
		copy(r.combined.H[off:], prog.H)
		for _, e := range prog.Edges {
			r.combined.AddEdge(e.I+off, e.J+off, e.W)
		}
		r.slots = append(r.slots, Slot{PP: m.PrepareProgram(prog, improved), H: prog.H})
		off += n
	}
	return r
}

// serialReads is the oracle of a run: slot i's reads are one deviceRead
// walking the schedule, read a on the stream keyed by (the run source's i-th
// draw, a), under the given auto-scale, whatever the other slots do.
func serialReads(m *Machine, r slotRun, scale float64, params Params, seed int64) [][][]int8 {
	src := rng.New(seed)
	betas := ScheduleFromParams(m, params).betas()
	out := make([][][]int8, len(r.slots))
	for i, sl := range r.slots {
		var rd deviceRead
		rd.warm([]Slot{sl})
		seed := src.Uint64()
		for a := 0; a < params.NumAnneals; a++ {
			spins := rd.read(sl.PP, sl.H, scale, m.ICE, nil, betas, seed, a)
			out[i] = append(out[i], append([]int8(nil), spins...))
		}
	}
	return out
}

// collectSlots runs RunSlots and keeps every read it hands out, settling slot
// i after stopAt[i] reads (0 = never). The callback takes no lock: a run
// calls it one read at a time per slot, and slot i's reads land in got[i].
func collectSlots(t *testing.T, m *Machine, sc *Scratch, slots []Slot, params Params, seed int64, stopAt []int) [][][]int8 {
	t.Helper()
	got := make([][][]int8, len(slots))
	err := m.RunSlots(sc, slots, params, rng.New(seed), func(slot int, spins []int8) bool {
		got[slot] = append(got[slot], append([]int8(nil), spins...))
		return stopAt != nil && len(got[slot]) == stopAt[slot]
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// A shared run is exact, not approximate: its auto-scale EQUALS the combined
// program's (a max has no rounding), every slot's reads are the serial chain
// on that slot's own keyed streams at every worker count, and a slot that
// settles ran the exact prefix of its uncut self while its neighbors' reads do
// not move. CI runs this under -race -count=10.
func TestRunSlotsMatchesSerialReadsAtEveryWorkerCount(t *testing.T) {
	params := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 9}
	for _, improved := range []bool{false, true} {
		m := NewMachine()
		r := newSlotRun(m, rng.New(41), improved, 24, 16, 24, 30, 16)
		want := m.PrepareProgram(r.combined, improved).scale(r.combined.H)
		scale := 1.0
		for _, sl := range r.slots {
			scale = max(scale, sl.PP.scale(sl.H))
		}
		if scale != want || scale == 1 {
			t.Fatalf("improved=%t: max over slots %v, combined program %v (want equal and above 1)", improved, scale, want)
		}
		uncut := serialReads(m, r, want, params, 77)
		stopAt := []int{0, 1, 4, 0, 9}
		var sc Scratch
		for _, workers := range []int{1, 3, 8} {
			m.Workers = workers
			if got := collectSlots(t, m, &sc, r.slots, params, 77, nil); !reflect.DeepEqual(got, uncut) {
				t.Fatalf("improved=%t workers=%d: slot-major reads diverge from the serial chains", improved, workers)
			}
			got := collectSlots(t, m, &sc, r.slots, params, 77, stopAt)
			for i, reads := range got {
				k := stopAt[i]
				if k == 0 {
					k = params.NumAnneals
				}
				if !reflect.DeepEqual(reads, uncut[i][:k]) {
					t.Fatalf("improved=%t workers=%d slot %d: %d reads, want the first %d of the uncut run", improved, workers, i, len(reads), k)
				}
			}
		}
	}
}

func TestRunSlotsRejectsBadInput(t *testing.T) {
	m := NewMachine()
	r := newSlotRun(m, rng.New(42), true, 8, 8)
	never := func(int, []int8) bool { return false }
	var sc Scratch
	if err := m.RunSlots(&sc, r.slots, Params{}, rng.New(1), never); err == nil {
		t.Fatal("invalid params accepted")
	}
	if err := m.RunSlots(&sc, nil, DefaultParams(), rng.New(1), never); err == nil {
		t.Fatal("empty run accepted")
	}
	reverse := DefaultParams()
	r.slots[0].Init = randomSpins(rng.New(2), r.slots[0].PP.N())
	if err := m.RunSlots(&sc, r.slots, reverse, rng.New(1), never); err == nil {
		t.Fatal("run mixing a reverse and a forward slot accepted")
	}
	r.slots[1].Init = randomSpins(rng.New(3), r.slots[1].PP.N()-1)
	if err := m.RunSlots(&sc, r.slots, reverse, rng.New(1), never); err == nil {
		t.Fatal("short initial state accepted")
	}
	r.slots[1].Init = randomSpins(rng.New(3), r.slots[1].PP.N())
	if err := m.RunSlots(&sc, r.slots, reverse, rng.New(1), never); err != nil {
		t.Fatal(err)
	}
	reverse.PauseTimeMicros, reverse.PausePosition = 0, 0
	if err := m.RunSlots(&sc, r.slots, reverse, rng.New(1), never); err == nil {
		t.Fatal("reverse run without a turning point accepted")
	}
	r.slots[0].Init, r.slots[1].Init = nil, nil
	r.slots[1].H = r.slots[1].H[:7]
	if err := m.RunSlots(&sc, r.slots, DefaultParams(), rng.New(1), never); err == nil {
		t.Fatal("short field vector accepted")
	}
}

// On a warm scratch a run allocates nothing, whatever the read budget: the
// worker body is bound once and the run's state lives in the scratch.
func TestRunSlotsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := NewMachine()
	r := newSlotRun(m, rng.New(43), true, 40, 40, 40)
	src := rng.New(44)
	never := func(int, []int8) bool { return false }
	var sc Scratch
	for _, na := range []int{5, 19} {
		params := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: na}
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.RunSlots(&sc, r.slots, params, src, never); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("RunSlots at Na=%d allocates %v times per run on a warm scratch, want 0", na, allocs)
		}
	}
}
