package detector

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

func TestClassicalSADecodesNoiseFree(t *testing.T) {
	src := rng.New(154)
	sa := NewClassicalSA(200, 20)
	for _, mod := range []modulation.Modulation{modulation.BPSK, modulation.QPSK} {
		h, y, bits, _ := instance(src, mod, 8, 8, math.Inf(1))
		res, err := sa.Decode(mod, h, y, src)
		if err != nil {
			t.Fatalf("%v: %v", mod, err)
		}
		if bitErrors(bits, res.Bits) != 0 {
			t.Fatalf("%v: classical SA failed noise-free (metric %g)", mod, res.Metric)
		}
	}
}

// Classical SA on the logical problem must find the ML solution of moderate
// instances (cross-check against the sphere decoder).
func TestClassicalSAMatchesML(t *testing.T) {
	src := rng.New(155)
	sa := NewClassicalSA(300, 30)
	hits := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		h, y, _, _ := instance(src, modulation.BPSK, 12, 12, 15)
		res, err := sa.Decode(modulation.BPSK, h, y, src)
		if err != nil {
			t.Fatal(err)
		}
		ml, err := SphereDecode(modulation.BPSK, h, y, SphereOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Metric-ml.Metric) < 1e-6*(1+ml.Metric) {
			hits++
		}
	}
	if hits < trials-1 {
		t.Fatalf("classical SA matched ML on only %d/%d instances", hits, trials)
	}
}

func TestClassicalSAValidation(t *testing.T) {
	src := rng.New(156)
	h, y, _, _ := instance(src, modulation.BPSK, 2, 2, 10)
	bad := &ClassicalSA{Sweeps: 0, Restarts: 1, BetaInitial: 0.1, BetaFinal: 5}
	if _, err := bad.Decode(modulation.BPSK, h, y, src); err == nil {
		t.Fatal("zero sweeps accepted")
	}
}

// The restarts share one engine run whose working set (compiled kernel, seeds,
// one twin per worker) is pooled, so a decode allocates what it returns and no
// more — 27 on this 36-user BPSK shape: the reduction, the schedule, the
// returned samples and the result; no per-restart stream, state or output.
func TestClassicalSAAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	src := rng.New(156)
	h, y, _, _ := instance(src, modulation.BPSK, 36, 36, 20)
	sa := NewClassicalSA(128, 100)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sa.Decode(modulation.BPSK, h, y, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 27 {
		t.Fatalf("ClassicalSA.Decode allocates %v times per call, want ≤ 27", allocs)
	}
	// The stopping rule's tally lives in the pooled engine: armed, firing or
	// not, costs nothing more.
	for _, repeats := range []int{3, 1000} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := sa.DecodeUntil(modulation.BPSK, h, y, repeats, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 27 {
			t.Fatalf("ClassicalSA.DecodeUntil(repeats=%d) allocates %v times per call, want ≤ 27", repeats, allocs)
		}
	}
}

// Pooled engine scratch must never leak one decode's spins or couplings into
// another: decodes of different sizes racing each other must each equal their
// serial twin. CI runs this under -race -count=10.
func TestClassicalSAConcurrentDecodesMatchSerialTwins(t *testing.T) {
	src := rng.New(157)
	sa := NewClassicalSA(32, 70) // 70 restarts: one full block and one partial
	type job struct {
		mod  modulation.Modulation
		h    *linalg.Mat
		y    []complex128
		want Result
	}
	jobs := make([]*job, 6)
	for i := range jobs {
		mod := []modulation.Modulation{modulation.BPSK, modulation.QPSK, modulation.QAM16}[i%3]
		h, y, _, _ := instance(src, mod, 3+2*i, 3+2*i, 15)
		want, err := sa.Decode(mod, h, y, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = &job{mod, h, y, want}
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				got, err := sa.Decode(j.mod, j.h, j.y, rng.New(int64(i)))
				if err != nil || !reflect.DeepEqual(got, j.want) {
					t.Errorf("job %d rep %d: concurrent decode diverges from its serial twin (err %v)", i, rep, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
