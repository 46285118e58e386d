package sched

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// lendingBackend answers in the storage a problem lends (backend.Problem.
// Answer), as the annealer and the classical backends do, with the problem's
// first sample as the answer's Energy. With a gate, every solve reports on
// entered and then takes one token from gate (a closed gate lets all pass).
type lendingBackend struct {
	caps    backend.Capabilities
	slots   int
	entered chan struct{}
	gate    chan struct{}
}

func newLendingBackend(slots int, gated bool) *lendingBackend {
	b := &lendingBackend{caps: backend.Capabilities{Name: "lending", Latency: func(*backend.Problem) float64 { return 1 }}, slots: slots}
	if gated {
		b.entered, b.gate = make(chan struct{}, 16), make(chan struct{})
	}
	return b
}

func (b *lendingBackend) Describe() *backend.Capabilities { return &b.caps }
func (b *lendingBackend) BatchSlots(*backend.Problem) int { return b.slots }

func (b *lendingBackend) wait() {
	if b.gate != nil {
		b.entered <- struct{}{}
		<-b.gate
	}
}

func (b *lendingBackend) answer(p *backend.Problem, batched int) *backend.Result {
	res := p.Answer
	if res == nil {
		res = new(backend.Result)
	}
	*res = backend.Result{Bits: append(res.Bits[:0], 1, 0, 1), Energy: real(p.Y[0]), Backend: b.caps.Name, Batched: batched}
	return res
}

func (b *lendingBackend) Solve(_ context.Context, p *backend.Problem, _ *rng.Source) (*backend.Result, error) {
	b.wait()
	return b.answer(p, 1), nil
}

func (b *lendingBackend) SolveBatch(_ context.Context, ps []*backend.Problem, _ *rng.Source) ([]*backend.Result, error) {
	b.wait()
	results := make([]*backend.Result, len(ps))
	for i, p := range ps {
		results[i] = b.answer(p, len(ps))
	}
	return results, nil
}

// A queued job Dispatch gave up on — its context cancelled or past its
// deadline — while its backend was still solving it never writes the answer
// storage its problem lent: the backend answers in storage the job owns, and
// only a Dispatch still waiting copies an answer over. A warm-up request
// holds the worker while the rest queue; they then share one gated run,
// during which every one of them gives up. Each caller marks its lent Result
// when its Dispatch returns and a reader checks the marks while the run
// finishes, so a write from below shows as a changed mark and, under -race
// (CI runs it ×10), as a race. The warm-up's answer is its own.
func TestAbandonedJobsNeverWriteLentAnswers(t *testing.T) {
	const abandoned = 6
	be := newLendingBackend(abandoned, true)
	s, err := New(Config{Pool: []backend.Backend{be}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h := linalg.Identity(1)
	warm := &backend.Problem{Mod: modulation.BPSK, H: h, Y: []complex128{-1}, Answer: new(backend.Result)}
	warmDone := make(chan error, 1)
	go func() {
		res, err := s.Dispatch(context.Background(), warm, 0)
		if err == nil && (res != warm.Answer || res.Energy != -1) {
			err = errors.New("the warm-up's answer is not its own, in its lent Result")
		}
		warmDone <- err
	}()
	<-be.entered

	mark := backend.Result{Backend: "returned", Bits: []byte{7, 7}}
	var mu sync.Mutex
	var marked []*backend.Result
	var cancels []context.CancelFunc
	var wg sync.WaitGroup
	for i := 0; i < abandoned; i++ {
		// Half give up on a cancel, half on their context's deadline, which
		// the run outlasts.
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 1 {
			ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
		}
		cancels = append(cancels, cancel)
		p := &backend.Problem{Mod: modulation.BPSK, H: h, Y: []complex128{complex(float64(i), 0)}, Answer: new(backend.Result)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Dispatch(ctx, p, time.Hour); !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("an abandoned dispatch returned %v", err)
			}
			*p.Answer = mark
			mu.Lock()
			marked = append(marked, p.Answer)
			mu.Unlock()
		}()
	}
	waitFor(t, "every request queued", func() bool { return s.Stats().QueueDepth == abandoned })
	be.gate <- struct{}{} // the warm-up's solve ends; the rest share the next run
	<-be.entered
	if err := <-warmDone; err != nil {
		t.Fatal(err)
	}
	for i, cancel := range cancels {
		if i%2 == 0 {
			cancel()
		}
	}
	wg.Wait()
	for _, cancel := range cancels {
		cancel()
	}

	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		for {
			for _, r := range marked {
				if r.Backend != mark.Backend || !bytes.Equal(r.Bits, mark.Bits) {
					read <- errors.New("a lent Result changed after its Dispatch returned")
					return
				}
			}
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
		}
	}()
	close(be.gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Submitted != abandoned+1 || st.Completed != 1+abandoned || st.BatchRuns != 1 {
		t.Fatalf("submitted %d, completed %d, %d shared runs; want the warm-up and one shared run of the abandoned %d, all solved", st.Submitted, st.Completed, st.BatchRuns, abandoned)
	}
}
