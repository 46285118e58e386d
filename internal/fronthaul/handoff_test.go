package fronthaul

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/router"
	"quamax/internal/sched"
)

// gatedStack is a scheduler over one gated pool backend, with the built-in
// planner so a request carrying a target BER is certified at admission, and
// a router over it: the production dispatch path.
func gatedStack(t *testing.T) (*gatedBackend, *sched.Scheduler, *router.Router) {
	t.Helper()
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	be := &gatedBackend{caps: backend.Capabilities{Name: "gated", Latency: func(*backend.Problem) float64 { return 100 }},
		entered: make(chan struct{}, 16), gate: make(chan struct{})}
	s, err := sched.New(sched.Config{Pool: []backend.Backend{be}, Planner: pl, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{Shards: []router.Shard{s}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return be, s, rt
}

// A request that must wait hands reading on: while a gated pool backend
// holds a request without a target BER, 32 certified 8×8 QPSK requests on
// the same connection are answered, each exactly as the scheduler answers it
// in-process. Dispatching on the reading goroutine without the hand-off
// stalls them all behind the held one.
func TestQueuedRequestDoesNotStallItsConnection(t *testing.T) {
	be, s, rt := gatedStack(t)
	defer s.Close()
	release := sync.OnceFunc(func() { close(be.gate) })
	defer release() // before Close, which drains the held request
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() { NewPoolServer(rt).handleConn(srvConn); close(done) }()
	client := NewClient(cliConn)
	defer client.Close()

	held := testInstance(t, 900, modulation.QPSK, 8)
	queued, err := client.SubmitDecodeQoS(held.Mod, held.H, held.Y, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the queued request to reach the backend", func() { <-be.entered })

	const target = 1e-3
	within(t, "32 certified requests behind a held one", func() {
		for i := 0; i < 32; i++ {
			in := testInstance(t, int64(901+i), modulation.QPSK, 8)
			resp, err := client.DecodeQoS(in.Mod, in.H, in.Y, 0, target)
			if err != nil {
				t.Errorf("certified request %d: %v", i, err)
				return
			}
			want, err := s.Dispatch(context.Background(), &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y, TargetBER: target}, 0)
			if err != nil {
				t.Errorf("in-process dispatch %d: %v", i, err)
				return
			}
			got := backend.Result{Bits: resp.Bits, Energy: resp.Energy, ComputeMicros: resp.ComputeMicros,
				Backend: resp.Backend, Batched: resp.Batched}
			if want.Backend != sched.CertificateBackend || !reflect.DeepEqual(got, backend.Result{Bits: want.Bits,
				Energy: want.Energy, ComputeMicros: want.ComputeMicros, Backend: want.Backend, Batched: want.Batched}) {
				t.Errorf("certified request %d answered %+v, the scheduler answers %+v", i, got, *want)
			}
		}
	})
	release()
	within(t, "the queued request", func() {
		if resp, err := queued.Await(); err != nil || resp.Backend != "gated" {
			t.Errorf("queued request: %+v, %v", resp, err)
		}
	})
	client.Close()
	within(t, "server unwind", func() { <-done })
}

// A connection has at most PipelineDepth + 1 goroutines serving it — one per
// request in service and one reading — besides its writer, and they are
// parked and reused from one window to the next, not respawned.
func TestConnectionGoroutinesBounded(t *testing.T) {
	const depth = 4
	disp := &gateDispatcher{entered: make(chan struct{}, depth), release: make(chan struct{})}
	srv := NewPoolServer(disp)
	srv.PipelineDepth = depth
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	base := settledGoroutines()
	done := make(chan struct{})
	go func() { srv.handleConn(srvConn); close(done) }()

	in := testInstance(t, 910, modulation.BPSK, 2)
	for round := 0; round < 5; round++ {
		var calls []*DecodeCall
		for i := 0; i < depth; i++ {
			dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, dc)
		}
		// No within here: its goroutine could still be counted below.
		for i := 0; i < depth; i++ {
			select {
			case <-disp.entered:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: %d of a window of %d in service", round, i, depth)
			}
		}
		// depth in service, one reading, the writer. (An earlier test's
		// goroutine still exiting can only lower the count.)
		if got := runtime.NumGoroutine() - base; got > depth+2 {
			t.Fatalf("round %d: %d server goroutines with a full window of %d, want at most %d", round, got, depth, depth+2)
		}
		for range calls {
			disp.release <- struct{}{}
		}
		for i, dc := range calls {
			if _, err := dc.Await(); err != nil {
				t.Fatalf("round %d call %d: %v", round, i, err)
			}
		}
	}
	client.Close()
	<-done
}

// settledGoroutines is the goroutine count once it holds still for 10 ms,
// or after a second: earlier tests' goroutines finish exiting first.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// Dropping a connection with queued and certified requests in service ends
// every one of its goroutines, and each call gets one answer or the
// terminal error. The scheduler finishes the queued jobs as cancelled once
// its worker is free.
func TestDroppedConnectionEndsItsGoroutines(t *testing.T) {
	be, s, rt := gatedStack(t)
	defer s.Close()
	base := settledGoroutines()
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() { NewPoolServer(rt).handleConn(srvConn); close(done) }()
	client := NewClient(cliConn)

	var calls []*DecodeCall
	submit := func(seed int64, target float64) {
		in := testInstance(t, seed, modulation.QPSK, 8)
		dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, target)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, dc)
	}
	// One held by the backend, three queued behind it, and certified ones
	// interleaved: in service, answered or still being read when the
	// connection drops.
	for i := 0; i < 4; i++ {
		submit(int64(920+i), 0)
		submit(int64(930+i), 1e-3)
		submit(int64(940+i), 1e-3)
	}
	within(t, "the held request to reach the backend", func() { <-be.entered })
	client.Close()
	within(t, "server unwind", func() { <-done })
	close(be.gate)
	within(t, "every call answered once", func() {
		for i, dc := range calls {
			if resp, err := dc.Await(); err != nil && !errors.Is(err, ErrClientClosed) {
				t.Errorf("call %d: %v", i, err)
			} else if err == nil && len(resp.Bits) != 16 {
				t.Errorf("call %d: %+v", i, resp)
			}
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left over a baseline of %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
