package fronthaul

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/modulation"
)

// sleepDispatcher serves each problem after sleeping its deadline argument
// and records the completion order, so a test can make response order the
// reverse of request order deterministically.
type sleepDispatcher struct {
	mu        sync.Mutex
	completed []time.Duration

	inService atomic.Int64
	maxSeen   atomic.Int64
}

func (d *sleepDispatcher) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	handOff(p)
	n := d.inService.Add(1)
	for {
		max := d.maxSeen.Load()
		if n <= max || d.maxSeen.CompareAndSwap(max, n) {
			break
		}
	}
	defer d.inService.Add(-1)
	if deadline > 0 {
		time.Sleep(deadline)
	}
	d.mu.Lock()
	d.completed = append(d.completed, deadline)
	d.mu.Unlock()
	return &backend.Result{Bits: []byte{1}, Backend: "sleep"}, nil
}

// TestPipelinedOutOfOrderResponses keeps several decodes in flight on one
// connection with service times arranged so responses come back in reverse
// submission order, and checks every Await still receives its own response:
// the whole point of the ID-matched demux.
func TestPipelinedOutOfOrderResponses(t *testing.T) {
	disp := &sleepDispatcher{}
	server := NewPoolServer(disp)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 801, modulation.BPSK, 2)
	// First submitted sleeps longest: completion order is the reverse of
	// submission order.
	deadlines := []time.Duration{80 * time.Millisecond, 40 * time.Millisecond, 5 * time.Millisecond}
	var calls []*DecodeCall
	for _, d := range deadlines {
		dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, dc)
	}
	for i, dc := range calls {
		resp, err := dc.Await()
		if err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
		if resp.Backend != "sleep" || len(resp.Bits) == 0 {
			t.Fatalf("await %d delivered a foreign response: %+v", i, resp)
		}
	}
	if got := disp.maxSeen.Load(); got < 2 {
		t.Fatalf("peak in-service concurrency %d, want ≥ 2 (requests did not overlap)", got)
	}
	disp.mu.Lock()
	defer disp.mu.Unlock()
	if len(disp.completed) != 3 || disp.completed[0] != deadlines[2] || disp.completed[2] != deadlines[0] {
		t.Fatalf("completion order %v is not the reverse of submission %v", disp.completed, deadlines)
	}
}

// gateDispatcher blocks every dispatch until released, signalling each entry,
// so a test can count how many requests the server lets into service.
type gateDispatcher struct {
	entered chan struct{}
	release chan struct{}
}

func (d *gateDispatcher) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	handOff(p)
	d.entered <- struct{}{}
	select {
	case <-d.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &backend.Result{Bits: []byte{1}, Backend: "gate"}, nil
}

// TestPipelineWindowBackpressure pins the server's in-flight window at 2 and
// checks a third request is not admitted into service until a slot frees —
// the bounded-window semantics that turn a fast client into socket
// backpressure instead of unbounded server goroutines.
func TestPipelineWindowBackpressure(t *testing.T) {
	disp := &gateDispatcher{entered: make(chan struct{}, 16), release: make(chan struct{})}
	server := NewPoolServer(disp)
	server.PipelineDepth = 2
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 802, modulation.BPSK, 2)
	const total = 5
	var calls []*DecodeCall
	var callsMu sync.Mutex
	// Submits run in goroutines: once the window fills, the server stops
	// reading and the synchronous pipe blocks further writes.
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, 0)
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			callsMu.Lock()
			calls = append(calls, dc)
			callsMu.Unlock()
		}()
	}
	// Exactly the window's worth of requests enters service.
	for i := 0; i < 2; i++ {
		select {
		case <-disp.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never entered service", i)
		}
	}
	select {
	case <-disp.entered:
		t.Fatal("third request entered service with a full window of 2")
	case <-time.After(100 * time.Millisecond):
	}
	// Releasing the gate drains the window; everything completes.
	close(disp.release)
	wg.Wait()
	callsMu.Lock()
	pending := calls
	callsMu.Unlock()
	if len(pending) != total {
		t.Fatalf("only %d/%d submits completed", len(pending), total)
	}
	for i, dc := range pending {
		if _, err := dc.Await(); err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
	}
}

// TestCloseDrainsInFlightTagged checks Close fails every in-flight call
// immediately with the ErrClientClosed tag instead of leaving Await hanging
// on a response that will never come.
func TestCloseDrainsInFlightTagged(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	// Swallow request frames so submits complete; never answer.
	go func() {
		for {
			if _, _, err := readFrame(srvConn); err != nil {
				return
			}
		}
	}()
	in := testInstance(t, 803, modulation.BPSK, 2)
	var calls []*DecodeCall
	for i := 0; i < 3; i++ {
		dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, dc)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	for i, dc := range calls {
		_, err := dc.Await()
		if err == nil {
			t.Fatalf("call %d succeeded after Close", i)
		}
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("call %d drained with untagged error %v", i, err)
		}
	}
	// New work is refused with the same tag.
	if _, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("closed client accepted a submit (err %v)", err)
	}
}

// TestResponseIDMismatchTypedError makes the peer answer an ID the client
// never issued and checks the in-flight call fails with the typed
// *ResponseIDError naming the frame type and bogus ID.
func TestResponseIDMismatchTypedError(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	defer client.Close()
	in := testInstance(t, 804, modulation.BPSK, 2)
	ready := make(chan struct{})
	go func() {
		if _, _, err := readFrame(srvConn); err != nil {
			return
		}
		close(ready)
	}()
	dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	// Answer an ID that was never issued (the client allocates from 1).
	if err := writeFrame(srvConn, msgDecodeResponse, encodeResponse(&DecodeResponse{ID: 999, Bits: []byte{1}})); err != nil {
		t.Fatal(err)
	}
	_, err = dc.Await()
	if err == nil {
		t.Fatal("in-flight call survived an unmatched response ID")
	}
	var ide *ResponseIDError
	if !errors.As(err, &ide) {
		t.Fatalf("teardown error %v is not a *ResponseIDError", err)
	}
	if ide.ID != 999 || ide.MsgType != msgDecodeResponse {
		t.Fatalf("ID error names (type %d, id %d), want (type %d, id 999)", ide.MsgType, ide.ID, msgDecodeResponse)
	}
}

// TestResponseClassMismatchTypedError makes the peer answer an in-flight
// solve's ID with a frame of another class (a register response): with one
// pending table the ID matches, but the frame cannot be that request's
// answer, so it is the same *ResponseIDError teardown as an unknown ID.
func TestResponseClassMismatchTypedError(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	defer client.Close()
	in := testInstance(t, 806, modulation.BPSK, 2)
	ready := make(chan struct{})
	go func() {
		if _, _, err := readFrame(srvConn); err != nil {
			return
		}
		close(ready)
	}()
	dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	// The client allocates IDs from 1, so 1 is the in-flight solve.
	if err := writeFrame(srvConn, msgRegisterResponse, encodeRegisterResponse(&RegisterChannelResponse{ID: 1, Handle: 9})); err != nil {
		t.Fatal(err)
	}
	_, err = dc.Await()
	var ide *ResponseIDError
	if !errors.As(err, &ide) {
		t.Fatalf("teardown error %v is not a *ResponseIDError", err)
	}
	if ide.ID != 1 || ide.MsgType != msgRegisterResponse {
		t.Fatalf("ID error names (type %d, id %d), want (type %d, id 1)", ide.MsgType, ide.ID, msgRegisterResponse)
	}
}

// TestBlockingCallsStillLockstep checks the v2–v7 blocking API is untouched
// by pipelining: a client that only uses Decode observes strict
// request/response lockstep against a protocol-v7 style peer that reads one
// frame and answers it inline.
func TestBlockingCallsStillLockstep(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	defer client.Close()
	go func() {
		for {
			msgType, payload, err := readFrame(srvConn)
			if err != nil {
				return
			}
			if msgType != msgDecodeRequest {
				continue
			}
			req, err := decodeRequest(payload)
			if err != nil {
				return
			}
			// Answer inline before reading the next frame — the old
			// one-request-per-turn server behaviour.
			if err := writeFrame(srvConn, msgDecodeResponse, encodeResponse(&DecodeResponse{
				ID: req.ID, Bits: []byte{1, 0}, Backend: "lockstep"})); err != nil {
				return
			}
		}
	}()
	in := testInstance(t, 805, modulation.BPSK, 2)
	for i := 0; i < 5; i++ {
		resp, err := client.Decode(in.Mod, in.H, in.Y)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if resp.Backend != "lockstep" {
			t.Fatalf("decode %d answered by %q", i, resp.Backend)
		}
	}
}
