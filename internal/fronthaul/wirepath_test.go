package fronthaul

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/rng"
)

// countingConn counts the Write calls (≈ syscalls and, with TCP_NODELAY,
// segments) and bytes one connection end issues. net.Buffers would reach it
// as one Write per buffer, like any net.Conn that is not a *net.TCPConn.
type countingConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// transports runs a test over net.Pipe — synchronous and unbuffered, so a
// missing flush is a hang, not a delay — and over loopback TCP. connect
// returns the two ends of one established connection.
func transports(t *testing.T, test func(t *testing.T, connect func() (cli, srv net.Conn))) {
	t.Run("pipe", func(t *testing.T) {
		test(t, func() (net.Conn, net.Conn) { return net.Pipe() })
	})
	t.Run("tcp", func(t *testing.T) {
		test(t, func() (net.Conn, net.Conn) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cli, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return cli, srv
		})
	})
}

// within fails the test when fn has not returned in five seconds: the
// symptom of a response sitting in a buffer nobody flushes.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still waiting after 5 s", what)
	}
}

// echoDispatcher answers at once with the request's first sample as its bit,
// so a response can be matched to the request that caused it. It answers on
// Dispatch's own goroutine, so, like the certificate, it lands its answer in
// the storage the problem lends (backend.Problem.Answer).
var echoDispatcher = dispatcherFunc(func(_ context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
	res := p.Answer
	if res == nil {
		res = new(backend.Result)
	}
	*res = backend.Result{Bits: append(res.Bits[:0], byte(real(p.Y[0]))), Backend: "echo", Batched: 1}
	return res, nil
})

// A lone request is answered without waiting for a second one to push it out
// of the server's write buffer, and costs each end exactly one Write.
func TestLoneRequestAnsweredAtOnce(t *testing.T) {
	transports(t, func(t *testing.T, connect func() (net.Conn, net.Conn)) {
		cliConn, srvConn := connect()
		cli, srv := &countingConn{Conn: cliConn}, &countingConn{Conn: srvConn}
		done := make(chan struct{})
		go func() { NewPoolServer(echoDispatcher).handleConn(srv); close(done) }()
		client := NewClient(cli)
		h := linalg.Identity(2)
		within(t, "lone decode", func() {
			resp, err := client.Decode(modulation.BPSK, h, []complex128{1, -1})
			if err != nil || !bytes.Equal(resp.Bits, []byte{1}) {
				t.Errorf("lone decode: %+v, %v", resp, err)
			}
		})
		within(t, "lone registration", func() {
			if _, err := client.RegisterChannel(modulation.BPSK, h); err != nil {
				t.Error(err)
			}
		})
		if got := cli.writes.Load(); got != 2 {
			t.Errorf("client issued %d Writes for 2 requests, want one per request", got)
		}
		if got := srv.writes.Load(); got != 2 {
			t.Errorf("server issued %d Writes for 2 lone responses, want one per response", got)
		}
		client.Close()
		within(t, "server unwind", func() { <-done })
	})
}

// 64 pipelined requests — a full in-flight window — released in reverse order
// all come back to their own callers, one client Write per request and at
// most one server Write per response.
func TestPipelinedWindowOutOfOrder(t *testing.T) {
	transports(t, func(t *testing.T, connect func() (net.Conn, net.Conn)) {
		const n = DefaultPipelineDepth
		var mu sync.Mutex
		gates := make(map[int]chan struct{})
		entered := make(chan int, n)
		disp := dispatcherFunc(func(_ context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
			handOff(p)
			id := int(real(p.Y[0]))
			gate := make(chan struct{})
			mu.Lock()
			gates[id] = gate
			mu.Unlock()
			entered <- id
			<-gate
			return &backend.Result{Bits: []byte{byte(id)}, Backend: "gate", Batched: 1}, nil
		})
		cliConn, srvConn := connect()
		cli, srv := &countingConn{Conn: cliConn}, &countingConn{Conn: srvConn}
		go NewPoolServer(disp).handleConn(srv)
		client := NewClient(cli)
		defer client.Close()

		h := linalg.Identity(2)
		calls := make([]*DecodeCall, n)
		for i := range calls {
			dc, err := client.SubmitDecodeQoS(modulation.BPSK, h, []complex128{complex(float64(i), 0), 1}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			calls[i] = dc
		}
		within(t, "all 64 in service", func() {
			for i := 0; i < n; i++ {
				<-entered
			}
		})
		for id := n - 1; id >= 0; id-- {
			close(gates[id])
		}
		within(t, "64 responses", func() {
			for i, dc := range calls {
				resp, err := dc.Await()
				if err != nil || !bytes.Equal(resp.Bits, []byte{byte(i)}) {
					t.Errorf("call %d: %+v, %v", i, resp, err)
				}
			}
		})
		if got := cli.writes.Load(); got != n {
			t.Errorf("client issued %d Writes for %d requests, want one per request", got, n)
		}
		if got := srv.writes.Load(); got < 1 || got > n {
			t.Errorf("server issued %d Writes for %d responses, want between 1 and one per response", got, n)
		}
	})
}

// The slot writer's flush rule, driven directly: everything queued when it
// looks leaves in one Write, a frame that finds the queue empty leaves at
// once, and a burst larger than the buffer arrives whole and in order. Every
// slot whose frame it wrote comes back on idle, once.
func TestWriteLoopFlushesOnIdle(t *testing.T) {
	frames := func(n, size int) (queue []*slot, stream []byte) {
		for i := 0; i < n; i++ {
			sl := &slot{frame: sealFrame(append(newFrame(nil, size), bytes.Repeat([]byte{byte(i)}, size)...), msgDecodeResponse)}
			queue, stream = append(queue, sl), append(stream, sl.frame...)
		}
		return queue, stream
	}
	// returned checks that idle holds exactly the queue's slots, in order.
	returned := func(t *testing.T, idle chan *slot, queue []*slot) {
		t.Helper()
		if len(idle) != len(queue) {
			t.Fatalf("%d slots back on idle for %d written frames", len(idle), len(queue))
		}
		for i, want := range queue {
			if sl := <-idle; sl != want {
				t.Fatalf("slot %d came back out of order", i)
			}
		}
	}
	run := func(t *testing.T, queue []*slot) (conn *countingConn, got []byte) {
		cliConn, srvConn := net.Pipe()
		conn = &countingConn{Conn: srvConn}
		out := make(chan *slot, len(queue))
		for _, f := range queue {
			out <- f
		}
		close(out)
		idle := make(chan *slot, len(queue))
		read := make(chan []byte)
		go func() { b, _ := io.ReadAll(cliConn); read <- b }()
		within(t, "writer drain", func() { NewPoolServer(nil).writeLoop(conn, out, idle) })
		srvConn.Close()
		returned(t, idle, queue)
		return conn, <-read
	}
	t.Run("burst shares one write", func(t *testing.T) {
		queue, stream := frames(DefaultPipelineDepth, 100)
		conn, got := run(t, queue)
		if !bytes.Equal(got, stream) {
			t.Fatal("burst corrupted or reordered")
		}
		if n := conn.writes.Load(); n != 1 {
			t.Fatalf("a queued window of %d responses took %d Writes, want 1", len(queue), n)
		}
	})
	t.Run("burst past the buffer", func(t *testing.T) {
		queue, stream := frames(40, 3000) // 120 KB through a 16 KiB buffer
		conn, got := run(t, queue)
		if !bytes.Equal(got, stream) {
			t.Fatal("burst corrupted or reordered")
		}
		if n := conn.writes.Load(); n >= int64(len(queue)) {
			t.Fatalf("%d Writes for %d queued frames: nothing was combined", n, len(queue))
		}
	})
	t.Run("lone frame leaves at once", func(t *testing.T) {
		cliConn, srvConn := net.Pipe()
		defer cliConn.Close()
		out := make(chan *slot, 4)
		idle := make(chan *slot, 4)
		done := make(chan struct{})
		go func() { NewPoolServer(nil).writeLoop(srvConn, out, idle); close(done) }()
		queue, _ := frames(2, 10)
		for _, f := range queue {
			out <- f // the queue is never closed: only idleness can flush it
			within(t, "lone frame", func() {
				if _, payload, err := readFrame(cliConn); err != nil || len(payload) != 10 {
					t.Errorf("lone frame: %d bytes, %v", len(payload), err)
				}
			})
		}
		close(out)
		within(t, "writer exit", func() { <-done })
		returned(t, idle, queue)
	})
}

// When the server cannot write, it closes the connection, and the client
// drains every pending call with the connection-lost error instead of
// leaving them to wait for answers that cannot come.
func TestServerWriteErrorDrainsClientCalls(t *testing.T) {
	release := make(chan struct{})
	disp := dispatcherFunc(func(ctx context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
		handOff(p)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &backend.Result{Bits: []byte{1}, Backend: "late"}, nil
	})
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() { NewPoolServer(disp).handleConn(brokenWriteConn{srvConn}); close(done) }()
	client := NewClient(cliConn)
	defer client.Close()
	h := linalg.Identity(2)
	var calls []*DecodeCall
	for i := 0; i < 3; i++ {
		dc, err := client.SubmitDecodeQoS(modulation.BPSK, h, []complex128{1, 1}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, dc)
	}
	close(release)
	within(t, "pending calls drained", func() {
		for i, dc := range calls {
			_, err := dc.Await()
			if err == nil || !strings.Contains(err.Error(), "connection lost") ||
				!(errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe)) {
				t.Errorf("call %d: %v, want the connection-lost error", i, err)
			}
		}
	})
	within(t, "server unwind", func() { <-done })
	if _, err := client.SubmitDecodeQoS(modulation.BPSK, h, []complex128{1, 1}, 0, 0); err == nil {
		t.Fatal("submit on a dead connection succeeded")
	}
}

// A client Write error is the caller's error, and the slot it registered is
// released, not leaked.
func TestClientWriteErrorReleasesSlot(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	client := NewClient(brokenWriteConn{cliConn})
	defer client.Close()
	if _, err := client.SubmitDecodeQoS(modulation.BPSK, linalg.Identity(2), []complex128{1, 1}, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "broken pipe") {
		t.Fatalf("submit over a broken write side: %v", err)
	}
	client.mu.Lock()
	defer client.mu.Unlock()
	if len(client.pending) != 0 {
		t.Fatalf("%d pending slots after a failed submit", len(client.pending))
	}
}

// halfWriteConn passes its first whole Writes through, then writes half of
// the next frame and fails, as a connection reset mid-frame does.
type halfWriteConn struct {
	net.Conn
	whole int
}

func (c *halfWriteConn) Write(p []byte) (int, error) {
	if c.whole > 0 {
		c.whole--
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:len(p)/2])
	return n, errors.New("write: connection reset by peer")
}

// A Write that fails after part of a frame may be on the wire leaves the
// stream corrupt, so it fails the whole client: the submit and every later
// one return the terminal error, and every pending call drains with it. A
// frame refused for its size writes nothing and stays the caller's error.
func TestClientPartialWriteFailsClient(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	go func() { // swallow requests, answer nothing
		for {
			if _, _, err := readFrame(srvConn); err != nil {
				return
			}
		}
	}()
	client := NewClient(&halfWriteConn{Conn: cliConn, whole: 2})
	defer client.Close()

	huge := linalg.Identity(1025) // 16.8 MB of samples: past MaxFrameBytes
	if _, err := client.RegisterChannel(modulation.BPSK, huge); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized registration: %v, want the local size refusal", err)
	}
	h, y := linalg.Identity(2), []complex128{1, 1}
	var calls []*DecodeCall
	for i := 0; i < 2; i++ {
		dc, err := client.SubmitDecodeQoS(modulation.BPSK, h, y, 0, 0)
		if err != nil {
			t.Fatalf("submit %d after a refused frame: %v", i, err)
		}
		calls = append(calls, dc)
	}
	_, terminal := client.SubmitDecodeQoS(modulation.BPSK, h, y, 0, 0)
	if terminal == nil || !strings.Contains(terminal.Error(), "connection reset") {
		t.Fatalf("submit over a half-written frame: %v", terminal)
	}
	if _, err := client.SubmitDecodeQoS(modulation.BPSK, h, y, 0, 0); err != terminal {
		t.Fatalf("submit after the failed write: %v, want the terminal error %v", err, terminal)
	}
	within(t, "pending calls drained", func() {
		for i, dc := range calls {
			if _, err := dc.Await(); err != terminal {
				t.Errorf("call %d: %v, want the terminal error", i, err)
			}
		}
	})
	client.mu.Lock()
	defer client.mu.Unlock()
	if len(client.pending) != 0 {
		t.Fatalf("%d pending calls after the client failed", len(client.pending))
	}
}

// A slot is reused only after its Dispatch returned on a live connection. A
// gated dispatcher snapshots each problem's samples and channel, waits for
// its release — given out of order, a window at a time, so every slot serves
// many requests — and reads them again: no answer may come from another
// request's problem, and no dispatcher may see its problem change. Then the
// connection drops with a window in service: each Dispatch returns on
// cancellation as sched.Dispatch does, while its job, still queued, reads the
// problem after the server has unwound. Every request carries an inline H,
// read into its slot, from a rotation of channels; a precode request's
// program is compiled from it for that request alone.
func TestSlotReuseNeverMovesADispatchedProblem(t *testing.T) {
	const depth, n = 4, 64
	const channels = 2*depth + 1
	channel := func(i int) *linalg.Mat {
		c := float64(i % channels)
		return &linalg.Mat{Rows: 2, Cols: 2, Data: []complex128{complex(1+c, 0), 1, 0.5, complex(2, c)}}
	}
	vec := func(i int) []complex128 { return []complex128{complex(float64(i), 0), complex(float64(-i), 0)} }
	transports(t, func(t *testing.T, connect func() (net.Conn, net.Conn)) {
		for _, precode := range []bool{false, true} {
			// answers[i] is the energy the dispatcher answers request i with:
			// its problem's first sample, the vector itself or the VP target.
			answers := make([]float64, n)
			for i := range answers {
				answers[i] = float64(i)
				if precode {
					prog, err := precoding.Compile(modulation.QPSK, channel(i), 0)
					if err != nil {
						t.Fatal(err)
					}
					answers[i] = real(prog.Problem(vec(i)).Y[0])
				}
			}
			t.Run(map[bool]string{false: "inline decode", true: "inline precode"}[precode], func(t *testing.T) {
				var changed atomic.Int64
				var held sync.WaitGroup
				entered := make(chan chan struct{}, depth)
				teardown := make(chan struct{})
				disp := dispatcherFunc(func(ctx context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
					handOff(p)
					snapshot := func() []complex128 { return append(slices.Clone(p.Y), p.H.Data...) }
					want := snapshot()
					release := make(chan struct{})
					entered <- release
					select {
					case <-release:
					case <-ctx.Done():
						held.Add(1)
						go func() {
							defer held.Done()
							<-teardown
							if !slices.Equal(snapshot(), want) {
								changed.Add(1)
							}
						}()
						return nil, ctx.Err()
					}
					if !slices.Equal(snapshot(), want) {
						changed.Add(1)
					}
					return &backend.Result{Bits: make([]byte, p.LogicalSpins()), Energy: real(p.Y[0]), Backend: "gate"}, nil
				})
				cliConn, srvConn := connect()
				srv := NewPoolServer(disp)
				srv.PipelineDepth = depth
				done := make(chan struct{})
				go func() { srv.handleConn(srvConn); close(done) }()
				client := NewClient(cliConn)
				submit := func(from, to int) <-chan *DecodeCall {
					calls := make(chan *DecodeCall, to-from)
					go func() {
						defer close(calls)
						for i := from; i < to; i++ {
							dc, err := client.solve(new(call), &Request{Mod: modulation.QPSK, H: channel(i), Vec: vec(i), Precode: precode}, 0, 0)
							if err != nil {
								t.Errorf("submit %d: %v", i, err)
								return
							}
							calls <- dc
						}
					}()
					return calls
				}

				calls := submit(0, n)
				within(t, "live windows", func() {
					for released := 0; released < n; {
						window := make([]chan struct{}, min(depth, n-released))
						for i := range window {
							window[i] = <-entered
						}
						for i := len(window) - 1; i >= 0; i-- {
							close(window[i])
						}
						released += len(window)
					}
				})
				within(t, "live answers", func() {
					i := 0
					for dc := range calls {
						if resp, err := dc.Await(); err != nil || resp.Energy != answers[i] {
							t.Errorf("request %d: %+v, %v", i, resp, err)
						}
						i++
					}
				})

				dropped := submit(n, n+depth)
				within(t, "a window in service", func() {
					for i := 0; i < depth; i++ {
						<-entered
					}
				})
				client.Close()
				within(t, "server unwind", func() { <-done })
				close(teardown)
				held.Wait()
				for dc := range dropped {
					if _, err := dc.Await(); !errors.Is(err, ErrClientClosed) {
						t.Errorf("call on a dropped connection: %v", err)
					}
				}
				if c := changed.Load(); c != 0 {
					t.Fatalf("%d dispatchers saw their problem change", c)
				}
			})
		}
	})
}

// allocDelta reports the bytes the process allocated while fn ran.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Five bytes must not buy 16 MiB: a peer that declares a MaxFrameBytes frame
// and hangs up costs either end its fixed buffers plus one read-ahead chunk.
func TestForgedLengthAllocatesNothingAhead(t *testing.T) {
	forged := sealFrame(newFrame(nil, 0), msgDecodeRequest)
	forged[0], forged[1], forged[2], forged[3] = 0, 0, 0, 1 // 16 MiB, little-endian
	limit := uint64(128 << 10)
	if raceEnabled {
		limit *= 4 // the race detector pads allocations; still 32× under the forged length
	}
	t.Run("server", func(t *testing.T) {
		cliConn, srvConn := net.Pipe()
		got := allocDelta(func() {
			done := make(chan struct{})
			go func() { NewPoolServer(echoDispatcher).handleConn(srvConn); close(done) }()
			if _, err := cliConn.Write(forged); err != nil {
				t.Error(err)
			}
			cliConn.Close()
			within(t, "server unwind", func() { <-done })
		})
		if got >= limit {
			t.Fatalf("server allocated %d bytes for a forged header, want < %d", got, limit)
		}
	})
	t.Run("client", func(t *testing.T) {
		cliConn, srvConn := net.Pipe()
		got := allocDelta(func() {
			client := NewClient(cliConn)
			go readFrame(srvConn) // swallow the request: the pipe is synchronous
			dc, err := client.SubmitDecodeQoS(modulation.BPSK, linalg.Identity(2), []complex128{1, 1}, 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := srvConn.Write(forged); err != nil {
				t.Error(err)
			}
			srvConn.Close()
			within(t, "client teardown", func() {
				if _, err := dc.Await(); err == nil || !strings.Contains(err.Error(), "truncated frame") {
					t.Errorf("pending call on a torn connection: %v, want the truncated-frame error", err)
				}
			})
		})
		if got >= limit {
			t.Fatalf("client allocated %d bytes for a forged header, want < %d", got, limit)
		}
	})
}

// The frames the read-ahead bound is there to let through: a 37 KB
// self-contained 48×48 request, and one past a read-ahead chunk, round-trip
// through the reused buffer with small frames before and after.
func TestLargeFramesRoundTrip(t *testing.T) {
	transports(t, func(t *testing.T, connect func() (net.Conn, net.Conn)) {
		var seen atomic.Int64
		disp := dispatcherFunc(func(_ context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
			seen.Add(int64(len(p.H.Data)))
			// The checksum of what arrived: every sample survived the trip.
			var sum complex128
			for _, v := range p.H.Data {
				sum += v
			}
			return &backend.Result{Bits: []byte{1}, Energy: real(sum), Backend: "sum"}, nil
		})
		cliConn, srvConn := connect()
		go NewPoolServer(disp).handleConn(srvConn)
		client := NewClient(cliConn)
		defer client.Close()
		src := rng.New(7)
		for _, n := range []int{2, 48, 2, 80, 48, 2} { // 80×80 is 102 KB: two read-ahead chunks
			h := channel.Rayleigh{}.Generate(src, n, n)
			y := make([]complex128, n)
			for i := range y {
				y[i] = src.ComplexNorm()
			}
			var want complex128
			for _, v := range h.Data {
				want += v
			}
			within(t, "large frame", func() {
				resp, err := client.Decode(modulation.BPSK, h, y)
				if err != nil || resp.Energy != real(want) {
					t.Errorf("%d×%d frame: %+v, %v (want checksum %v)", n, n, resp, err, real(want))
				}
			})
		}
		if want := int64(2*2*3 + 48*48*2 + 80*80); seen.Load() != want {
			t.Fatalf("dispatcher saw %d channel samples, want %d", seen.Load(), want)
		}
	})
}

// A decoded message owns its memory: overwriting the read buffer it was
// parsed from (as the next frame will) must not change it.
func TestDecodedFramesDoNotAliasTheReadBuffer(t *testing.T) {
	reqs := codecRequests()
	check := func(name string, payload []byte, decode func([]byte) (any, error)) {
		t.Helper()
		scratch := append([]byte(nil), payload...)
		got, err := decode(scratch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range scratch {
			scratch[i] = 0xA5
		}
		want, _ := decode(payload)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s changed when its read buffer was overwritten", name)
		}
	}
	for name, req := range reqs {
		payload, err := encodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		check(name, payload, func(b []byte) (any, error) { return decodeRequest(b) })
	}
	reg, err := encodeRegisterChannel(&RegisterChannelRequest{ID: 1, Mod: modulation.QPSK, H: reqs["hard_inline"].H})
	if err != nil {
		t.Fatal(err)
	}
	check("register", reg, func(b []byte) (any, error) { return decodeRegisterChannel(b, new(linalg.Mat)) })
	check("register response", encodeRegisterResponse(&RegisterChannelResponse{ID: 1, Err: "no room"}),
		func(b []byte) (any, error) { return decodeRegisterResponse(b) })
	check("response", encodeResponse(&DecodeResponse{ID: 2, Err: "e", Bits: []byte{1, 0, 1}, Backend: "qpu0",
		LLR8: []int8{-3, 4, 5}, Clamp: 8}), func(b []byte) (any, error) { return decodeResponse(b) })
	stats, err := encodeStatsResponse(fuzzStatsResponse())
	if err != nil {
		t.Fatal(err)
	}
	check("stats response", stats, func(b []byte) (any, error) { return decodeStatsResponse(b) })
}

// An error text (or backend name) past the u16 count's range is clipped at
// encode: the frame still parses, and the connection and everything else in
// flight on it survive.
func TestOversizedErrClippedNotTruncated(t *testing.T) {
	long := strings.Repeat("x", 70_000)
	back, err := decodeResponse(encodeResponse(&DecodeResponse{ID: 3, Err: long, Backend: long, Bits: []byte{1}}))
	if err != nil {
		t.Fatalf("response with a 70 KB error does not parse: %v", err)
	}
	if back.ID != 3 || back.Err != long[:65535] || back.Backend != long[:65535] || !bytes.Equal(back.Bits, []byte{1}) {
		t.Fatalf("clipped response: id %d, %d-byte err, %d-byte backend", back.ID, len(back.Err), len(back.Backend))
	}
	reg, err := decodeRegisterResponse(encodeRegisterResponse(&RegisterChannelResponse{ID: 4, Err: long, Handle: 9}))
	if err != nil || reg.Err != long[:65535] || reg.Handle != 9 {
		t.Fatalf("register response with a 70 KB error: %+v, %v", reg, err)
	}
	exact := strings.Repeat("y", 65535)
	if back, err := decodeResponse(encodeResponse(&DecodeResponse{ID: 5, Err: exact})); err != nil || back.Err != exact {
		t.Fatalf("a 65,535-byte error must pass whole: %v", err)
	}

	// End to end: the request that fails verbosely gets its (clipped) error,
	// and the one pipelined behind it on the same connection is still served.
	disp := dispatcherFunc(func(_ context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
		if real(p.Y[0]) < 0 {
			return nil, errors.New(long)
		}
		return &backend.Result{Bits: []byte{1}, Backend: "ok"}, nil
	})
	cliConn, srvConn := net.Pipe()
	go NewPoolServer(disp).handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()
	h := linalg.Identity(2)
	within(t, "verbose failure then success", func() {
		if _, err := client.Decode(modulation.BPSK, h, []complex128{-1, 1}); err == nil || !strings.Contains(err.Error(), "xxxx") {
			t.Errorf("verbose failure: %.80v", err)
		}
		if resp, err := client.Decode(modulation.BPSK, h, []complex128{1, 1}); err != nil || resp.Backend != "ok" {
			t.Errorf("connection did not survive an oversized error: %v", err)
		}
	})
}

// One keyed decode, both ends of the connection and the echo dispatcher
// included, allocates one object: the client's call, which is the answer the
// caller gets, with its done signal and the answer's bits inside it. The
// echo dispatcher answers in the storage the server's slot lends it, as the
// certificate does, and the server side allocates nothing. (22 before frames
// were encoded and read in place, 15 before a connection owned its request
// slots, 5 before the answer landed in storage its request already owns.)
func TestKeyedRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cliConn, srvConn := net.Pipe()
	go NewPoolServer(echoDispatcher).handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()
	in := testInstance(t, 77, modulation.QPSK, 8)
	rc, err := client.RegisterChannel(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.DecodeWithChannel(rc, in.Y, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("keyed round trip allocates %.2f objects, want ≤ 1", allocs)
	}
}
