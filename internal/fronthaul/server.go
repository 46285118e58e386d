package fronthaul

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/sched"
	"quamax/internal/softout"
	"quamax/internal/telemetry"
)

// Dispatcher routes one decode problem to a solver. The QPU pool scheduler
// (internal/sched) is the production implementation; tests may substitute
// fakes. deadline ≤ 0 means "no deadline / use the dispatcher default".
type Dispatcher interface {
	Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error)
}

// Server is the data-center side: it accepts fronthaul connections and runs
// each decode or precode request through the QPU pool scheduler, which owns
// the backend workers (simulated QPUs and classical solvers) and the
// deadline-aware hybrid dispatch.
type Server struct {
	disp  Dispatcher
	owned *sched.Scheduler // set when the server built its own pool

	// Logf receives diagnostic messages; nil silences them.
	Logf func(format string, args ...interface{})

	// PrecodeBits is the default perturbation alphabet depth for precode
	// requests that leave theirs zero (0 = precoding.DefaultPerturbBits).
	// Set before Serve.
	PrecodeBits int
	// DisableSoft rejects soft-decode requests with a clean
	// error response (quamax-serve -soft=false) — for deployments whose
	// planner tables were fitted for hard chains only. Set before Serve.
	DisableSoft bool
	// LLRClamp is the default LLR magnitude bound / quantization full scale
	// for soft requests that carry none (0 = softout.DefaultClamp). Set
	// before Serve.
	LLRClamp float64

	// Telemetry, when non-nil, receives the server-side wall time of every
	// request (the wire histogram). Set before Serve; share the same recorder
	// with the scheduler and planner so `quamax -top` sees one coherent plane.
	Telemetry *telemetry.Recorder

	// PipelineDepth bounds the in-flight window per connection: how many
	// requests may be in service (dispatched but unanswered) at once. When
	// the window is full the connection's read loop stops pulling frames, so
	// backpressure lands on the socket instead of growing an unbounded
	// goroutine set — a client pipelining faster than the pool drains simply
	// sees its writes stall. 0 = DefaultPipelineDepth. Set before Serve.
	PipelineDepth int

	// Stats supplies the sample set a stats poll is answered with, in
	// canonical order (metrics.Collect). Whoever assembles the stack sets it
	// — the same function feeds telemetry.Mux — from the planes it built:
	// pool or router, recorder, health and burn trackers, planner. Nil answers
	// an empty set. NewServer sets it to its own pool. Set before Serve.
	Stats func() []metrics.Sample

	// precodePrograms holds the compiled VP programs of the server's
	// downlink windows, shared by all connections, so every symbol vector of
	// a window pays the channel inversion and coupling compile once.
	precodePrograms *precoding.Cache
}

// PrecodeCacheStats snapshots the compiled-VP-program cache counters.
func (s *Server) PrecodeCacheStats() metrics.ChannelCacheStats { return s.precodePrograms.Stats() }

// NewServer wraps a single QuAMax decoder as a one-QPU pool — the paper's
// original single-annealer deployment. seed drives all solver randomness.
// The server owns the pool's worker goroutine; call Close to drain it when
// the server is done serving.
func NewServer(dec *core.Decoder, seed int64) *Server {
	s, err := sched.New(sched.Config{
		Pool: []backend.Backend{backend.AnnealerFromDecoder("qpu0", dec)},
		Seed: seed,
	})
	if err != nil {
		// Unreachable: the pool is never empty here.
		panic(err)
	}
	srv := NewPoolServer(s)
	srv.owned = s
	srv.Stats = func() []metrics.Sample { return metrics.Collect(s.Stats().Samples()) }
	return srv
}

// NewPoolServer serves decode requests through an externally owned
// dispatcher (typically a multi-backend sched.Scheduler). The caller keeps
// responsibility for draining it.
func NewPoolServer(d Dispatcher) *Server {
	return &Server{disp: d, precodePrograms: precoding.NewCache(0)}
}

// Close drains a server-owned pool (no-op for NewPoolServer servers, whose
// scheduler lifetime belongs to the caller).
func (s *Server) Close() error {
	if s.owned != nil {
		return s.owned.Close()
	}
	return nil
}

// DefaultPipelineDepth is the per-connection in-flight window when the
// server does not configure one: deep enough to keep a multi-worker shard
// busy from one AP, small enough that a misbehaving client cannot hold
// thousands of goroutines.
const DefaultPipelineDepth = 64

// pipelineDepth resolves the configured in-flight window.
func (s *Server) pipelineDepth() int {
	if s.PipelineDepth > 0 {
		return s.PipelineDepth
	}
	return DefaultPipelineDepth
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections until the listener is closed. Each connection
// gets a read loop; each request is decoded on its own goroutine so
// pipelined subcarriers overlap (the §5.5 parallelization opportunity).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handleConn(conn)
	}
}

// registeredChannel is one compiled coherence window on a connection: the
// estimated channel an AP registered with a register-channel frame, plus the
// fingerprint the pool scheduler groups same-window symbols by. An inline
// request's channel takes the same shape with a zero key.
type registeredChannel struct {
	mod modulation.Modulation
	h   *linalg.Mat
	key core.ChannelKey
}

// MaxChannelsPerConn bounds live channel registrations on one connection, so
// a client looping RegisterChannel cannot grow server memory without bound.
// Old windows are evicted FIFO — coherence windows are short-lived, so by
// the time an AP has registered this many newer channels the oldest handle
// is stale anyway (a decode against an evicted handle gets a clean error).
const MaxChannelsPerConn = 256

// writeBuffer sizes a connection's response buffer: a full in-flight window
// of hard-decode responses (≈ 100 bytes each at 8×8 QPSK) leaves in one
// Write. Larger responses pass through it unbuffered.
const writeBuffer = 16 << 10

// writeLoop is the single goroutine that touches a connection's write side.
// It buffers the sealed frames it is handed and flushes whenever the queue
// runs empty — never on a timer — so responses that finish together share a
// segment and a lone response leaves at once. A failed write means no answer
// can be delivered any more: it closes the connection, which ends the read
// loop (so no new work is admitted and cancel discards what is queued), and
// discards the rest of the queue. It returns when out is closed.
func (s *Server) writeLoop(conn net.Conn, out <-chan []byte) {
	w := bufio.NewWriterSize(conn, writeBuffer)
	dead := false
	for frame := range out {
		if dead {
			continue
		}
		err := sendFrame(w, frame)
		if err == nil && len(out) == 0 {
			err = w.Flush()
		}
		if err != nil {
			s.logf("fronthaul: write response: %v", err)
			conn.Close()
			dead = true
		}
	}
}

// handleConn processes one AP connection. The connection's lifetime bounds a
// context so that queued work from a disconnected AP is discarded instead of
// burning pool time. Registered channels are connection-scoped: handles die
// with the connection, exactly like a coherence window dies with its AP
// association.
//
// The connection is fully pipelined and multiplexed: the read loop pulls
// frames and hands solve requests to per-request goroutines, a bounded
// in-flight window (pipelineDepth) caps how many are in service at once — a
// full window stalls the read loop, pushing backpressure onto the socket —
// and one writer goroutine serializes the out-of-order responses back onto
// the wire.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	depth := s.pipelineDepth()

	// Request goroutines finish by enqueueing a sealed frame; the channel
	// closes only after every producer is reaped, then the writer drains and
	// exits.
	out := make(chan []byte, depth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(conn, out)
	}()
	defer func() { close(out); <-writerDone }()

	var wg sync.WaitGroup
	defer wg.Wait()
	// Deferred after wg.Wait so it runs first: a dropped connection cancels
	// queued dispatches, then the in-flight goroutines are reaped, and only
	// then does the writer shut down.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The in-flight window: a solve takes a slot before it is spawned, so
	// while depth requests are already in service the read loop stops
	// consuming frames until one frees.
	sem := make(chan struct{}, depth)

	var chanMu sync.Mutex
	channels := make(map[uint64]registeredChannel)
	var nextHandle uint64

	fr := newFrameReader(conn)
	for {
		msgType, payload, err := fr.next()
		if err != nil {
			return // connection closed or corrupt framing
		}
		switch msgType {
		case msgDecodeRequest:
			req, err := decodeRequest(payload)
			if err != nil {
				s.badRequest(out, payload, err)
				return
			}
			chanMu.Lock()
			ch, refusal := channelFor(channels, req)
			chanMu.Unlock()
			if refusal != "" {
				out <- frameResponse(&DecodeResponse{ID: req.ID, Err: refusal})
				continue
			}
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				out <- frameResponse(s.process(ctx, req, ch))
			}()

		case msgRegisterChannel:
			req, err := decodeRegisterChannel(payload)
			if err != nil {
				s.badRequest(out, payload, err)
				return
			}
			// Registration is pure bookkeeping (the pool's compiled-channel
			// cache fills lazily on the first decode), so answer inline.
			// Handles are issued sequentially, so at capacity the oldest live
			// one is exactly MaxChannelsPerConn behind the newest (below
			// capacity that key does not exist and the delete is a no-op).
			rc := registeredChannel{mod: req.Mod, h: req.H, key: core.FingerprintChannel(req.Mod, req.H)}
			chanMu.Lock()
			nextHandle++
			channels[nextHandle] = rc
			delete(channels, nextHandle-MaxChannelsPerConn)
			chanMu.Unlock()
			out <- frameRegisterResponse(&RegisterChannelResponse{ID: req.ID, Handle: nextHandle})

		case msgStatsRequest:
			req, err := decodeStatsRequest(payload)
			if err != nil {
				s.badRequest(out, payload, err)
				return
			}
			// Stats are a pure snapshot (no pool dispatch), so answer inline
			// like channel registration.
			out <- s.statsFrame(req.ID)

		default:
			// A peer of another protocol generation: tell it so and hang up,
			// or it would wait forever for an answer to a frame we dropped.
			s.badRequest(out, payload, fmt.Errorf("unknown frame type %d", msgType))
			return
		}
	}
}

// channelFor resolves the channel a solve request runs against: its inline H,
// or the registered one its handle names. A stale handle or a wrong-length
// vector is the request's own error — the refusal is answered and the
// connection kept.
func channelFor(channels map[uint64]registeredChannel, req *Request) (ch registeredChannel, refusal string) {
	if req.H != nil {
		return registeredChannel{mod: req.Mod, h: req.H}, ""
	}
	ch, ok := channels[req.Handle]
	switch {
	case !ok:
		refusal = fmt.Sprintf("unknown channel handle %d", req.Handle)
	case len(req.Vec) != ch.h.Rows:
		refusal = fmt.Sprintf("vector has %d entries, channel has %d rows", len(req.Vec), ch.h.Rows)
	}
	return ch, refusal
}

// statsFrame answers one stats poll with the assembled sample set.
func (s *Server) statsFrame(id uint64) []byte {
	resp := &StatsResponse{ID: id}
	if s.Stats != nil {
		resp.Samples = s.Stats()
	}
	b, err := frameStatsResponse(resp)
	if err != nil {
		b, _ = frameStatsResponse(&StatsResponse{ID: id, Err: err.Error()})
	}
	return b
}

// badRequest logs a frame the server cannot parse and, when the request ID is
// salvageable (first 8 bytes), answers with an error response so a protocol-
// mismatched client fails fast instead of blocking forever on a swallowed
// request. The caller closes the connection afterwards.
func (s *Server) badRequest(out chan<- []byte, payload []byte, err error) {
	s.logf("fronthaul: bad request: %v", err)
	if len(payload) < 8 {
		return
	}
	out <- frameResponse(&DecodeResponse{
		ID:  binary.LittleEndian.Uint64(payload),
		Err: fmt.Sprintf("bad request (server speaks protocol version %d): %v", ProtocolVersion, err),
	})
}

// softClamp resolves the effective LLR clamp of one soft request: the
// request's own bound, else the server default, else the package default.
// The resolved value scales both the backend clamping and the response
// quantization, so the two always agree.
func (s *Server) softClamp(reqClamp float64) float64 {
	if reqClamp > 0 {
		return reqClamp
	}
	if s.LLRClamp > 0 {
		return s.LLRClamp
	}
	return softout.DefaultClamp
}

// process turns one solve request into the pool's problem, routes it through
// the dispatcher and frames the answer. Precoding is the same problem with a
// different (H, y): the compiled VP program substitutes its equivalent uplink
// channel and target. Program resolution (O(Nu³) channel inversion on a
// cache miss) runs here, on the request goroutine, so it cannot
// head-of-line-block pipelined frames.
func (s *Server) process(ctx context.Context, req *Request, ch registeredChannel) *DecodeResponse {
	var p *backend.Problem
	switch {
	case req.Precode:
		bits := req.PerturbBits
		if bits == 0 {
			bits = s.PrecodeBits
		}
		// A registered channel carries the key minted at registration; an
		// inline one has none, and its H enters the process with this frame.
		prog, err := s.precodePrograms.Get(ch.key, ch.mod, ch.h, bits)
		if err != nil {
			return &DecodeResponse{ID: req.ID, Err: err.Error()}
		}
		p = prog.Problem(req.Vec)
	case req.Soft && s.DisableSoft:
		return &DecodeResponse{ID: req.ID, Err: "soft decode disabled by server configuration"}
	default:
		p = &backend.Problem{Mod: ch.mod, H: ch.h, Y: req.Vec, ChannelKey: ch.key}
		if req.Soft {
			p.Soft, p.NoiseVar, p.LLRClamp = true, req.NoiseVar, s.softClamp(req.LLRClamp)
		}
	}
	p.TargetBER = req.TargetBER

	start := time.Now()
	res, err := s.disp.Dispatch(ctx, p, time.Duration(req.DeadlineMicros*float64(time.Microsecond)))
	if s.Telemetry != nil {
		// The only feeder of the telemetry wire histogram: the server-side
		// wall time of one request.
		s.Telemetry.ObserveWire(float64(time.Since(start)) / float64(time.Microsecond))
	}
	if err != nil {
		return &DecodeResponse{ID: req.ID, Err: err.Error()}
	}
	resp := &DecodeResponse{
		ID:            req.ID,
		Bits:          res.Bits,
		Energy:        res.Energy,
		ComputeMicros: res.ComputeMicros,
		Backend:       res.Backend,
		Batched:       res.Batched,
	}
	if p.Soft {
		// Quantize at the problem's clamp, the one the backend clamped at.
		resp.Clamp = p.LLRClamp
		resp.LLR8 = softout.Quantize(res.LLRs, p.LLRClamp)
		resp.Saturated = res.LLRSaturated
	}
	return resp
}
