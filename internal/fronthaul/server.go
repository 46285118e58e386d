package fronthaul

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
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
	disp Dispatcher

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

	// PipelineDepth bounds the in-flight window per connection: the request
	// slots it owns, so how many requests may be in service (dispatched but
	// unanswered) at once. With every slot busy the connection's read loop
	// stops pulling frames, so backpressure lands on the socket instead of
	// growing server state — a client pipelining faster than the pool drains
	// simply sees its writes stall. 0 = DefaultPipelineDepth. Set before Serve.
	PipelineDepth int

	// Stats supplies the sample set a stats poll is answered with, in
	// canonical order (metrics.Collect). Whoever assembles the stack sets it
	// — the same function feeds telemetry.Mux — from the planes it built:
	// pool or router, recorder, health and burn trackers, planner. Nil answers
	// an empty set. Set before Serve.
	Stats func() []metrics.Sample
}

// NewPoolServer serves decode requests through an externally owned
// dispatcher (typically a sched.Scheduler, or a router over several). The
// caller keeps responsibility for draining it.
func NewPoolServer(d Dispatcher) *Server {
	return &Server{disp: d}
}

// DefaultPipelineDepth is the per-connection in-flight window when the
// server does not configure one: deep enough to keep a multi-worker shard
// busy from one AP, small enough that a misbehaving client cannot hold
// thousands of request slots.
const DefaultPipelineDepth = 64

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections until the listener is closed. Each connection
// gets a read loop and up to PipelineDepth request slots, so pipelined
// subcarriers overlap (the §5.5 parallelization opportunity).
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

// registeredChannel is one coherence window on a connection: the window an
// AP registered with a register-channel frame, minted there — its key, which
// the pool scheduler groups same-window symbols by, and its sphere program —
// plus, once a precode asks for them, its VP programs. An inline request's
// channel has neither: it is seen once.
type registeredChannel struct {
	w  *core.Window
	vp *vpPrograms // made by the read loop on the window's first precode
}

// vpPrograms are a registered window's VP programs, one per perturbation
// depth, each compiled once, on first use, on the goroutine of the slot that
// needs it.
type vpPrograms [precoding.MaxPerturbBits]struct {
	once sync.Once
	prog *precoding.Program
	err  error
}

// program returns the VP program at depth bits of the channel (mod, h): the
// registered window's, compiled on first use, or for an inline channel (or
// a depth Compile refuses) one compiled for this request alone.
func (ch registeredChannel) program(mod modulation.Modulation, h *linalg.Mat, bits int) (*precoding.Program, error) {
	if ch.vp == nil || bits < 1 || bits > len(ch.vp) {
		return precoding.Compile(mod, h, bits)
	}
	e := &ch.vp[bits-1]
	e.once.Do(func() { e.prog, e.err = precoding.Compile(mod, h, bits) })
	return e.prog, e.err
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

// slot is one request in service on a connection, which owns at most its
// pipeline depth of them, each made on first need with a goroutine to run
// it: the request with its vector and inline H, its channel, the problem
// dispatched with a precode's target, the answer storage the problem lends
// (backend.Problem.Answer) and the response frame, all reused. The read loop
// decodes into an idle slot and hands it to a goroutine on work; that
// goroutine dispatches and frames the answer; the writer hands the slot back
// on idle once the frame is buffered. So a slot is reused only after its
// Dispatch returned on a live connection, and its answer was framed before
// that: one that returned on cancellation may leave its job queued below,
// still reading the problem, but the context is cancelled only once the read
// loop is gone.
type slot struct {
	req    Request
	h      linalg.Mat // an inline H's storage
	ch     registeredChannel
	p      backend.Problem
	target []complex128 // a precode's target, p.Y's storage
	answer backend.Result
	llr8   []int8
	frame  []byte
}

// writeLoop is the single goroutine that touches a connection's write side.
// It buffers the frames of the slots it is handed, returning each slot to
// idle once its frame is buffered, and flushes whenever the queue runs empty
// — never on a timer — so responses that finish together share a segment
// and a lone response leaves at once. A failed write means no answer can be
// delivered any more: it closes the connection, which ends the read loop (so
// no new work is admitted and cancel discards what is queued), and discards
// the rest of the queue. It returns when out is closed.
func (s *Server) writeLoop(conn net.Conn, out <-chan *slot, idle chan<- *slot) {
	w := bufio.NewWriterSize(conn, writeBuffer)
	dead := false
	for sl := range out {
		if !dead {
			err := sendFrame(w, sl.frame)
			if err == nil && len(out) == 0 {
				err = w.Flush()
			}
			if err != nil {
				s.logf("fronthaul: write response: %v", err)
				conn.Close()
				dead = true
			}
		}
		idle <- sl
	}
}

// handleConn processes one AP connection. The connection's lifetime bounds a
// context so that queued work from a disconnected AP is discarded instead of
// burning pool time. Registered channels are connection-scoped: handles die
// with the connection, exactly like a coherence window dies with its AP
// association.
//
// The connection is fully pipelined and multiplexed: the read loop pulls
// frames and decodes solve requests into idle slots, at most PipelineDepth
// of them — with every slot busy the read loop stalls, pushing backpressure
// onto the socket — and one writer goroutine serializes the out-of-order
// responses back onto the wire.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	depth := DefaultPipelineDepth
	if s.PipelineDepth > 0 {
		depth = s.PipelineDepth
	}

	// Every frame leaves from a slot, enqueued on out; the channel closes only
	// after every slot goroutine is reaped, then the writer drains and exits.
	// A slot is in at most one of out, idle and work, once, and there are at
	// most depth slots, so no send on them blocks.
	out := make(chan *slot, depth)
	idle := make(chan *slot, depth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(conn, out, idle)
	}()
	defer func() { close(out); <-writerDone }()

	var wg sync.WaitGroup
	defer wg.Wait()
	// Deferred after wg.Wait so they run first: a dropped connection cancels
	// queued dispatches and ends the slot goroutines' work, then they are
	// reaped, and only then does the writer shut down.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	work := make(chan *slot, depth)
	defer close(work)
	// acquire returns an idle slot, first making one (and its goroutine)
	// while none is idle and the connection owns fewer than depth.
	made := 0
	acquire := func() *slot {
		if len(idle) == 0 && made < depth {
			made++
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sl := range work {
					s.process(ctx, sl)
					out <- sl
				}
			}()
			idle <- &slot{}
		}
		return <-idle
	}

	channels := make(map[uint64]registeredChannel)
	var nextHandle uint64

	fr := newFrameReader(conn)
	for {
		msgType, payload, err := fr.next()
		if err != nil {
			return // connection closed or corrupt framing
		}
		// Every frame is answered from a slot: a solve request runs in it,
		// and the read loop frames its own answers in it.
		sl := acquire()
		switch msgType {
		case msgDecodeRequest:
			if err = sl.req.decode(payload, &sl.h); err != nil {
				break
			}
			if sl.resolveChannel(channels) {
				work <- sl
				continue
			}

		case msgRegisterChannel:
			var req RegisterChannelRequest
			if req, err = decodeRegisterChannel(payload); err != nil {
				break
			}
			// Registration mints the window and nothing more (its sphere
			// program, its VP programs and the pool's compiled channel are
			// built on first use), so answer inline. Handles are issued
			// sequentially, so at capacity the oldest live one is exactly
			// MaxChannelsPerConn behind the newest (below capacity that key
			// does not exist and the delete is a no-op).
			nextHandle++
			channels[nextHandle] = registeredChannel{w: core.NewWindow(req.Mod, req.H)}
			delete(channels, nextHandle-MaxChannelsPerConn)
			sl.frame = frameRegisterResponse(sl.frame, &RegisterChannelResponse{ID: req.ID, Handle: nextHandle})

		case msgStatsRequest:
			var req *StatsRequest
			if req, err = decodeStatsRequest(payload); err != nil {
				break
			}
			// Stats are a pure snapshot (no pool dispatch), so answer inline
			// like channel registration.
			sl.frame = s.statsFrame(req.ID)

		default:
			// A peer of another protocol generation: tell it so and hang up,
			// or it would wait forever for an answer to a frame we dropped.
			err = fmt.Errorf("unknown frame type %d", msgType)
		}
		if err != nil {
			if s.badRequest(sl, payload, err) {
				out <- sl
			}
			return
		}
		out <- sl
	}
}

// resolveChannel resolves the channel the slot's solve request runs against,
// its inline H or the registered window its handle names (whose Mod and H it
// writes into the request), and reports whether it did. A stale handle or a
// wrong-length vector is the request's own error: the refusal is framed into
// the slot, its text written straight into the frame, and the connection
// kept.
func (sl *slot) resolveChannel(channels map[uint64]registeredChannel) bool {
	req := &sl.req
	if req.H != nil {
		sl.ch = registeredChannel{}
		return true
	}
	ch, ok := channels[req.Handle]
	switch {
	case !ok:
		sl.frame = frameRefusal(sl.frame, req.ID, func(b []byte) []byte {
			return strconv.AppendUint(append(b, "unknown channel handle "...), req.Handle, 10)
		})
	case len(req.Vec) != ch.w.Channel().Rows:
		sl.frame = frameRefusal(sl.frame, req.ID, func(b []byte) []byte {
			return fmt.Appendf(b, "vector has %d entries, channel has %d rows", len(req.Vec), ch.w.Channel().Rows)
		})
	default:
		if req.Precode && ch.vp == nil {
			ch.vp = new(vpPrograms)
			channels[req.Handle] = ch
		}
		sl.ch, req.Mod, req.H = ch, ch.w.Mod(), ch.w.Channel()
		return true
	}
	return false
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
// salvageable (first 8 bytes), frames an error response in sl, so a protocol-
// mismatched client fails fast instead of blocking forever on a swallowed
// request; it reports whether it did. The caller closes the connection
// afterwards.
func (s *Server) badRequest(sl *slot, payload []byte, err error) bool {
	s.logf("fronthaul: bad request: %v", err)
	if len(payload) < 8 {
		return false
	}
	sl.frame = frameResponse(sl.frame, &DecodeResponse{
		ID:  binary.LittleEndian.Uint64(payload),
		Err: fmt.Sprintf("bad request (server speaks protocol version %d): %v", ProtocolVersion, err),
	})
	return true
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

// process turns the slot's request into the pool's problem, routes it
// through the dispatcher and frames the answer into the slot's response
// frame, straight from the dispatcher's result. Precoding is the same problem
// with a different (H, y): the compiled VP program substitutes its equivalent
// uplink channel and target. Program resolution (O(Nu³) channel inversion on
// a window's first precode at a depth) runs here, on the slot's goroutine,
// so it cannot head-of-line-block pipelined frames. The problem lends the
// slot's answer storage, which the answer lands in on every route (a queued
// one copied over once its job is done) and is framed from before the slot
// can be reused.
func (s *Server) process(ctx context.Context, sl *slot) {
	req, ch, p := &sl.req, sl.ch, &sl.p
	switch {
	case req.Precode:
		prog, err := ch.program(req.Mod, req.H, cmp.Or(req.PerturbBits, s.PrecodeBits, precoding.DefaultPerturbBits))
		if err != nil {
			sl.refuse(err.Error())
			return
		}
		prog.ProblemInto(p, req.Vec, sl.target)
		sl.target = p.Y
		if ch.w == nil {
			p.Window = nil // an inline channel is seen once on both links
		}
	case req.Soft && s.DisableSoft:
		sl.refuse("soft decode disabled by server configuration")
		return
	default:
		*p = backend.Problem{Mod: req.Mod, H: req.H, Y: req.Vec, Window: ch.w}
		if req.Soft {
			p.Soft, p.NoiseVar, p.LLRClamp = true, req.NoiseVar, s.softClamp(req.LLRClamp)
		}
	}
	p.TargetBER = req.TargetBER
	p.Answer = &sl.answer

	start := time.Now()
	res, err := s.disp.Dispatch(ctx, p, time.Duration(req.DeadlineMicros*float64(time.Microsecond)))
	if s.Telemetry != nil {
		// The only feeder of the telemetry wire histogram: the server-side
		// wall time of one request.
		s.Telemetry.ObserveWire(float64(time.Since(start)) / float64(time.Microsecond))
	}
	if err != nil {
		sl.refuse(err.Error())
		return
	}
	resp := DecodeResponse{ID: req.ID, Bits: res.Bits, Energy: res.Energy,
		ComputeMicros: res.ComputeMicros, Backend: res.Backend, Batched: res.Batched}
	if p.Soft {
		// Quantize at the problem's clamp, the one the backend clamped at.
		sl.llr8 = softout.AppendQuantized(sl.llr8[:0], res.LLRs, p.LLRClamp)
		resp.Clamp, resp.LLR8, resp.Saturated = p.LLRClamp, sl.llr8, res.LLRSaturated
	}
	sl.frame = frameResponse(sl.frame, &resp)
}

// refuse frames an error answer to the slot's request.
func (sl *slot) refuse(msg string) {
	sl.frame = frameRefusal(sl.frame, sl.req.ID, func(b []byte) []byte { return append(b, msg...) })
}
