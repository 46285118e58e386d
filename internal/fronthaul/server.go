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
	"sync/atomic"
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
//
// The server dispatches on the goroutine that reads the connection. A
// Dispatch that must wait calls the problem's Handoff first, outside its
// locks (backend.Problem.Handoff), so reading goes on elsewhere; one that
// blocks without calling it stalls its connection until it returns.
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

	// Telemetry, when non-nil, receives the server-side wall time of every
	// request (the wire histogram). Set before Serve; share the same recorder
	// with the scheduler and planner so `quamax -top` sees one coherent plane.
	Telemetry *telemetry.Recorder

	// PipelineDepth bounds the in-flight window per connection: the request
	// slots it owns, so how many requests may be in service (dispatched but
	// unanswered) at once. With every slot busy the connection stops reading
	// frames, so backpressure lands on the socket instead of growing server
	// state — a client pipelining faster than the pool drains simply sees its
	// writes stall. 0 = DefaultPipelineDepth. Set before Serve.
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
// gets up to PipelineDepth request slots, served by goroutines that take
// turns at reading, so pipelined subcarriers overlap (the §5.5
// parallelization opportunity).
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
	vp *vpPrograms // made by the reader on the window's first precode
}

// vpPrograms are a registered window's VP programs, one per perturbation
// depth, each compiled once, on first use.
type vpPrograms [precoding.MaxPerturbBits]struct {
	once  sync.Once
	built atomic.Bool // set once prog and err are
	prog  *precoding.Program
	err   error
}

// program returns the VP program at depth bits of the channel (mod, h): the
// registered window's, compiled on first use, or for an inline channel (or
// a depth Compile refuses) one compiled for this request alone.
func (ch registeredChannel) program(mod modulation.Modulation, h *linalg.Mat, bits int, handoff func()) (*precoding.Program, error) {
	if ch.vp == nil || bits < 1 || bits > len(ch.vp) {
		return precoding.Compile(mod, h, bits)
	}
	e := &ch.vp[bits-1]
	if !e.built.Load() {
		handoff() // an O(Nu³) inversion, or a wait on the goroutine running it
		e.once.Do(func() { e.prog, e.err = precoding.Compile(mod, h, bits); e.built.Store(true) })
	}
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
// pipeline depth of them, each made on first need: the request with its
// vector and inline H, its channel, the problem dispatched with a precode's
// target, the answer storage the problem lends (backend.Problem.Answer) and
// the response frame, all reused. The reader decodes a frame into an idle
// slot and processes it; the writer hands the slot back on idle once its
// frame is buffered. So a slot is reused only after its Dispatch returned on
// a live connection, and its answer was framed before that: one that
// returned on cancellation may leave its job queued below, still reading the
// problem, but the context is cancelled only once reading has ended.
type slot struct {
	req    Request
	h      linalg.Mat // an inline H's storage
	ch     registeredChannel
	p      backend.Problem
	target []complex128 // a precode's target, p.Y's storage
	answer backend.Result
	llr8   []int8
	frame  []byte
	rd     *readRole // the role, while its holder processes the request
	// handoff, bound once, passes rd on and clears it; a second call is a no-op.
	handoff func()
}

// writeLoop is the single goroutine that touches a connection's write side.
// It buffers the frames of the slots it is handed, returning each slot to
// idle once its frame is buffered, and flushes whenever the queue runs empty
// — never on a timer — so responses that finish together share a segment
// and a lone response leaves at once. A failed write means no answer can be
// delivered any more: it closes the connection, which ends reading (so no
// new work is admitted and cancel discards what is queued), and discards the
// rest of the queue. It returns when out is closed.
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

// conn is what the goroutines serving one connection share. Reading is a
// role one of them holds at a time (leader/follower): the holder admits what
// it reads itself, so whatever admission answers is queued to writeLoop
// with no goroutine hand-off, and a request that must wait passes the role
// on first (backend.Problem.Handoff).
type conn struct {
	s      *Server
	ctx    context.Context
	cancel context.CancelFunc
	depth  int
	out    chan *slot     // frames for writeLoop
	idle   chan *slot     // slots writeLoop is through with
	role   chan *readRole // passes the role on; closed when reading ends
	wg     sync.WaitGroup
}

// readRole is the reading role: the connection's frame stream and handle
// table, and what it has made. It passes between goroutines on conn.role.
type readRole struct {
	fr         *frameReader
	channels   map[uint64]registeredChannel
	nextHandle uint64
	slots      int // made so far, at most depth
	goroutines int // serving the connection, at most depth+1
}

// handleConn processes one AP connection. The connection's lifetime bounds a
// context so that queued work from a disconnected AP is discarded instead of
// burning pool time. Registered channels are connection-scoped: handles die
// with the connection, exactly like a coherence window dies with its AP
// association.
//
// The connection is fully pipelined and multiplexed: at most PipelineDepth
// requests are in service at once — with every slot busy reading stalls,
// pushing backpressure onto the socket — its goroutines, this one among
// them, take turns at reading, and one writer goroutine serializes the
// out-of-order responses back onto the wire.
func (s *Server) handleConn(nc net.Conn) {
	defer nc.Close()
	depth := DefaultPipelineDepth
	if s.PipelineDepth > 0 {
		depth = s.PipelineDepth
	}
	// A slot is in at most one of out and idle, once, and there are at most
	// depth slots, so no send on them blocks.
	c := &conn{s: s, depth: depth, out: make(chan *slot, depth), idle: make(chan *slot, depth), role: make(chan *readRole)}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	defer c.cancel()
	writerDone := make(chan struct{})
	go func() { s.writeLoop(nc, c.out, c.idle); close(writerDone) }()

	c.wg.Add(1)
	c.serve(&readRole{fr: newFrameReader(nc), channels: make(map[uint64]registeredChannel), goroutines: 1})
	// Reading has ended, which cancelled queued dispatches; once every
	// goroutine has queued its last frame, the writer drains and exits.
	c.wg.Wait()
	close(c.out)
	<-writerDone
}

// serve is one of the connection's goroutines: it leads while it holds the
// role rd (nil: not yet) and waits for it again, until reading ends.
func (c *conn) serve(rd *readRole) {
	defer c.wg.Done()
	for ok := true; ok; rd, ok = <-c.role {
		if rd != nil && !c.lead(rd) {
			c.cancel()
			close(c.role)
			return
		}
	}
}

// pass hands the reading role to a waiting goroutine, or a new one while the
// connection has at most depth: one reads, and sees a dropped connection,
// while depth requests are in service.
func (c *conn) pass(rd *readRole) {
	select {
	case c.role <- rd:
	default:
		if rd.goroutines <= c.depth {
			rd.goroutines++
			c.wg.Add(1)
			go c.serve(nil)
		}
		c.role <- rd
	}
}

// acquire returns an idle slot, first making one while none is idle and the
// connection owns fewer than depth.
func (c *conn) acquire(rd *readRole) *slot {
	if len(c.idle) == 0 && rd.slots < c.depth {
		rd.slots++
		sl := new(slot)
		sl.handoff = func() {
			if rd := sl.rd; rd != nil {
				sl.rd = nil
				c.pass(rd)
			}
		}
		return sl
	}
	return <-c.idle
}

// lead reads frames until a request passes the role on (true), or the
// connection closes or sends a frame it cannot parse (false).
func (c *conn) lead(rd *readRole) bool {
	for {
		msgType, payload, err := rd.fr.next()
		if err != nil {
			return false // connection closed or corrupt framing
		}
		// Every frame is answered from a slot: a solve request runs in it,
		// and the reader frames its own answers in it.
		sl := c.acquire(rd)
		passed := false
		switch msgType {
		case msgDecodeRequest:
			if err = sl.req.decode(payload, &sl.h); err != nil {
				break
			}
			if sl.resolveChannel(rd.channels) {
				sl.rd = rd
				c.s.process(c.ctx, sl)
				passed = sl.rd == nil // read before the frame hands the slot on
			}

		case msgRegisterChannel:
			var id uint64
			var w *core.Window
			if id, w, err = registeredWindow(payload); err != nil {
				break
			}
			// Registration mints the window and nothing more (its sphere
			// program, its VP programs and the pool's compiled channel are
			// built on first use), so answer inline. Handles are issued
			// sequentially, so at capacity the oldest live one is exactly
			// MaxChannelsPerConn behind the newest (below capacity that key
			// does not exist and the delete is a no-op).
			rd.nextHandle++
			rd.channels[rd.nextHandle] = registeredChannel{w: w}
			delete(rd.channels, rd.nextHandle-MaxChannelsPerConn)
			sl.frame = frameRegisterResponse(sl.frame, &RegisterChannelResponse{ID: id, Handle: rd.nextHandle})

		case msgStatsRequest:
			var req *StatsRequest
			if req, err = decodeStatsRequest(payload); err != nil {
				break
			}
			// Stats are a pure snapshot (no pool dispatch), so answer inline
			// like channel registration.
			sl.frame = c.s.statsFrame(req.ID)

		default:
			// A peer of another protocol generation: tell it so and hang up,
			// or it would wait forever for an answer to a frame we dropped.
			err = fmt.Errorf("unknown frame type %d", msgType)
		}
		if err != nil {
			if c.s.badRequest(sl, payload, err) {
				c.out <- sl
			}
			return false
		}
		c.out <- sl
		if passed {
			return true
		}
	}
}

// registeredWindow parses a registration and mints its window, which holds
// H's header itself: H's data and the window are all a registration
// allocates. It returns the request's ID with the window.
func registeredWindow(payload []byte) (uint64, *core.Window, error) {
	var h linalg.Mat
	req, err := decodeRegisterChannel(payload, &h)
	if err != nil {
		return 0, nil, err
	}
	return req.ID, core.NewWindow(req.Mod, req.H), nil
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
// request's own bound, else softout.DefaultClamp. The resolved value scales
// both the backend clamping and the response quantization, so the two
// always agree.
func softClamp(reqClamp float64) float64 {
	if reqClamp > 0 {
		return reqClamp
	}
	return softout.DefaultClamp
}

// process turns the slot's request into the pool's problem, routes it
// through the dispatcher and frames the answer into the slot's response
// frame, straight from the dispatcher's result. Precoding is the same problem
// with a different (H, y): the compiled VP program substitutes its equivalent
// uplink channel and target. It runs on the reading goroutine, so whatever
// must wait — a queued or fallback solve, a window's first VP program at a
// depth — calls the slot's handoff first and cannot head-of-line-block
// pipelined frames. The problem lends the slot's answer storage, which the
// answer lands in on every route (a queued one copied over once its job is
// done) and is framed from before the slot can be reused.
func (s *Server) process(ctx context.Context, sl *slot) {
	req, ch, p := &sl.req, sl.ch, &sl.p
	switch {
	case req.Precode:
		prog, err := ch.program(req.Mod, req.H, cmp.Or(req.PerturbBits, precoding.DefaultPerturbBits), sl.handoff)
		if err != nil {
			sl.refuse(err.Error())
			return
		}
		prog.ProblemInto(p, req.Vec, sl.target)
		sl.target = p.Y
		if ch.w == nil {
			p.Window = nil // an inline channel is seen once on both links
		}
	default:
		*p = backend.Problem{Mod: req.Mod, H: req.H, Y: req.Vec, Window: ch.w}
		if req.Soft {
			p.Soft, p.NoiseVar, p.LLRClamp = true, req.NoiseVar, softClamp(req.LLRClamp)
		}
	}
	p.TargetBER = req.TargetBER
	p.Answer, p.Handoff = &sl.answer, sl.handoff

	var start time.Time
	if s.Telemetry != nil {
		start = time.Now()
	}
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
