package fronthaul

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/softout"
)

// ErrClientClosed tags deliberate connection teardown: Close drains every
// in-flight request with it (wrapped or verbatim), so callers blocked in
// Await or a blocking call distinguish "the AP closed the connection" from a
// transport failure via errors.Is(err, ErrClientClosed).
var ErrClientClosed = errors.New("fronthaul: client closed")

// ResponseIDError reports a response frame whose ID matched no in-flight
// request, or matched one that a frame of its type cannot answer — a
// duplicate delivery or a peer answering a request this client never issued.
// Either way the ID space is corrupt and the demux can no longer trust any
// match, so the connection is torn down with this error (recover it from any
// pending call's failure via errors.As).
type ResponseIDError struct {
	// MsgType is the wire frame type that carried the unmatched ID.
	MsgType uint8
	// ID is the unmatched response ID.
	ID uint64
}

func (e *ResponseIDError) Error() string {
	return fmt.Sprintf("fronthaul: response frame type %d carries unknown request ID %d", e.MsgType, e.ID)
}

// RemoteError is a solve request the data center answered with an error: a
// refusal (a stale channel handle, a shed, a bad argument) or a failed solve.
// Its text is the one error value of the answer, made once when the answer is
// decoded.
type RemoteError struct {
	text string // remoteFailed + the data center's message
}

// remoteFailed prefixes every RemoteError's text.
const remoteFailed = "fronthaul: remote decode failed: "

func (e *RemoteError) Error() string { return e.text }

// Msg returns the data center's message, as the answer carried it.
func (e *RemoteError) Msg() string { return e.text[len(remoteFailed):] }

// Client is the AP side of the fronthaul. It is safe for concurrent use:
// requests are pipelined on one connection and matched to responses by ID,
// so every OFDM subcarrier can be decoded in flight simultaneously. The
// Submit*/Await API exposes the pipelining directly — many in-flight
// requests per connection with out-of-order responses — and the blocking
// calls are thin submit-then-await wrappers.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex
	wbuf    []byte // the request frame being written, under writeMu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*call
	closed  error

	names backendNames // the read loop's
	regs  sync.Pool    // *registration, reused once answered
}

// call is one in-flight pipelined request: the frame type that may answer
// it, the storage its answer is decoded into, and the wait group done once
// the answer — or the connection's terminal error, in err — is there. A
// solve's call is its answer: the blocking calls return &resp, so a call is
// never reused, and the served shapes' bits and LLRs fit its own arrays. A
// registration's call is the client's again once its answer is read
// (registration).
type call struct {
	respType uint8
	done     sync.WaitGroup
	err      error
	resp     DecodeResponse // a solve's answer
	reply    any            // a registration's (decoded into) or stats poll's answer
	bits     [inlineBits]byte
	llr8     [inlineBits]int8
}

// registration is a registration's call and the answer the read loop decodes
// into it (call.reply points at resp), pooled on the client.
type registration struct {
	call
	resp RegisterChannelResponse
}

// inlineBits sizes a call's answer arrays for the served shapes: 8×8 QPSK
// answers 16 bits and 48×48 BPSK 48. Only a larger answer allocates its own
// Bits and LLR8.
const inlineBits = 48

// NewClient wraps an established connection and starts the response reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]*call)}
	go c.readLoop()
	return c
}

// Dial connects to a fronthaul server over TCP.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fronthaul: dial: %w", err)
	}
	return NewClient(conn), nil
}

// Close tears down the connection. Every in-flight request is drained
// immediately with ErrClientClosed — callers blocked in Await or a blocking
// call return with the tagged error instead of hanging until the read loop
// notices the dead socket.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return c.conn.Close()
}

// readLoop is the per-connection demux: it reads each response frame's ID,
// finds the call waiting on it, in whatever order they arrive, and decodes
// the frame into that call's storage. Anything that breaks the demux's trust
// in the stream is terminal: an unknown frame type (the peer speaks another
// protocol generation), an ID that matches no in-flight request or matches
// one of a different frame class — a duplicate delivery or a peer answering
// what was never asked — which tears down with a typed *ResponseIDError, and
// a frame that does not decode.
func (c *Client) readLoop() {
	// The demux only exits with the terminal error set, at which point the
	// connection is unusable; closing it here unblocks a peer mid-write and
	// any concurrent submit instead of leaving them wedged on a dead socket.
	defer c.conn.Close()
	fr := newFrameReader(c.conn)
	for {
		msgType, payload, err := fr.next()
		if err != nil {
			c.fail(fmt.Errorf("fronthaul: connection lost: %w", err))
			return
		}
		if msgType != msgDecodeResponse && msgType != msgRegisterResponse && msgType != msgStatsResponse {
			c.fail(fmt.Errorf("fronthaul: protocol error: unknown frame type %d (this client speaks version %d)",
				msgType, ProtocolVersion))
			return
		}
		r := reader{b: payload}
		id := r.u64()
		if r.err != nil {
			c.fail(r.err)
			return
		}
		c.mu.Lock()
		k := c.pending[id]
		if k != nil && k.respType == msgType {
			delete(c.pending, id)
		} else {
			k = nil
		}
		c.mu.Unlock()
		if k == nil {
			c.fail(&ResponseIDError{MsgType: msgType, ID: id})
			return
		}
		switch msgType {
		case msgDecodeResponse:
			err = k.resp.decode(payload, &c.names, k.bits[:0], k.llr8[:0])
		case msgRegisterResponse:
			err = k.reply.(*RegisterChannelResponse).decode(payload)
		default:
			k.reply, err = decodeStatsResponse(payload)
		}
		if err != nil {
			k.err = c.fail(err)
			k.done.Done()
			return
		}
		k.done.Done()
	}
}

// fail aborts all pending calls with the client's terminal error, and
// returns it. The first terminal error wins: a Close racing the read loop's
// socket error keeps its ErrClientClosed tag.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed == nil {
		c.closed = err
	}
	for id, k := range c.pending {
		delete(c.pending, id)
		k.err = c.closed
		k.done.Done()
	}
	return c.closed
}

// submit runs the send half of one request's lifecycle: allocate an ID,
// register the call, encode the frame into the client's write buffer and
// send it in one Write: the request is on the wire when submit returns.
// Every request class goes through this one function, so the lifecycle
// cannot drift between them. A request refused before a byte is written is
// the caller's error alone; a failed Write may have left part of a frame on
// the wire, so it fails the whole client.
func (c *Client) submit(k *call, encode func(buf []byte, id uint64) ([]byte, error)) error {
	k.done.Add(1)
	c.mu.Lock()
	if c.closed != nil {
		c.mu.Unlock()
		return c.closed
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = k
	c.mu.Unlock()

	c.writeMu.Lock()
	frame, err := encode(c.wbuf, id)
	if err == nil {
		if cap(frame) <= readAhead {
			c.wbuf = frame // an outsized frame's buffer is not kept, as on the read side
		}
		if err = sendFrame(c.conn, frame); err != nil && !errors.Is(err, errFrameSize) {
			c.writeMu.Unlock()
			err = c.fail(fmt.Errorf("fronthaul: write request: %w", err))
			c.conn.Close()
			return err
		}
	}
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	return err
}

// await blocks for the matched response and returns the connection's
// terminal error if it died (or Close drained the call) first. Callers check
// their response's Err field afterward.
func (k *call) await() error {
	k.done.Wait()
	return k.err
}

// DecodeCall is one in-flight pipelined solve request, returned by the
// Submit* methods. Await blocks until the matched response arrives —
// responses return out of order, so many calls may be awaited in any order —
// and converts a remote error into a *RemoteError exactly like the blocking
// calls. Await must be called exactly once per call. (It is the call itself
// under its public name, not a wrapper around one.)
type DecodeCall call

// Await blocks for the solve response.
func (dc *DecodeCall) Await() (*DecodeResponse, error) {
	if err := (*call)(dc).await(); err != nil {
		return nil, err
	}
	if dc.resp.Err != "" {
		return nil, &dc.resp.remote
	}
	return &dc.resp, nil
}

// solve ships one solve request with its QoS contract filled in, answered
// into k, and returns the in-flight handle; every Decode*, DecodeSoft* and
// Precode* method is a filler of req over this one path. deadline ≤ 0 and
// targetBER ≤ 0 each select the server default (the deadline is bounded by
// MaxDeadlineMicros); targetBER ≥ 1 or NaN is a local argument error, as is
// anything else the server would refuse as a bad request (encodeRequest).
func (c *Client) solve(k *call, req *Request, deadline time.Duration, targetBER float64) (*DecodeCall, error) {
	if targetBER >= 1 || math.IsNaN(targetBER) {
		return nil, fmt.Errorf("fronthaul: target BER %g outside [0,1)", targetBER)
	}
	if deadline > 0 {
		req.DeadlineMicros = math.Min(float64(deadline)/float64(time.Microsecond), MaxDeadlineMicros)
	}
	req.TargetBER = math.Max(targetBER, 0)
	k.respType = msgDecodeResponse
	if err := c.submit(k, func(buf []byte, id uint64) ([]byte, error) {
		req.ID = id
		return frameRequest(buf, req)
	}); err != nil {
		return nil, err
	}
	return (*DecodeCall)(k), nil
}

// solveOn is solve against a registered channel.
func (c *Client) solveOn(k *call, rc *RemoteChannel, req *Request, deadline time.Duration, targetBER float64) (*DecodeCall, error) {
	if rc == nil || rc.c != c {
		return nil, errors.New("fronthaul: channel not registered on this client")
	}
	if len(req.Vec) != rc.rows {
		return nil, fmt.Errorf("fronthaul: vector has %d entries, channel has %d rows", len(req.Vec), rc.rows)
	}
	req.Handle = rc.handle
	return c.solve(k, req, deadline, targetBER)
}

// Decode ships one channel use to the data center and waits for the decoded
// bits. It blocks until the response arrives or the connection fails.
func (c *Client) Decode(mod modulation.Modulation, h *linalg.Mat, y []complex128) (*DecodeResponse, error) {
	return c.DecodeQoS(mod, h, y, 0, 0)
}

// DecodeQoS is Decode with the full QoS contract: a processing deadline and
// a target BER. The data center's planner sizes the anneal budget (reads ×
// anneal time, forward or reverse) to just reach the target within the
// deadline, or solves classically when the annealer cannot. deadline ≤ 0
// and targetBER ≤ 0 each select the server default; targetBER ≥ 1 is a
// local argument error (the wire protocol rejects it server-side too).
func (c *Client) DecodeQoS(mod modulation.Modulation, h *linalg.Mat, y []complex128, deadline time.Duration, targetBER float64) (*DecodeResponse, error) {
	return awaitCall(c.SubmitDecodeQoS(mod, h, y, deadline, targetBER))
}

// awaitCall turns a Submit* result into its blocking form.
func awaitCall(dc *DecodeCall, err error) (*DecodeResponse, error) {
	if err != nil {
		return nil, err
	}
	return dc.Await()
}

// SubmitDecodeQoS is the pipelined form of DecodeQoS: it ships the request
// and returns immediately with the in-flight handle. The frame is on the
// wire when SubmitDecodeQoS returns, so an AP can keep a window of many
// decodes in flight on one connection and Await them as responses arrive.
func (c *Client) SubmitDecodeQoS(mod modulation.Modulation, h *linalg.Mat, y []complex128, deadline time.Duration, targetBER float64) (*DecodeCall, error) {
	return c.solve(new(call), &Request{Mod: mod, H: h, Vec: y}, deadline, targetBER)
}

// RemoteChannel is a channel registered with the data center for a coherence
// window: decode received vectors against it with DecodeWithChannel. Handles
// are connection-scoped and die with the client.
type RemoteChannel struct {
	c      *Client
	handle uint64
	mod    modulation.Modulation
	rows   int
}

// Mod returns the modulation the channel was registered with.
func (rc *RemoteChannel) Mod() modulation.Modulation { return rc.mod }

// RegisterChannel ships one estimated channel to the data center and returns
// the handle to decode a coherence window's symbols against. The server
// compiles the channel once — couplings, embedding, prepared physical
// program — and every DecodeWithChannel call only rewrites the y-dependent
// biases. The returned handle is all a registration allocates.
func (c *Client) RegisterChannel(mod modulation.Modulation, h *linalg.Mat) (*RemoteChannel, error) {
	r, ok := c.regs.Get().(*registration)
	if !ok {
		r = new(registration)
		r.reply = &r.resp
	}
	r.respType, r.err = msgRegisterResponse, nil
	if err := c.submit(&r.call, func(buf []byte, id uint64) ([]byte, error) {
		return frameRegisterChannel(buf, &RegisterChannelRequest{ID: id, Mod: mod, H: h})
	}); err != nil {
		return nil, err // r is dropped: a refused submit leaves its wait group counting
	}
	err := r.await()
	resp := r.resp
	c.regs.Put(r) // answered or drained: nothing touches r any more
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("fronthaul: channel registration failed: %s", resp.Err)
	}
	return &RemoteChannel{c: c, handle: resp.Handle, mod: mod, rows: h.Rows}, nil
}

// DecodeWithChannel decodes one received vector against a registered
// channel, carrying the same per-request QoS contract as DecodeQoS
// (deadline ≤ 0 and targetBER ≤ 0 select the server defaults). Symbols
// decoded this way are tagged with the channel's fingerprint, so the data
// center batches same-window symbols onto an already-programmed annealer.
func (c *Client) DecodeWithChannel(rc *RemoteChannel, y []complex128, deadline time.Duration, targetBER float64) (*DecodeResponse, error) {
	return awaitCall(c.SubmitDecodeWithChannel(rc, y, deadline, targetBER))
}

// SubmitDecodeWithChannel is the pipelined form of DecodeWithChannel: the
// per-symbol decode of a coherence window ships immediately and the caller
// holds the in-flight handle, so a whole window of symbols can ride the wire
// concurrently and the data center's coherence-aware batching sees them all
// at once instead of one per round trip.
func (c *Client) SubmitDecodeWithChannel(rc *RemoteChannel, y []complex128, deadline time.Duration, targetBER float64) (*DecodeCall, error) {
	return c.solveOn(new(call), rc, &Request{Vec: y}, deadline, targetBER)
}

// PrecodeResponse is one solved downlink vector-perturbation search.
type PrecodeResponse struct {
	// V is the chosen perturbation vector, one complex integer per user.
	V []complex128
	// PerturbMod is the constellation the solution bits were drawn from
	// (identifies the alphabet depth the server actually used).
	PerturbMod modulation.Modulation
	// Energy is the minimized transmit power γ = ‖P(s+τv)‖².
	Energy float64
	// ComputeMicros, Backend and Batched carry the same solver metadata as
	// DecodeResponse.
	ComputeMicros float64
	Backend       string
	Batched       int
}

// precodeCall is a precode's call with the storage its answer is converted
// into: like a solve's call it is the answer, and the served shapes'
// perturbations fit its own array.
type precodeCall struct {
	call
	pre PrecodeResponse
	v   [inlineUsers]complex128
}

// inlineUsers sizes a precodeCall's perturbation array for the served shape,
// 8 users; only a larger precode allocates its own V.
const inlineUsers = 8

// precodeResponse awaits a precode's solve response and converts it into pc's
// PrecodeResponse, inferring the perturbation alphabet the server used from
// the solution bit count (users · 2 · bits).
func precodeResponse(users int, pc *precodeCall, dc *DecodeCall, err error) (*PrecodeResponse, error) {
	resp, err := awaitCall(dc, err)
	if err != nil {
		return nil, err
	}
	if users < 1 || len(resp.Bits)%(2*users) != 0 {
		return nil, fmt.Errorf("fronthaul: precode response has %d solution bits for %d users", len(resp.Bits), users)
	}
	pam, err := precoding.PerturbModulation(len(resp.Bits) / (2 * users))
	if err != nil {
		return nil, fmt.Errorf("fronthaul: precode response alphabet: %w", err)
	}
	pc.pre = PrecodeResponse{
		V:             precoding.AppendPerturbationFromGrayBits(pc.v[:0], pam, resp.Bits),
		PerturbMod:    pam,
		Energy:        resp.Energy,
		ComputeMicros: resp.ComputeMicros,
		Backend:       resp.Backend,
		Batched:       resp.Batched,
	}
	return &pc.pre, nil
}

// Precode ships one downlink vector-perturbation search to the data center:
// find the perturbation v minimizing the transmit power of user-data symbol
// vector s through downlink channel h (one row per user). perturbBits selects
// the alphabet depth (0 = server default); deadline and targetBER carry the
// usual QoS contract. The caller forms the transmit vector from the returned
// perturbation (precoding.Program.Transmit).
func (c *Client) Precode(mod modulation.Modulation, h *linalg.Mat, s []complex128, perturbBits int, deadline time.Duration, targetBER float64) (*PrecodeResponse, error) {
	pc := new(precodeCall)
	dc, err := c.solve(&pc.call, &Request{Mod: mod, H: h, Vec: s, Precode: true, PerturbBits: perturbBits}, deadline, targetBER)
	return precodeResponse(len(s), pc, dc, err)
}

// PrecodeWithChannel is Precode against a registered channel (the downlink
// mirror of DecodeWithChannel): the coherence window's H ships once and each
// symbol vector is an O(Nu) frame the data center precodes through its
// compiled VP program.
func (c *Client) PrecodeWithChannel(rc *RemoteChannel, s []complex128, perturbBits int, deadline time.Duration, targetBER float64) (*PrecodeResponse, error) {
	pc := new(precodeCall)
	dc, err := c.solveOn(&pc.call, rc, &Request{Vec: s, Precode: true, PerturbBits: perturbBits}, deadline, targetBER)
	return precodeResponse(len(s), pc, dc, err)
}

// SoftQoS is the per-request contract of a soft decode: the LLR scaling and
// clamp plus the usual deadline/target-BER pair. The zero value is valid
// (unscaled LLRs, server-default clamp, server-default deadline and target).
type SoftQoS struct {
	// NoiseVar is the AP's per-antenna complex noise variance estimate σ²
	// (0 = unscaled energy differences).
	NoiseVar float64
	// LLRClamp bounds |LLR| and sets the quantization full scale
	// (0 = server default).
	LLRClamp float64
	// Deadline and TargetBER as in DecodeQoS (≤ 0 = server default).
	Deadline  time.Duration
	TargetBER float64
}

// LLRs dequantizes the response's int8 LLR payload back to float64 at the
// response clamp (softout.Dequantize).
func (r *DecodeResponse) LLRs() []float64 {
	return softout.Dequantize(r.LLR8, r.Clamp)
}

// DecodeSoft ships one channel use to the data center requesting soft output
// and waits for the hard decision plus per-bit LLRs. The LLRs ride the
// fronthaul as int8 at the response's clamp scale; use DecodeResponse.LLRs
// to recover float values for the FEC layer.
func (c *Client) DecodeSoft(mod modulation.Modulation, h *linalg.Mat, y []complex128, q SoftQoS) (*DecodeResponse, error) {
	return awaitCall(c.solve(new(call), &Request{Mod: mod, H: h, Vec: y,
		Soft: true, NoiseVar: q.NoiseVar, LLRClamp: q.LLRClamp}, q.Deadline, q.TargetBER))
}

// DecodeSoftWithChannel is DecodeSoft against a registered channel: the
// coherence window's H shipped once (RegisterChannel), every soft-decoded
// symbol an O(Nr) frame tagged with the channel's fingerprint for
// coherence-aware batching — exactly like DecodeWithChannel, soft.
func (c *Client) DecodeSoftWithChannel(rc *RemoteChannel, y []complex128, q SoftQoS) (*DecodeResponse, error) {
	return awaitCall(c.solveOn(new(call), rc, &Request{Vec: y,
		Soft: true, NoiseVar: q.NoiseVar, LLRClamp: q.LLRClamp}, q.Deadline, q.TargetBER))
}

// PoolStats polls the data center's live serving statistics: every series
// the server's planes export (pool counters per shard and backend, and —
// where the deployment runs them — telemetry histograms, health verdicts,
// burn rates, planner decisions) as one sample set. This is the frame behind
// `quamax -top` and `-watch`.
func (c *Client) PoolStats() (*StatsResponse, error) {
	k := &call{respType: msgStatsResponse}
	if err := c.submit(k, func(_ []byte, id uint64) ([]byte, error) {
		return frameStatsRequest(&StatsRequest{ID: id}), nil
	}); err != nil {
		return nil, err
	}
	if err := k.await(); err != nil {
		return nil, err
	}
	resp := k.reply.(*StatsResponse)
	if resp.Err != "" {
		return nil, fmt.Errorf("fronthaul: remote stats failed: %s", resp.Err)
	}
	return resp, nil
}
