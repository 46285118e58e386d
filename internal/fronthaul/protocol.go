// Package fronthaul implements the C-RAN link the paper's architecture
// assumes (§1, §7): access points forward per-subcarrier work — a channel or
// a handle to one, a vector, a QoS contract — over a low-latency fronthaul to
// a centralized data center, where a QPU pool runs QuAMax and returns bits.
//
// # Wire format (v11)
//
// The protocol is a length-prefixed binary framing over any net.Conn (TCP in
// deployment; net.Pipe in tests). Every frame is
//
//	uint32 payload length | uint8 frame type | payload
//
// with little-endian integers, float64 reals, and complex samples as two
// float64 (c128). There are three request/response pairs:
//
//	type 13 solve request     → type 14 solve response
//	type  3 register-channel  → type  4 register response
//	type 11 stats request     → type 12 stats response   (statscodec.go)
//
// Every payload starts with a client-chosen uint64 ID that the response
// echoes, so a connection is pipelined: many requests in flight, answered out
// of order, matched by ID — the paper's "parallelize different problems
// (e.g., different subcarriers' ML decoding)" (§5.5).
//
// One solve frame carries every kind of work. Uplink hard detection, soft
// detection and downlink vector-perturbation precoding differ only in flags
// and the optional sections they switch on; the channel rides inline or is
// named by the handle a register-channel frame returned:
//
//	request   id u64 | flags u8 {1: by-handle, 2: soft, 4: precode; 2+4 rejected}
//	          | by-handle ? handle u64 : (mod u8, rows u16, cols u16, H rows·cols·c128)
//	          | precode ? perturbBits u8
//	          | n u32, vec n·c128            (y to detect, or s to precode)
//	          | deadlineMicros f64 | targetBER f64
//	          | soft ? (noiseVar f64, llrClamp f64)
//	response  id u64 | err (u16 + bytes) | bits (u32 + bytes) | energy f64
//	          | computeMicros f64 | backend (u16 + bytes) | batched u16
//	          | flags u8 {1: llr}
//	          | llr ? (clamp f64, saturated u32, n u32, llr8 n·i8)
//	register  id u64 | mod u8, rows u16, cols u16, H rows·cols·c128
//	          → id u64 | err (u16 + bytes) | handle u64
//	stats     id u64
//	          → id u64 | err (u16 + bytes) | n u32 | n × sample
//	sample    name (u16 + bytes) | nlabels u8 | nlabels × (key, value: u16 + bytes)
//	          | kind u8 {0 counter, 1 gauge, 2 histogram}
//	          | counter, gauge ? value f64
//	          | histogram ? nb u8 | nb × (bucket u8, count u64) | sum f64 | min f64 | max f64
//
// A stats response is the server's whole metric set as metrics.Sample series
// (statscodec.go): samples strictly ascending by (name, labels), label keys
// strictly ascending, only nonzero histogram buckets in ascending index order.
// Adding a metric adds a sample, never a field of this grammar.
//
// Every declared length is checked against the bytes already received before
// anything is allocated for it — a field's against the payload that holds it,
// and the frame's own length prefix against the bytes that have arrived (the
// read buffer grows at most readAhead past them). Every sample must be
// finite, and each grammar is canonical: a payload that decodes re-encodes to
// the same bytes. A frame of any other type is answered with an error naming
// ProtocolVersion and the connection is closed.
//
// # I/O discipline
//
// A frame is encoded into one contiguous buffer, header first, and leaves in
// one Write. Each connection end reads through one buffered reader into one
// payload buffer it reuses frame after frame; decoders copy out everything
// they keep, into storage its owner holds (a server request slot, a client
// call), so a decoded message never aliases that buffer. The client writes
// each request as it is submitted (it is on the wire when submit returns).
// The server's writer goroutine buffers the slots' responses and flushes
// whenever its queue runs empty — never on a timer — so a burst of responses
// shares a segment and a lone response leaves at once.
package fronthaul

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"slices"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
)

// ProtocolVersion is the fronthaul framing generation this package speaks.
// Peers of any other generation are refused, not negotiated with.
const ProtocolVersion = 11

// Frame types.
const (
	msgRegisterChannel  uint8 = 3
	msgRegisterResponse uint8 = 4
	msgStatsRequest     uint8 = 11
	msgStatsResponse    uint8 = 12
	msgDecodeRequest    uint8 = 13
	msgDecodeResponse   uint8 = 14
)

// Request flags.
const (
	reqByHandle uint8 = 1 << iota
	reqSoft
	reqPrecode
)

// respLLR flags a response that carries the soft-output block.
const respLLR uint8 = 1

// MaxFrameBytes bounds a frame payload; a 64×64 64-QAM request is ~130 KiB,
// so 16 MiB leaves ample room while stopping corrupt length prefixes.
const MaxFrameBytes = 16 << 20

// MaxDeadlineMicros bounds a request deadline (≈11.6 days in µs) — far past
// any real processing budget, and small enough that the microseconds→
// time.Duration conversion cannot overflow.
const MaxDeadlineMicros = 1e12

// Request is the one solve frame shipped AP → data center: a channel (inline,
// or the handle of a registered one), a vector, and the QoS contract.
type Request struct {
	ID uint64
	// Mod and H are the inline channel. A nil H means the request runs
	// against the registered channel Handle names (handles start at 1), which
	// shrinks the per-symbol payload from O(Nr·Nt) to O(Nr) — the C-RAN
	// bandwidth argument for coherence-aware fronthauls.
	Mod    modulation.Modulation
	H      *linalg.Mat
	Handle uint64
	// Vec is the received vector y to detect, or with Precode the user-data
	// symbol vector s whose transmit-power-minimizing perturbation to find;
	// one entry per channel row either way.
	Vec []complex128
	// Precode selects the downlink vector-perturbation search; PerturbBits is
	// its alphabet depth per dimension (0 = server default). The response's
	// Bits are then the Gray solution bits of the perturbation constellation
	// (precoding.PerturbationFromGrayBits decodes them) and Energy is the
	// minimized transmit power γ = ‖P(s+τv)‖².
	Precode     bool
	PerturbBits int
	// DeadlineMicros is the AP's processing budget; the pool scheduler routes
	// the problem to a classical solver when the QPU queue cannot meet it.
	// 0 means no deadline (use the server default).
	DeadlineMicros float64
	// TargetBER is the AP's QoS target: the data center's planner sizes the
	// anneal budget (reads × anneal time) to just reach it within the
	// deadline. 0 means no target (use the server default).
	TargetBER float64
	// Soft requests per-bit LLRs alongside the hard decision. NoiseVar is the
	// AP-estimated per-antenna complex noise variance σ² scaling them (0 =
	// unscaled energy differences); LLRClamp bounds |LLR| and sets the int8
	// quantization full scale (0 = the server's configured default).
	Soft     bool
	NoiseVar float64
	LLRClamp float64
}

// DecodeResponse is the one solve response: the decided bits and solver
// metadata, plus the quantized LLRs when the request was soft.
type DecodeResponse struct {
	ID     uint64
	Err    string // empty on success
	Bits   []byte
	Energy float64 // ML metric of the returned decision
	// ComputeMicros is the modeled QPU compute time (Na·(Ta+Tp)/Pf) spent on
	// this decode, reported for TTB accounting at the AP.
	ComputeMicros float64
	// Backend names the pool solver that produced the decode (e.g. "qpu0",
	// "sa"); empty on error responses.
	Backend string
	// Batched is the number of requests that shared the solver run
	// (1 = solo; >1 means the decode rode a shared embedding-slot batch).
	Batched int
	// LLR8 are the per-bit LLRs of a soft decode (softout convention:
	// positive favors bit 1) quantized to int8 at full scale ±Clamp
	// (softout.AppendQuantized), so a soft bit costs one byte on the fronthaul
	// instead of a float64. Nil on hard decodes and precodes.
	LLR8 []int8
	// Clamp is the LLR magnitude the quantization maps onto ±127 — the
	// scale LLRs() dequantizes with.
	Clamp float64
	// Saturated counts the LLR entries that hit the clamp server-side.
	Saturated int
}

// RegisterChannelRequest registers one estimated channel for a coherence
// window: the data center compiles it once and returns a connection-scoped
// handle that by-handle solve requests reference instead of resending H per
// symbol.
type RegisterChannelRequest struct {
	ID  uint64
	Mod modulation.Modulation
	H   *linalg.Mat
}

// RegisterChannelResponse answers a channel registration with the handle to
// solve against (or an error).
type RegisterChannelResponse struct {
	ID     uint64
	Err    string // empty on success
	Handle uint64
}

// frameHeaderLen is the frame header: payload length u32, frame type u8.
const frameHeaderLen = 5

// readAhead bounds how far a connection's payload buffer grows past the bytes
// that have actually arrived, so a forged length prefix costs its sender's
// peer this much memory and no more.
const readAhead = 64 << 10

// newFrame starts a frame in buf's storage: the header reserved, room for
// size payload bytes. Encoders append the payload and finish with sealFrame.
func newFrame(buf []byte, size int) []byte {
	return slices.Grow(buf[:0], frameHeaderLen+size)[:frameHeaderLen]
}

// sealFrame fills in the header of a frame begun with newFrame.
func sealFrame(b []byte, msgType uint8) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-frameHeaderLen))
	b[4] = msgType
	return b
}

// errFrameSize tags the refusal of a frame past MaxFrameBytes.
var errFrameSize = errors.New("fronthaul: frame exceeds limit")

// sendFrame emits one sealed frame in a single Write. A frame past
// MaxFrameBytes is refused with errFrameSize before a byte is written.
func sendFrame(w io.Writer, frame []byte) error {
	if len(frame)-frameHeaderLen > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", errFrameSize, len(frame)-frameHeaderLen)
	}
	_, err := w.Write(frame)
	return err
}

// frameReader reads one connection end's frames into a buffer it owns and
// reuses for every frame up to readAhead bytes.
type frameReader struct {
	r   io.Reader
	hdr [frameHeaderLen]byte
	buf []byte
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(conn)}
}

// next reads one frame. The payload is valid until the following call.
func (fr *frameReader) next() (msgType uint8, payload []byte, err error) {
	if _, err = io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("fronthaul: frame length %d exceeds limit", n)
	}
	buf := fr.buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), readAhead)
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(fr.r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+got]
		if err != nil {
			return 0, nil, fmt.Errorf("fronthaul: truncated frame: %w", err)
		}
	}
	if cap(buf) <= readAhead {
		fr.buf = buf // an outsized frame's buffer is not kept: an idle connection pins one chunk at most
	}
	return fr.hdr[4], buf, nil
}

// appendU16/U32/U64/F64 are little-endian append helpers.
func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}
func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendC128s appends complex samples as (real, imag) float64 pairs.
func appendC128s(b []byte, v []complex128) []byte {
	for _, c := range v {
		b = appendF64(b, real(c))
		b = appendF64(b, imag(c))
	}
	return b
}

// appendMat appends an inline channel (mod u8, rows u16, cols u16, H),
// refusing shapes the header cannot express and non-finite entries.
func appendMat(b []byte, mod modulation.Modulation, h *linalg.Mat) ([]byte, error) {
	if h == nil || h.Rows < 1 || h.Cols < 1 || h.Rows > math.MaxUint16 || h.Cols > math.MaxUint16 ||
		len(h.Data) != h.Rows*h.Cols {
		return nil, errors.New("fronthaul: empty or oversized channel matrix")
	}
	if !finite(h.Data) {
		return nil, errors.New("fronthaul: channel matrix has a non-finite entry")
	}
	b = append(b, byte(mod))
	b = appendU16(b, uint16(h.Rows))
	b = appendU16(b, uint16(h.Cols))
	return appendC128s(b, h.Data), nil
}

// finite reports whether every sample is a finite number. NaN or ±Inf in H,
// y or s would poison the channel fingerprint and every compile downstream,
// so both codec directions refuse them.
func finite(v []complex128) bool {
	for _, c := range v {
		if cmplx.IsNaN(c) || cmplx.IsInf(c) {
			return false
		}
	}
	return true
}

type reader struct {
	b   []byte
	off int
	err error
}

// The fixed-width reads return zero once the payload has run short; callers
// check r.err after a batch of reads.
func (r *reader) u8() uint8   { return r.fixed(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// fixed reads n ≤ 8 bytes, or zeros once the payload has run short.
func (r *reader) fixed(n int) []byte {
	if b := r.bytes(n); b != nil {
		return b
	}
	return make([]byte, n)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.err = errShort
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

var errShort = errors.New("fronthaul: short payload")

// readC128s reads n complex samples into dst's storage. The count is bounded
// by what the payload still holds (16 bytes per sample) before anything is
// allocated, so a forged header cannot provoke a large allocation, and
// non-finite samples are rejected here for every frame that carries a vector
// or a matrix.
func readC128s(r *reader, dst []complex128, n int) ([]complex128, error) {
	if r.err != nil {
		return nil, r.err
	}
	if n < 1 || n > (len(r.b)-r.off)/16 {
		return nil, fmt.Errorf("fronthaul: %d complex samples exceed the payload", n)
	}
	raw := r.bytes(16 * n)
	v := slices.Grow(dst[:0], n)[:n]
	for i := range v {
		v[i] = complex(
			math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])))
	}
	if !finite(v) {
		return nil, errors.New("fronthaul: non-finite sample")
	}
	return v, nil
}

// readMat reads an inline channel (mod u8, rows u16, cols u16, H).
func readMat(r *reader) (modulation.Modulation, *linalg.Mat, error) {
	mod := modulation.Modulation(r.u8())
	rows := int(r.u16())
	cols := int(r.u16())
	if r.err != nil {
		return 0, nil, r.err
	}
	if _, err := modulation.Parse(mod.String()); err != nil {
		return 0, nil, fmt.Errorf("fronthaul: bad modulation byte %d", byte(mod))
	}
	if rows < 1 || cols < 1 {
		return 0, nil, errors.New("fronthaul: empty channel matrix")
	}
	data, err := readC128s(r, nil, rows*cols)
	if err != nil {
		return 0, nil, err
	}
	return mod, &linalg.Mat{Rows: rows, Cols: cols, Data: data}, nil
}

// validateSoftScaling rejects unrepresentable noise-variance / clamp pairs.
func validateSoftScaling(noiseVar, clamp float64) error {
	if !(noiseVar >= 0) || math.IsInf(noiseVar, 0) {
		return fmt.Errorf("fronthaul: invalid noise variance %g", noiseVar)
	}
	if !(clamp >= 0) || math.IsInf(clamp, 0) {
		return fmt.Errorf("fronthaul: invalid LLR clamp %g", clamp)
	}
	return nil
}

// validateQoSWire rejects out-of-range deadline/target fields: NaN/negative
// deadlines, deadlines past MaxDeadlineMicros (so the µs→time.Duration
// conversion on the server cannot overflow int64 — float-to-int conversion of
// an out-of-range value is implementation-defined), and targets outside
// [0, 1).
func validateQoSWire(deadlineMicros, targetBER float64) error {
	if !(deadlineMicros >= 0) || deadlineMicros > MaxDeadlineMicros {
		return fmt.Errorf("fronthaul: invalid deadline %g µs", deadlineMicros)
	}
	if !(targetBER >= 0) || targetBER >= 1 {
		return fmt.Errorf("fronthaul: invalid target BER %g", targetBER)
	}
	return nil
}

// validatePerturbBits bounds a precode request's alphabet depth.
func validatePerturbBits(bits int) error {
	if bits < 0 || bits > precoding.MaxPerturbBits {
		return fmt.Errorf("fronthaul: perturbation bits %d outside [0,%d]", bits, precoding.MaxPerturbBits)
	}
	return nil
}

// frameRequest serializes a solve request into its frame, in buf's storage,
// refusing arguments the server would reject as a bad request (and tear the
// connection down over).
func frameRequest(buf []byte, req *Request) ([]byte, error) {
	var flags uint8
	size := 8 + 1 + 8 + 1 + 4 + 16*len(req.Vec) + 32
	switch {
	case req.H == nil && req.Handle == 0:
		return nil, errors.New("fronthaul: request names neither a channel nor a handle")
	case req.H == nil:
		flags |= reqByHandle
	case req.H.Rows != len(req.Vec):
		return nil, errors.New("fronthaul: request shape mismatch")
	default:
		size += 16 * len(req.H.Data)
	}
	if len(req.Vec) < 1 || !finite(req.Vec) {
		return nil, errors.New("fronthaul: empty or non-finite vector")
	}
	if req.Soft && req.Precode {
		return nil, errors.New("fronthaul: a request is soft or precode, not both")
	}
	if req.Soft {
		if err := validateSoftScaling(req.NoiseVar, req.LLRClamp); err != nil {
			return nil, err
		}
		flags |= reqSoft
	}
	if req.Precode {
		if err := validatePerturbBits(req.PerturbBits); err != nil {
			return nil, err
		}
		flags |= reqPrecode
	}
	b := appendU64(newFrame(buf, size), req.ID)
	b = append(b, flags)
	if req.H == nil {
		b = appendU64(b, req.Handle)
	} else {
		var err error
		if b, err = appendMat(b, req.Mod, req.H); err != nil {
			return nil, err
		}
	}
	if req.Precode {
		b = append(b, byte(req.PerturbBits))
	}
	b = appendU32(b, uint32(len(req.Vec)))
	b = appendC128s(b, req.Vec)
	b = appendF64(b, req.DeadlineMicros)
	b = appendF64(b, req.TargetBER)
	if req.Soft {
		b = appendF64(b, req.NoiseVar)
		b = appendF64(b, req.LLRClamp)
	}
	return sealFrame(b, msgDecodeRequest), nil
}

// decode parses a solve request into req, overwriting every field. The
// vector is read into req.Vec's storage; an inline channel is always fresh,
// because the layers below may keep it past the request.
func (req *Request) decode(payload []byte) error {
	r := &reader{b: payload}
	*req = Request{ID: r.u64(), Vec: req.Vec}
	flags := r.u8()
	if r.err != nil {
		return r.err
	}
	if flags&^(reqByHandle|reqSoft|reqPrecode) != 0 || flags&(reqSoft|reqPrecode) == reqSoft|reqPrecode {
		return fmt.Errorf("fronthaul: bad request flags %#x", flags)
	}
	req.Soft, req.Precode = flags&reqSoft != 0, flags&reqPrecode != 0
	var err error
	if flags&reqByHandle != 0 {
		if req.Handle = r.u64(); r.err == nil && req.Handle == 0 {
			return errors.New("fronthaul: channel handle 0 is never issued")
		}
	} else if req.Mod, req.H, err = readMat(r); err != nil {
		return err
	}
	if req.Precode {
		// More users than antennas is a *request* error, not a framing error:
		// precoding.Compile rejects it and the server answers per-request, so
		// one bad argument does not tear down a shared pipelined connection.
		req.PerturbBits = int(r.u8())
		if err := validatePerturbBits(req.PerturbBits); err != nil {
			return err
		}
	}
	n := int(r.u32())
	if r.err == nil && req.H != nil && n != req.H.Rows {
		return fmt.Errorf("fronthaul: vector has %d entries, channel has %d rows", n, req.H.Rows)
	}
	if req.Vec, err = readC128s(r, req.Vec, n); err != nil {
		return err
	}
	req.DeadlineMicros = r.f64()
	req.TargetBER = r.f64()
	if req.Soft {
		req.NoiseVar = r.f64()
		req.LLRClamp = r.f64()
	}
	if r.err != nil {
		return r.err
	}
	if err := validateQoSWire(req.DeadlineMicros, req.TargetBER); err != nil {
		return err
	}
	if err := validateSoftScaling(req.NoiseVar, req.LLRClamp); err != nil {
		return err
	}
	if r.off != len(payload) {
		return errors.New("fronthaul: trailing bytes in request")
	}
	return nil
}

// frameRegisterChannel serializes a RegisterChannelRequest into its frame,
// in buf's storage.
func frameRegisterChannel(buf []byte, req *RegisterChannelRequest) ([]byte, error) {
	size := 8 + 5
	if req.H != nil {
		size += 16 * len(req.H.Data)
	}
	b, err := appendMat(appendU64(newFrame(buf, size), req.ID), req.Mod, req.H)
	if err != nil {
		return nil, err
	}
	return sealFrame(b, msgRegisterChannel), nil
}

// decodeRegisterChannel parses a RegisterChannelRequest payload.
func decodeRegisterChannel(payload []byte) (*RegisterChannelRequest, error) {
	r := &reader{b: payload}
	req := &RegisterChannelRequest{ID: r.u64()}
	var err error
	if req.Mod, req.H, err = readMat(r); err != nil {
		return nil, err
	}
	if r.off != len(payload) {
		return nil, errors.New("fronthaul: trailing bytes in register-channel request")
	}
	return req, nil
}

// appendStr16 appends a u16-counted string, clipped to the 65,535 bytes the
// count can express: an overlong error text loses its tail, not the frame its
// grammar (and the connection every in-flight request with it).
func appendStr16(b []byte, s string) []byte {
	s = s[:min(len(s), math.MaxUint16)]
	return append(appendU16(b, uint16(len(s))), s...)
}

// frameRegisterResponse serializes a RegisterChannelResponse into its frame,
// in buf's storage.
func frameRegisterResponse(buf []byte, resp *RegisterChannelResponse) []byte {
	b := appendU64(newFrame(buf, 8+2+len(resp.Err)+8), resp.ID)
	b = appendStr16(b, resp.Err)
	b = appendU64(b, resp.Handle)
	return sealFrame(b, msgRegisterResponse)
}

// decodeRegisterResponse parses a RegisterChannelResponse payload.
func decodeRegisterResponse(payload []byte) (*RegisterChannelResponse, error) {
	r := &reader{b: payload}
	resp := &RegisterChannelResponse{ID: r.u64()}
	errLen := int(r.u16())
	resp.Err = string(r.bytes(errLen))
	resp.Handle = r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, errors.New("fronthaul: trailing bytes in register-channel response")
	}
	return resp, nil
}

// frameResponse serializes a solve response into its frame, in buf's
// storage. The LLR block rides only when the response carries LLRs.
func frameResponse(buf []byte, resp *DecodeResponse) []byte {
	b := newFrame(buf, 8+2+len(resp.Err)+4+len(resp.Bits)+16+2+len(resp.Backend)+2+1+16+len(resp.LLR8))
	b = appendU64(b, resp.ID)
	b = appendStr16(b, resp.Err)
	b = appendU32(b, uint32(len(resp.Bits)))
	b = append(b, resp.Bits...)
	b = appendF64(b, resp.Energy)
	b = appendF64(b, resp.ComputeMicros)
	b = appendStr16(b, resp.Backend)
	b = appendU16(b, uint16(resp.Batched))
	if len(resp.LLR8) == 0 {
		return sealFrame(append(b, 0), msgDecodeResponse)
	}
	b = append(b, respLLR)
	b = appendF64(b, resp.Clamp)
	b = appendU32(b, uint32(resp.Saturated))
	b = appendU32(b, uint32(len(resp.LLR8)))
	for _, q := range resp.LLR8 {
		b = append(b, byte(q))
	}
	return sealFrame(b, msgDecodeResponse)
}

// decode parses a solve response into resp, overwriting every field, with
// the backend name interned in names. The clamp of an LLR
// block must be finite and non-negative so dequantization is well defined,
// and the block must hold at least one LLR (an empty one would re-encode
// without its flag).
func (resp *DecodeResponse) decode(payload []byte, names *backendNames) error {
	r := &reader{b: payload}
	*resp = DecodeResponse{ID: r.u64()}
	errLen := int(r.u16())
	resp.Err = string(r.bytes(errLen))
	bitLen := int(r.u32())
	resp.Bits = append([]byte(nil), r.bytes(bitLen)...)
	resp.Energy = r.f64()
	resp.ComputeMicros = r.f64()
	backendLen := int(r.u16())
	resp.Backend = names.intern(r.bytes(backendLen))
	resp.Batched = int(r.u16())
	flags := r.u8()
	if r.err == nil && flags&^respLLR != 0 {
		return fmt.Errorf("fronthaul: bad response flags %#x", flags)
	}
	if flags&respLLR != 0 {
		resp.Clamp = r.f64()
		resp.Saturated = int(r.u32())
		raw := r.bytes(int(r.u32()))
		if r.err == nil && len(raw) == 0 {
			return errors.New("fronthaul: empty LLR block in response")
		}
		resp.LLR8 = make([]int8, len(raw))
		for i, v := range raw {
			resp.LLR8[i] = int8(v)
		}
	}
	if r.err != nil {
		return r.err
	}
	if !(resp.Clamp >= 0) || math.IsInf(resp.Clamp, 0) {
		return fmt.Errorf("fronthaul: invalid LLR clamp %g in response", resp.Clamp)
	}
	if r.off != len(payload) {
		return errors.New("fronthaul: trailing bytes in response")
	}
	return nil
}

// backendNames interns the backend names one connection's responses carry:
// a pool has a handful, so the last few seen match nearly every response,
// and the comparison does not copy b.
type backendNames struct {
	seen [8]string
	next int
}

func (n *backendNames) intern(b []byte) string {
	for i := range n.seen {
		if string(b) == n.seen[i] {
			return n.seen[i]
		}
	}
	s := string(b)
	n.seen[n.next], n.next = s, (n.next+1)%len(n.seen)
	return s
}
