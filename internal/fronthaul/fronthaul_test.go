package fronthaul

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/sched"
)

func testDecoder(t *testing.T) *core.Decoder {
	t.Helper()
	d, err := core.New(core.Options{
		Graph:  chimera.New(6),
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newDecoderServer serves one QuAMax decoder as a one-QPU pool — the paper's
// original single-annealer deployment — and drains the pool when the test
// ends.
func newDecoderServer(t *testing.T, dec *core.Decoder, seed int64) *Server {
	t.Helper()
	s, err := sched.New(sched.Config{Pool: []backend.Backend{backend.AnnealerFromDecoder("qpu0", dec)}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := NewPoolServer(s)
	srv.Stats = func() []metrics.Sample { return metrics.Collect(s.Stats().Samples()) }
	return srv
}

func testInstance(t *testing.T, seed int64, mod modulation.Modulation, nt int) *mimo.Instance {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// codecRequests is one valid request per call shape {hard, soft, precode} ×
// {inline H, registered handle} — the whole request grammar.
func codecRequests() map[string]*Request {
	src := rng.New(121)
	h := channel.Rayleigh{}.Generate(src, 3, 2)
	y := []complex128{1 + 2i, 3, -1i}
	return map[string]*Request{
		"hard_inline": {ID: 42, Mod: modulation.QAM16, H: h, Vec: y, DeadlineMicros: 1500, TargetBER: 1e-4},
		"hard_handle": {ID: 6, Handle: 42, Vec: y, DeadlineMicros: 2500, TargetBER: 1e-3},
		"soft_inline": {ID: 99, Mod: modulation.QAM16, H: h, Vec: y, Soft: true,
			NoiseVar: 0.04, LLRClamp: 16, DeadlineMicros: 1500, TargetBER: 1e-4},
		"soft_handle": {ID: 4, Handle: 17, Vec: y[:2], Soft: true,
			NoiseVar: 0.1, LLRClamp: 8, DeadlineMicros: 10, TargetBER: 1e-3},
		// More users (rows) than antennas is a request error (compile rejects
		// it with a per-request response), NOT a framing error — it must pass
		// the codec so it cannot tear down a shared connection.
		"precode_inline": {ID: 77, Mod: modulation.QPSK, H: h, Vec: y, Precode: true,
			PerturbBits: 2, DeadlineMicros: 1500, TargetBER: 1e-3},
		"precode_handle": {ID: 9, Handle: 4, Vec: y[:2], Precode: true,
			PerturbBits: 1, DeadlineMicros: 10, TargetBER: 1e-2},
	}
}

// Every call shape must round-trip exactly, re-encode to the same bytes, and
// reject every truncation and any trailing byte.
func TestRequestCodecRoundTrip(t *testing.T) {
	for name, req := range codecRequests() {
		t.Run(name, func(t *testing.T) {
			payload, err := encodeRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeRequest(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, req) {
				t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, req)
			}
			for cut := 0; cut < len(payload); cut++ {
				if _, err := decodeRequest(payload[:cut]); err == nil {
					t.Fatalf("request truncated to %d of %d bytes accepted", cut, len(payload))
				}
			}
			if _, err := decodeRequest(append(payload, 0)); err == nil {
				t.Fatal("trailing byte accepted")
			}
		})
	}
}

// putF64 overwrites the float64 at off, counted from the end when negative.
func putF64(payload []byte, off int, v float64) []byte {
	out := append([]byte(nil), payload...)
	if off < 0 {
		off += len(out)
	}
	binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
	return out
}

// Field-level corruption of otherwise well-formed frames must be refused by
// the decoder, and the matching argument errors by the encoder, before
// anything reaches a compile: bad flags and enums, out-of-range QoS and soft
// scaling, shapes that disagree, and non-finite samples in H, y or s.
func TestRequestCodecRejectsCorruption(t *testing.T) {
	reqs := codecRequests()
	enc := func(name string) []byte {
		payload, err := encodeRequest(reqs[name])
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	setByte := func(payload []byte, off int, v byte) []byte {
		out := append([]byte(nil), payload...)
		out[off] = v
		return out
	}
	const flagsOff, inlineH, handleVec = 8, 8 + 1 + 5, 8 + 1 + 8 + 4
	nan, inf := math.NaN(), math.Inf(1)
	for name, payload := range map[string][]byte{
		"unknown flag bit":        setByte(enc("hard_inline"), flagsOff, 0x08),
		"soft and precode":        setByte(enc("soft_handle"), flagsOff, reqByHandle|reqSoft|reqPrecode),
		"bad modulation":          setByte(enc("hard_inline"), flagsOff+1, 200),
		"zero rows":               setByte(setByte(enc("hard_inline"), flagsOff+2, 0), flagsOff+3, 0),
		"handle zero":             putF64(enc("hard_handle"), flagsOff+1, 0),
		"perturb bits":            setByte(enc("precode_handle"), flagsOff+1+8, 99),
		"vector/row mismatch":     setByte(enc("hard_inline"), inlineH+16*6, 2),
		"NaN in H":                putF64(enc("hard_inline"), inlineH+16, nan),
		"Inf in H":                putF64(enc("precode_inline"), inlineH+8, inf),
		"NaN in y":                putF64(enc("hard_handle"), handleVec, nan),
		"-Inf in y":               putF64(enc("soft_handle"), handleVec+8, -inf),
		"Inf in s":                putF64(enc("precode_handle"), handleVec+1, inf),
		"negative deadline":       putF64(enc("hard_handle"), -16, -1),
		"deadline past the bound": putF64(enc("hard_handle"), -16, 2*MaxDeadlineMicros),
		"NaN deadline":            putF64(enc("hard_handle"), -16, nan),
		"negative target":         putF64(enc("hard_handle"), -8, -0.5),
		"target one":              putF64(enc("hard_handle"), -8, 1),
		"NaN target":              putF64(enc("hard_handle"), -8, nan),
		"infinite noise variance": putF64(enc("soft_handle"), -16, inf),
		"negative clamp":          putF64(enc("soft_handle"), -8, -2),
	} {
		if _, err := decodeRequest(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	h := reqs["hard_inline"].H
	y := reqs["hard_inline"].Vec
	poisoned := func(i int, v complex128) *linalg.Mat {
		m := &linalg.Mat{Rows: h.Rows, Cols: h.Cols, Data: append([]complex128(nil), h.Data...)}
		m.Data[i] = v
		return m
	}
	for name, req := range map[string]*Request{
		"shape mismatch":          {Mod: modulation.BPSK, H: h, Vec: y[:1]},
		"no channel, no handle":   {Vec: y},
		"empty vector":            {Handle: 1},
		"soft and precode":        {Handle: 1, Vec: y, Soft: true, Precode: true},
		"perturb bits":            {Handle: 1, Vec: y, Precode: true, PerturbBits: precoding.MaxPerturbBits + 1},
		"infinite noise variance": {Handle: 1, Vec: y, Soft: true, NoiseVar: inf},
		"negative clamp":          {Handle: 1, Vec: y, Soft: true, LLRClamp: -2},
		"NaN in H":                {Mod: modulation.BPSK, H: poisoned(0, complex(nan, 0)), Vec: y},
		"Inf in H":                {Mod: modulation.BPSK, H: poisoned(5, complex(0, inf)), Vec: y},
		"NaN in vector":           {Handle: 1, Vec: []complex128{1, complex(0, nan)}},
	} {
		if _, err := encodeRequest(req); err == nil {
			t.Errorf("encode %s: accepted", name)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := &DecodeResponse{ID: 7, Bits: []byte{1, 0, 1}, Energy: 2.5, ComputeMicros: 12.25,
		Backend: "qpu0", Batched: 2}
	back, err := decodeResponse(encodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Fatalf("round trip: %+v", back)
	}
	errResp := &DecodeResponse{ID: 9, Err: "boom"}
	back, err = decodeResponse(encodeResponse(errResp))
	if err != nil || back.Err != "boom" {
		t.Fatalf("error round trip: %+v, %v", back, err)
	}
	full := encodeResponse(resp)
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeResponse(full[:cut]); err == nil {
			t.Fatalf("response truncated to %d of %d bytes accepted", cut, len(full))
		}
	}
	if _, err := decodeResponse(append(full, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	full[len(full)-1] = 0x02
	if _, err := decodeResponse(full); err == nil {
		t.Fatal("unknown response flag accepted")
	}
}

func TestFrameSizeGuard(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgDecodeRequest, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Fatal("oversized frame written")
	}
	// A forged giant length prefix must be rejected on read.
	forged := []byte{0xff, 0xff, 0xff, 0xff, 1}
	if _, _, err := readFrame(bytes.NewReader(forged)); err == nil {
		t.Fatal("forged length accepted")
	}
}

// Full loop over an in-memory pipe: AP decodes a noise-free instance through
// the data-center server and gets its bits back.
func TestClientServerOverPipe(t *testing.T) {
	server := newDecoderServer(t, testDecoder(t), 1)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 123, modulation.QPSK, 4)
	resp, err := client.Decode(in.Mod, in.H, in.Y)
	if err != nil {
		t.Fatal(err)
	}
	if in.BitErrors(resp.Bits) != 0 {
		t.Fatalf("remote decode got %d bit errors", in.BitErrors(resp.Bits))
	}
	if resp.Energy > 1e-9 {
		t.Fatalf("energy %g, want ≈0", resp.Energy)
	}
	if resp.ComputeMicros <= 0 {
		t.Fatal("compute time not reported")
	}
}

// Real TCP with concurrent pipelined requests from multiple goroutines.
func TestClientServerOverTCPConcurrent(t *testing.T) {
	server := newDecoderServer(t, testDecoder(t), 2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go server.Serve(l)

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const parallel = 8
	var wg sync.WaitGroup
	errs := make([]error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := testInstance(t, int64(200+i), modulation.BPSK, 6)
			resp, err := client.Decode(in.Mod, in.H, in.Y)
			if err != nil {
				errs[i] = err
				return
			}
			if in.BitErrors(resp.Bits) != 0 {
				errs[i] = errShort // sentinel: wrong bits
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
}

// A decode error on the server (oversized problem) must surface at the
// client as an error, not a hang.
func TestServerReportsDecodeError(t *testing.T) {
	server := newDecoderServer(t, testDecoder(t), 3)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 300, modulation.BPSK, 30) // needs M=8 > C6
	if _, err := client.Decode(in.Mod, in.H, in.Y); err == nil {
		t.Fatal("expected remote decode error")
	}
}

// An unknown frame type from the peer must surface as a protocol-version
// error on pending and subsequent calls, not be silently discarded.
func TestClientRejectsUnknownFrameType(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	defer client.Close()
	in := testInstance(t, 400, modulation.BPSK, 4)
	done := make(chan error, 1)
	go func() {
		_, err := client.Decode(in.Mod, in.H, in.Y)
		done <- err
	}()
	if _, _, err := readFrame(srvConn); err != nil { // swallow the request
		t.Fatal(err)
	}
	if err := writeFrame(srvConn, 99, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil {
		t.Fatal("unknown frame type silently discarded")
	}
	if !strings.Contains(err.Error(), "protocol error") || !strings.Contains(err.Error(), "99") {
		t.Fatalf("error %q does not identify the protocol problem", err)
	}
	// The connection is poisoned: later calls fail fast with the same cause.
	if _, err := client.Decode(in.Mod, in.H, in.Y); err == nil {
		t.Fatal("client kept accepting work after a protocol error")
	}
}

// fakeSolver answers every problem at once with all-zero bits.
var fakeSolver = dispatcherFunc(func(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	return &backend.Result{Bits: make([]byte, p.LogicalSpins()), Backend: "fake", Batched: 1}, nil
})

// refusal sends one raw frame on a fresh connection and returns the error
// response the server must answer it with before closing the connection —
// all within a bounded wait, since a hang is the defect to catch.
func refusal(t *testing.T, msgType uint8, payload []byte) *DecodeResponse {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	done := make(chan struct{})
	go func() { NewPoolServer(fakeSolver).handleConn(srvConn); close(done) }()
	go writeFrame(cliConn, msgType, payload)
	if err := cliConn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	respType, respPayload, err := readFrame(cliConn)
	if err != nil {
		t.Fatalf("no answer to frame type %d: %v", msgType, err)
	}
	if respType != msgDecodeResponse {
		t.Fatalf("answered with frame type %d", respType)
	}
	resp, err := decodeResponse(respPayload)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(cliConn); err != io.EOF {
		t.Fatalf("connection not closed after the answer: %v", err)
	}
	<-done
	return resp
}

// A request the server cannot parse (here: extra trailing bytes) must be
// answered with an error response carrying the salvaged request ID, so the
// sender fails fast instead of hanging.
func TestServerAnswersMalformedRequest(t *testing.T) {
	in := testInstance(t, 401, modulation.BPSK, 4)
	payload, err := encodeRequest(&Request{ID: 77, Mod: in.Mod, H: in.H, Vec: in.Y})
	if err != nil {
		t.Fatal(err)
	}
	resp := refusal(t, msgDecodeRequest, append(payload, 1, 2, 3, 4))
	if resp.ID != 77 || !strings.Contains(resp.Err, "bad request") {
		t.Fatalf("answer %+v does not carry the salvaged ID and the cause", resp)
	}
}

// A frame type the server does not know — any retired protocol generation's
// request, or garbage — must be answered with an error naming the server's
// protocol version and then a closed connection; dropping it silently would
// strand the sender in Await forever.
func TestUnknownFrameTypeAnswered(t *testing.T) {
	in := testInstance(t, 402, modulation.BPSK, 2)
	// A well-formed protocol-v9 decode request (frame type 1): id | mod |
	// rows | cols | H | y | deadline | target BER.
	v9 := appendU64(nil, 55)
	v9 = append(v9, byte(in.Mod))
	v9 = appendU16(appendU16(v9, 2), 2)
	v9 = appendC128s(appendC128s(v9, in.H.Data), in.Y)
	v9 = appendF64(appendF64(v9, 0), 0)
	want := fmt.Sprintf("protocol version %d", ProtocolVersion)
	for msgType, payload := range map[uint8][]byte{1: v9, 99: appendU64(nil, 55)} {
		if resp := refusal(t, msgType, payload); resp.ID != 55 || !strings.Contains(resp.Err, want) {
			t.Fatalf("frame type %d: answer %+v does not carry the ID and %q", msgType, resp, want)
		}
	}
}

// brokenWriteConn is a connection whose write side has failed.
type brokenWriteConn struct{ net.Conn }

func (brokenWriteConn) Write([]byte) (int, error) { return 0, errors.New("write: broken pipe") }

// Once a response cannot be written nothing more can be delivered: the
// server must close the connection — which cancels the dispatches still in
// service and stops admitting new ones — instead of looping on a dead socket.
func TestWriteErrorClosesConnection(t *testing.T) {
	entered := make(chan struct{})
	cancelled := make(chan struct{})
	server := NewPoolServer(dispatcherFunc(func(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
		close(entered)
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}))
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	done := make(chan struct{})
	go func() { server.handleConn(brokenWriteConn{srvConn}); close(done) }()

	in := testInstance(t, 403, modulation.BPSK, 2)
	solve, err := encodeRequest(&Request{ID: 1, Mod: in.Mod, H: in.H, Vec: in.Y})
	if err != nil {
		t.Fatal(err)
	}
	register, err := encodeRegisterChannel(&RegisterChannelRequest{ID: 2, Mod: in.Mod, H: in.H})
	if err != nil {
		t.Fatal(err)
	}
	// One solve parks in the dispatcher; the registration behind it is
	// answered inline, and that answer is the write that fails.
	if err := writeFrame(cliConn, msgDecodeRequest, solve); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := writeFrame(cliConn, msgRegisterChannel, register); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan struct{}{cancelled, done} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("server kept serving a connection it cannot write to")
		}
	}
}

// NaN or ±Inf in H, y or s must never reach the dispatcher: the client
// refuses them as argument errors, and a peer that sends them anyway gets a
// bad-request answer.
func TestNonFiniteSamplesRejected(t *testing.T) {
	dispatched := make(chan struct{}, 8)
	server := NewPoolServer(dispatcherFunc(func(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
		dispatched <- struct{}{}
		return fakeSolver(ctx, p, deadline)
	}))
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 404, modulation.QPSK, 2)
	rc, err := client.RegisterChannel(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	badH := &linalg.Mat{Rows: 2, Cols: 2, Data: append([]complex128(nil), in.H.Data...)}
	badH.Data[3] = complex(math.NaN(), 0)
	badY := []complex128{in.Y[0], complex(0, math.Inf(-1))}
	for name, call := range map[string]func() error{
		"NaN in inline H":     func() error { _, err := client.Decode(in.Mod, badH, in.Y); return err },
		"NaN in registered H": func() error { _, err := client.RegisterChannel(in.Mod, badH); return err },
		"Inf in inline y":     func() error { _, err := client.Decode(in.Mod, in.H, badY); return err },
		"Inf in keyed y":      func() error { _, err := client.DecodeWithChannel(rc, badY, 0, 0); return err },
		"Inf in soft y":       func() error { _, err := client.DecodeSoftWithChannel(rc, badY, SoftQoS{}); return err },
		"Inf in precode s":    func() error { _, err := client.PrecodeWithChannel(rc, badY, 0, 0, 0); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	select {
	case <-dispatched:
		t.Fatal("a non-finite problem reached the dispatcher")
	default:
	}
	// The refusals were local: the connection still serves.
	if _, err := client.DecodeWithChannel(rc, in.Y, 0, 0); err != nil {
		t.Fatalf("connection unusable after argument errors: %v", err)
	}
}

// poolScheduler builds a 2-QPU + SA-fallback scheduler for round-trip tests.
func poolScheduler(t *testing.T, seed int64) *sched.Scheduler {
	t.Helper()
	opts := core.Options{
		Graph:  chimera.New(6),
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 40},
	}
	var pool []backend.Backend
	for _, name := range []string{"qpu0", "qpu1"} {
		qpu, err := backend.NewAnnealer(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, qpu)
	}
	s, err := sched.New(sched.Config{
		Pool:     pool,
		Fallback: backend.NewClassicalSA("sa", 128, 60),
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// Fronthaul round trip through a pool of more than one backend: concurrent
// pipelined requests spread over two QPU workers, all decode correctly, and
// the pool stats see every request.
func TestPoolServerRoundTripMultiBackend(t *testing.T) {
	s := poolScheduler(t, 5)
	server := NewPoolServer(s)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go server.Serve(l)

	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const parallel = 12
	var wg sync.WaitGroup
	backends := make([]string, parallel)
	errs := make([]error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := testInstance(t, int64(500+i), modulation.QPSK, 3)
			resp, err := client.Decode(in.Mod, in.H, in.Y)
			if err != nil {
				errs[i] = err
				return
			}
			if in.BitErrors(resp.Bits) != 0 {
				errs[i] = errShort // sentinel: wrong bits
				return
			}
			backends[i] = resp.Backend
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	for i, b := range backends {
		if b == "" {
			t.Fatalf("request %d: no backend reported", i)
		}
	}
	st := s.Stats()
	if st.Completed != parallel || st.QueueDepth != 0 {
		t.Fatalf("pool stats after round trip: %+v", st)
	}
}

// A wire-level deadline shorter than the annealer's run time must come back
// solved by the classical fallback.
func TestDeadlineOverWireRoutesToFallback(t *testing.T) {
	s := poolScheduler(t, 6)
	server := NewPoolServer(s)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 700, modulation.QPSK, 4)
	// The pool's annealers need Na·(Ta+Tp) = 80 µs; 20 µs is unmeetable.
	resp, err := client.DecodeQoS(in.Mod, in.H, in.Y, 20*time.Microsecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "sa" {
		t.Fatalf("deadline-constrained request served by %q, want the sa fallback", resp.Backend)
	}
	if in.BitErrors(resp.Bits) != 0 {
		t.Fatal("fallback decode returned wrong bits")
	}
	if st := s.Stats(); st.FallbackDispatches != 1 {
		t.Fatalf("FallbackDispatches = %d, want 1", st.FallbackDispatches)
	}
}

// Closing the connection mid-request must fail pending calls.
func TestClientFailsPendingOnClose(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	in := testInstance(t, 301, modulation.BPSK, 4)
	done := make(chan error, 1)
	go func() {
		_, err := client.Decode(in.Mod, in.H, in.Y)
		done <- err
	}()
	// Swallow the request, then drop the connection.
	if _, _, err := readFrame(srvConn); err != nil {
		t.Fatal(err)
	}
	srvConn.Close()
	if err := <-done; err == nil {
		t.Fatal("pending decode should fail when the connection drops")
	}
	// Subsequent calls fail fast.
	if _, err := client.Decode(in.Mod, in.H, in.Y); err == nil {
		t.Fatal("closed client accepted new work")
	}
}

// The client's QoS contract must survive the wire: a deadline is bounded and
// converted to microseconds, a negative target reads as "no target", and an
// out-of-range target is a local argument error.
func TestRequestCodecCarriesTargetBER(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	client := NewClient(cliConn)
	defer client.Close()
	sent := make(chan *Request)
	go func() {
		defer close(sent)
		for {
			_, payload, err := readFrame(srvConn)
			if err != nil {
				return
			}
			req, err := decodeRequest(payload)
			if err != nil {
				t.Error(err)
				return
			}
			sent <- req
		}
	}()
	h := linalg.MatFromRows([][]complex128{{1, 0}, {0, 1}})
	y := []complex128{1, 2i}
	var got []*Request
	for _, q := range []struct {
		deadline time.Duration
		target   float64
	}{{1500 * time.Microsecond, 1e-4}, {-time.Second, -0.5}, {math.MaxInt64, 0}} {
		if _, err := client.SubmitDecodeQoS(modulation.QPSK, h, y, q.deadline, q.target); err != nil {
			t.Fatal(err)
		}
		got = append(got, <-sent)
	}
	if got[0].DeadlineMicros != 1500 || got[0].TargetBER != 1e-4 {
		t.Fatalf("QoS fields drifted: %+v", got[0])
	}
	if got[1].DeadlineMicros != 0 || got[1].TargetBER != 0 {
		t.Fatalf("negative QoS fields did not read as server defaults: %+v", got[1])
	}
	if got[2].DeadlineMicros != MaxDeadlineMicros {
		t.Fatalf("deadline %g not bounded by MaxDeadlineMicros", got[2].DeadlineMicros)
	}
	for _, bad := range []float64{1, 1.5, math.NaN()} {
		if _, err := client.SubmitDecodeQoS(modulation.QPSK, h, y, 0, bad); err == nil {
			t.Fatalf("target BER %g accepted", bad)
		}
	}
}

// The full QoS contract must survive the wire: a pool server with a planner
// receives the client's target BER. A hard and a soft decode the certificate
// search finishes are answered at admission — the ML bits, and for the soft
// one its exact LLRs — with no planner call and no device time; a decode the
// search cannot finish (16×16 QPSK at −6 dB) is planned, and the planned
// budget is what the annealer billed.
func TestClientDecodeQoSThroughPlanner(t *testing.T) {
	d, err := core.New(core.Options{ // the default chip: the planned decode has 32 spins
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	qpu := backend.AnnealerFromDecoder("qpu0", d)
	// One flat fit for 16-user QPSK: (0.5)^Na·0.1 ≤ 1e-3 plans Na = 7.
	fit := qos.Point{Mod: "QPSK", Nt: 16, SNRdB: -20, Mode: qos.ModeForward, P0: 0.5, SpreadBER: 0.1}
	top := fit
	top.SNRdB = 30
	pl, err := qos.NewPlanner(&qos.Table{
		Ops:    []qos.ClassOp{{Mod: "QPSK", JF: 4, Ta: 1, Tp: 1, Sp: 0.35}},
		Points: []qos.Point{fit, top},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{Pool: []backend.Backend{qpu}, Planner: pl, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := NewPoolServer(s)

	client, server := net.Pipe()
	defer client.Close()
	go srv.handleConn(server)
	c := NewClient(client)

	in := testInstance(t, 640, modulation.QPSK, 2)
	resp, err := c.DecodeQoS(in.Mod, in.H, in.Y, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if errs := in.BitErrors(resp.Bits); errs != 0 || resp.Backend != sched.CertificateBackend || resp.ComputeMicros != 0 {
		t.Fatalf("certified decode: %d bit errors, backend %q, %g µs", errs, resp.Backend, resp.ComputeMicros)
	}
	resp, err = c.DecodeSoft(in.Mod, in.H, in.Y, SoftQoS{TargetBER: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if errs := in.BitErrors(resp.Bits); errs != 0 || resp.Backend != sched.CertificateBackend || resp.ComputeMicros != 0 || len(resp.LLR8) != len(resp.Bits) {
		t.Fatalf("certified soft decode: %d bit errors, backend %q, %g µs, %d LLRs", errs, resp.Backend, resp.ComputeMicros, len(resp.LLR8))
	}
	if st := pl.Stats(); st.Plans != 0 {
		t.Fatalf("the planner saw a certified request: %+v", st)
	}

	hard, err := mimo.Generate(rng.New(641), mimo.Config{Mod: modulation.QPSK, Nt: 16, Nr: 16, Channel: channel.Rayleigh{}, SNRdB: -6})
	if err != nil {
		t.Fatal(err)
	}
	if est := qos.NewSNREstimator(hard.Mod, hard.H).Estimate(hard.Y, qos.CertifyNodes, nil); est.Proved {
		t.Fatalf("the certificate finished the cell-edge decode in %d nodes: it would never reach the planner", est.Nodes)
	}
	resp, err = c.DecodeQoS(hard.Mod, hard.H, hard.Y, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.Plans != 1 || st.Quantum != 1 || resp.Backend != "qpu0" {
		t.Fatalf("planner never sized the request (served by %q): %+v", resp.Backend, st)
	}
	// The planned budget is what the annealer billed: 7 reads of 2 µs, far
	// below the static Na = 100 device time of 200 µs.
	if resp.ComputeMicros <= 0 || resp.ComputeMicros >= 200 {
		t.Fatalf("ComputeMicros = %g, want a planner-sized budget below the static 200 µs", resp.ComputeMicros)
	}
}

// The register-channel request and response codecs must round-trip exactly
// and reject malformed payloads, non-finite channels included.
func TestRegisterCodecRoundTrip(t *testing.T) {
	src := rng.New(131)
	h := channel.Rayleigh{}.Generate(src, 3, 2)

	reg := &RegisterChannelRequest{ID: 5, Mod: modulation.QAM16, H: h}
	payload, err := encodeRegisterChannel(reg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeRegisterChannel(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, reg) {
		t.Fatalf("register round trip drifted: %+v", back)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeRegisterChannel(payload[:cut]); err == nil {
			t.Fatalf("register payload truncated to %d of %d bytes accepted", cut, len(payload))
		}
	}
	if _, err := decodeRegisterChannel(append(payload, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decodeRegisterChannel(putF64(payload, -8, math.Inf(1))); err == nil {
		t.Fatal("infinite channel entry accepted")
	}
	if _, err := encodeRegisterChannel(&RegisterChannelRequest{ID: 5, Mod: modulation.QAM16}); err == nil {
		t.Fatal("nil channel accepted")
	}

	ack := &RegisterChannelResponse{ID: 5, Handle: 42}
	rback, err := decodeRegisterResponse(encodeRegisterResponse(ack))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rback, ack) {
		t.Fatalf("register response drifted: %+v", rback)
	}
}

// End to end over a pipe: register a channel once, decode a whole coherence
// window of symbols by handle, and verify each decode — plus a self-contained
// Decode on the same connection.
func TestRegisterChannelDecodeWindow(t *testing.T) {
	server := newDecoderServer(t, testDecoder(t), 3)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	src := rng.New(333)
	in := testInstance(t, 321, modulation.QPSK, 4)
	rc, err := client.RegisterChannel(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Mod() != in.Mod {
		t.Fatalf("remote channel mod %v, want %v", rc.Mod(), in.Mod)
	}
	// One coherence window: several symbols through the registered channel.
	for sym := 0; sym < 4; sym++ {
		bits := src.Bits(4 * in.Mod.BitsPerSymbol())
		y := linalg.MulVec(in.H, in.Mod.MapGrayVector(bits))
		resp, err := client.DecodeWithChannel(rc, y, 0, 0)
		if err != nil {
			t.Fatalf("symbol %d: %v", sym, err)
		}
		for i := range bits {
			if resp.Bits[i] != bits[i] {
				t.Fatalf("symbol %d: bit %d decoded wrong", sym, i)
			}
		}
	}
	// A self-contained request works on the same connection.
	resp, err := client.Decode(in.Mod, in.H, in.Y)
	if err != nil {
		t.Fatal(err)
	}
	if in.BitErrors(resp.Bits) != 0 {
		t.Fatal("self-contained decode failed")
	}
	// Wrong-shape y and unknown handles fail cleanly without killing the
	// connection.
	if _, err := client.DecodeWithChannel(rc, in.Y[:2], 0, 0); err == nil {
		t.Fatal("short y accepted")
	}
	bogus := &RemoteChannel{c: client, handle: 9999, mod: in.Mod, rows: 4}
	if _, err := client.DecodeWithChannel(bogus, in.Y, 0, 0); err == nil {
		t.Fatal("unknown handle accepted")
	}
	if _, err := client.DecodeWithChannel(rc, in.Y, 0, 0); err != nil {
		t.Fatalf("connection unusable after handle errors: %v", err)
	}
}

// dispatcherFunc adapts a function to the Dispatcher interface.
type dispatcherFunc func(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error)

func (f dispatcherFunc) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	return f(ctx, p, deadline)
}

// Header-declared shapes beyond what the payload holds must be rejected
// BEFORE allocation — a 13-byte frame must not provoke a gigabyte matrix.
func TestChannelShapeBoundedByPayload(t *testing.T) {
	shape := append([]byte{byte(modulation.QPSK)}, 0xff, 0xff, 0xff, 0xff)
	if _, err := decodeRegisterChannel(append(appendU64(nil, 1), shape...)); err == nil {
		t.Fatal("oversized register-channel shape accepted")
	}
	if _, err := decodeRequest(append(append(appendU64(nil, 1), 0), shape...)); err == nil {
		t.Fatal("oversized inline-channel shape accepted")
	}
	vec := appendU32(appendU64(append(appendU64(nil, 1), reqByHandle), 7), math.MaxUint32)
	if _, err := decodeRequest(vec); err == nil {
		t.Fatal("oversized vector length accepted")
	}
}

// A connection past MaxChannelsPerConn registrations must evict its oldest
// handle (stale coherence window) while the newest keep decoding.
func TestRegisterChannelEvictsOldest(t *testing.T) {
	server := NewPoolServer(fakeSolver)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	src := rng.New(404)
	first, err := client.RegisterChannel(modulation.BPSK, channel.Rayleigh{}.Generate(src, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	var last *RemoteChannel
	for i := 0; i < MaxChannelsPerConn; i++ {
		last, err = client.RegisterChannel(modulation.BPSK, channel.Rayleigh{}.Generate(src, 2, 2))
		if err != nil {
			t.Fatalf("registration %d: %v", i, err)
		}
	}
	y := []complex128{1, -1}
	if _, err := client.DecodeWithChannel(first, y, 0, 0); err == nil {
		t.Fatal("oldest handle survived past the per-connection cap")
	}
	if _, err := client.DecodeWithChannel(last, y, 0, 0); err != nil {
		t.Fatalf("newest handle broken: %v", err)
	}
}

// --- Downlink precoding ---------------------------------------------------

// precodeTestBench builds a pool server around one annealer decoder plus the
// downlink fixtures shared by the precode end-to-end tests.
func precodeTestBench(t *testing.T, users, antennas int) (*Server, *Client, *linalg.Mat) {
	t.Helper()
	dec := testDecoder(t)
	server := newDecoderServer(t, dec, 9)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	t.Cleanup(func() { client.Close() })
	h := channel.Rayleigh{}.Generate(rng.New(int64(users*100+antennas)), users, antennas)
	return server, client, h
}

// TestPrecodeOverWire runs the self-contained precode flow end to end: the
// returned perturbation is in-alphabet and its transmit power matches the
// reported energy, and repeating the window hits the server's VP-program
// cache.
func TestPrecodeOverWire(t *testing.T) {
	const users = 3
	mod := modulation.QPSK
	server, client, h := precodeTestBench(t, users, users+1)

	src := rng.New(541)
	prog, err := precoding.Compile(mod, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	for sym := 0; sym < 3; sym++ {
		s := mod.MapGrayVector(src.Bits(users * mod.BitsPerSymbol()))
		resp, err := client.Precode(mod, h, s, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.PerturbMod != modulation.QPSK {
			t.Fatalf("alphabet %v, want QPSK", resp.PerturbMod)
		}
		if len(resp.V) != users {
			t.Fatalf("perturbation has %d entries", len(resp.V))
		}
		for _, v := range resp.V {
			if math.Abs(real(v)) > 1 || math.Abs(imag(v)) > 1 {
				t.Fatalf("perturbation %v outside 1-bit alphabet", v)
			}
		}
		if direct := prog.Gamma(s, resp.V); math.Abs(direct-resp.Energy) > 1e-9*(1+direct) {
			t.Fatalf("energy %g != transmit power %g", resp.Energy, direct)
		}
		if resp.Backend == "" || resp.ComputeMicros <= 0 {
			t.Fatalf("solver metadata missing: %+v", resp)
		}
	}
	st := server.PrecodeCacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("VP program cache stats %+v, want 1 miss + 2 hits", st)
	}
	// A users > antennas channel fails per-request (compile error) without
	// killing the shared connection.
	wide := channel.Rayleigh{}.Generate(src, 4, 2)
	if _, err := client.Precode(mod, wide, make([]complex128, 4), 1, 0, 0); err == nil {
		t.Fatal("wide channel accepted")
	}
	s := mod.MapGrayVector(src.Bits(users * mod.BitsPerSymbol()))
	if _, err := client.Precode(mod, h, s, 1, 0, 0); err != nil {
		t.Fatalf("connection unusable after wide-channel error: %v", err)
	}
}

// TestPrecodeWithChannelOverWire runs the registered-channel precode flow and
// checks interleaving with uplink decodes on the same handle.
func TestPrecodeWithChannelOverWire(t *testing.T) {
	const users = 3
	mod := modulation.QPSK
	_, client, h := precodeTestBench(t, users, users)

	rc, err := client.RegisterChannel(mod, h)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(542)
	for sym := 0; sym < 2; sym++ {
		s := mod.MapGrayVector(src.Bits(users * mod.BitsPerSymbol()))
		resp, err := client.PrecodeWithChannel(rc, s, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Server default alphabet applies when the request leaves bits 0;
		// the client infers it from the solution bit count.
		if resp.PerturbMod != modulation.QPSK {
			t.Fatalf("alphabet %v, want server default QPSK", resp.PerturbMod)
		}
		if len(resp.V) != users {
			t.Fatalf("perturbation has %d entries", len(resp.V))
		}
	}
	// The same registered handle still serves uplink decodes.
	bits := src.Bits(users * mod.BitsPerSymbol())
	y := linalg.MulVec(h, mod.MapGrayVector(bits))
	dresp, err := client.DecodeWithChannel(rc, y, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if dresp.Bits[i] != bits[i] {
			t.Fatal("uplink decode wrong after precodes")
		}
	}
	// Shape and handle errors fail cleanly without killing the connection.
	if _, err := client.PrecodeWithChannel(rc, []complex128{1}, 0, 0, 0); err == nil {
		t.Fatal("short s accepted")
	}
	bogus := &RemoteChannel{c: client, handle: 777, mod: mod, rows: users}
	if _, err := client.PrecodeWithChannel(bogus, make([]complex128, users), 0, 0, 0); err == nil {
		t.Fatal("unknown handle accepted")
	}
	s := mod.MapGrayVector(src.Bits(users * mod.BitsPerSymbol()))
	if _, err := client.PrecodeWithChannel(rc, s, 0, 0, 0); err != nil {
		t.Fatalf("connection unusable after errors: %v", err)
	}
}
