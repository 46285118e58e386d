package fronthaul

import (
	"math"
	"net"
	"strings"
	"testing"

	"quamax/internal/modulation"
	"quamax/internal/softout"
)

func TestSoftResponseCodecRoundTrip(t *testing.T) {
	resp := &DecodeResponse{
		ID: 6, Bits: []byte{1, 0, 1, 1}, Clamp: 24,
		LLR8: []int8{127, -127, 3, -90}, Saturated: 2,
		Energy: 1.25, ComputeMicros: 80, Backend: "qpu0", Batched: 2,
	}
	back, err := decodeResponse(encodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if back.Saturated != 2 || back.Clamp != 24 || len(back.LLR8) != 4 ||
		back.LLR8[1] != -127 || back.Backend != "qpu0" || back.Batched != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	llrs := back.LLRs()
	if math.Abs(llrs[0]-24) > 1e-12 || math.Abs(llrs[1]+24) > 1e-12 {
		t.Fatalf("dequantized full-scale LLRs: %v", llrs)
	}

	// An LLR-less response (errors, hard answers) carries no LLR block, and a
	// flagged block that holds no LLRs is refused as non-canonical.
	errResp := &DecodeResponse{ID: 8, Err: "boom"}
	bare := encodeResponse(errResp)
	back, err = decodeResponse(bare)
	if err != nil || back.Err != "boom" || back.LLR8 != nil {
		t.Fatalf("error round trip: %+v, %v", back, err)
	}
	empty := append(bare[:len(bare)-1:len(bare)-1], respLLR)
	empty = appendU32(appendU32(appendF64(empty, 24), 0), 0)
	if _, err := decodeResponse(empty); err == nil {
		t.Fatal("empty LLR block accepted")
	}

	// Truncated LLR payload must be rejected, not mis-sliced, and so must a
	// clamp dequantization cannot use.
	full := encodeResponse(resp)
	if _, err := decodeResponse(full[:len(full)-3]); err == nil {
		t.Fatal("truncated soft response accepted")
	}
	clampOff := len(full) - len(resp.LLR8) - 4 - 4 - 8
	if _, err := decodeResponse(putF64(full, clampOff, math.Inf(1))); err == nil {
		t.Fatal("infinite clamp accepted")
	}
}

// TestDecodeSoftOverPipe runs the full soft loop: the client's soft decode
// must return the same hard bits as a hard decode and LLRs within one
// quantization step of the local soft decode.
func TestDecodeSoftOverPipe(t *testing.T) {
	dec := testDecoder(t)
	server := newDecoderServer(t, dec, 1)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 623, modulation.QPSK, 4)
	resp, err := client.DecodeSoft(in.Mod, in.H, in.Y, SoftQoS{NoiseVar: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if in.BitErrors(resp.Bits) != 0 {
		t.Fatalf("soft remote decode got %d bit errors", in.BitErrors(resp.Bits))
	}
	if len(resp.LLR8) != len(resp.Bits) {
		t.Fatalf("%d LLRs for %d bits", len(resp.LLR8), len(resp.Bits))
	}
	if resp.Clamp != softout.DefaultClamp {
		t.Fatalf("response clamp %g, want the package default %g", resp.Clamp, softout.DefaultClamp)
	}
	// A noise-free decode is ensemble-unanimous: every LLR saturates and the
	// signs reproduce the bits.
	if resp.Saturated == 0 {
		t.Fatal("noise-free soft decode reported no saturation")
	}
	got := softout.HardDecisions(resp.LLRs())
	if string(got) != string(resp.Bits) {
		t.Fatal("dequantized LLR signs do not reproduce the hard bits")
	}
}

// TestDecodeSoftWithChannelOverPipe drives the soft by-channel path, including
// the request-clamp override.
func TestDecodeSoftWithChannelOverPipe(t *testing.T) {
	dec := testDecoder(t)
	server := newDecoderServer(t, dec, 1)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 625, modulation.QPSK, 4)
	rc, err := client.RegisterChannel(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.DecodeSoftWithChannel(rc, in.Y, SoftQoS{NoiseVar: 0.01, LLRClamp: 8})
	if err != nil {
		t.Fatal(err)
	}
	if in.BitErrors(resp.Bits) != 0 {
		t.Fatalf("soft by-channel decode got %d bit errors", in.BitErrors(resp.Bits))
	}
	if resp.Clamp != 8 {
		t.Fatalf("request clamp override lost: response clamp %g", resp.Clamp)
	}
	// Shape mismatch answers per-request.
	if _, err := client.DecodeSoftWithChannel(rc, in.Y[:2], SoftQoS{}); err == nil {
		t.Fatal("short received vector accepted locally")
	}
	// Unknown handle answers with an error response.
	bogus := &RemoteChannel{c: client, handle: 9999, mod: in.Mod, rows: len(in.Y)}
	if _, err := client.DecodeSoftWithChannel(bogus, in.Y, SoftQoS{}); err == nil ||
		!strings.Contains(err.Error(), "unknown channel handle") {
		t.Fatalf("unknown handle error = %v", err)
	}
}

// TestServerDisableSoft checks -soft=false servers answer cleanly.
func TestServerDisableSoft(t *testing.T) {
	server := newDecoderServer(t, testDecoder(t), 1)
	server.DisableSoft = true
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	in := testInstance(t, 627, modulation.QPSK, 4)
	_, err := client.DecodeSoft(in.Mod, in.H, in.Y, SoftQoS{})
	if err == nil || !strings.Contains(err.Error(), "soft decode disabled") {
		t.Fatalf("disabled soft decode error = %v", err)
	}
	// Hard decodes still serve.
	if _, err := client.Decode(in.Mod, in.H, in.Y); err != nil {
		t.Fatal(err)
	}
}

// TestServerAnswersMalformedSoftRequest: a frame cut off right after its
// flags byte (soft, by-handle) still carries a salvageable ID and must
// produce an error response so the caller unblocks.
func TestServerAnswersMalformedSoftRequest(t *testing.T) {
	resp := refusal(t, msgDecodeRequest, append(appendU64(nil, 31), reqByHandle|reqSoft))
	if resp.ID != 31 || !strings.Contains(resp.Err, "bad request") {
		t.Fatalf("soft error response: %+v", resp)
	}
}
