package fronthaul

import (
	"bytes"
	"errors"
	"math"
	"net"
	"slices"
	"sort"
	"strings"
	"testing"

	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/telemetry"
)

// fuzzStatsResponse builds a fully populated stats response the way a serving
// binary does — through the planes' own producers: two shards' pool counters
// (backends carrying spend/energy economics), a telemetry snapshot whose
// histograms span first, middle and last buckets and whose quality map holds
// two classes, and health and burn views covering every state and the alert
// bit. Help is cleared, as it is on the far side of the wire.
func fuzzStatsResponse() *StatsResponse {
	hist := func(idx ...int) metrics.Hist {
		h := metrics.Hist{Counts: make([]uint64, metrics.NumBuckets), Min: 0.3, Max: 9000, Sum: 12345}
		for i, ix := range idx {
			h.Counts[ix] = uint64(i + 1)
			h.Count += uint64(i + 1)
		}
		return h
	}
	sn := &telemetry.Snapshot{
		Finished: 41, Failed: 1, Traces: 42,
		CompileHits: 30, CompileMisses: 12,
		Wire:     hist(10, 40),
		SlackMet: hist(55), SlackMissed: hist(0, metrics.NumBuckets-1),
		Quality: map[string]telemetry.QualityStats{
			"QPSK/4":   {Solves: 40, Reads: 4000, ChainBreaks: 7, LLRBits: 320, LLRSaturated: 3, BestEnergy: hist(20, 21, 22)},
			"16-QAM/8": {Solves: 2, Reads: 100, BestEnergy: hist(0)},
		},
	}
	for i := range sn.Stages[:len(sn.Stages)-1] { // the last stage stays empty
		sn.Stages[i] = hist(i, i+8)
	}
	shard := func(i string) metrics.Label { return metrics.Label{Key: "shard", Value: i} }
	sets := [][]metrics.Sample{
		sn.Samples(),
		metrics.PoolStats{
			UptimeMicros: 1e6, QueueDepth: 2, Submitted: 30, Completed: 30,
			FallbackDispatches: 5, PlannerClassical: 3, DeadlineMisses: 2,
			BatchRuns: 3, BatchedProblems: 9, SoftSolved: 6, LLRSaturations: 1, SlotOccupancy: 0.5,
			ChannelCache: metrics.ChannelCacheStats{Hits: 20, Misses: 8},
			Backends: []metrics.BackendStats{
				{Name: "s0/qpu0", Solved: 30, Errors: 1, BusyMicros: 4000, Utilization: 0.4,
					SpendMicroUSD: 2222, EnergyMilliJ: 100000},
				{Name: "s0/sa", Solved: 21, BusyMicros: 800, Utilization: 0.08,
					SpendMicroUSD: 0.25, EnergyMilliJ: 12},
			},
		}.Samples(shard("0")),
		metrics.PoolStats{
			Submitted: 12, Completed: 11, Failed: 1, BatchRuns: 1, SlotOccupancy: 1,
			ChannelCache: metrics.ChannelCacheStats{Hits: 10, Misses: 4, Evictions: 2},
		}.Samples(shard("1")),
		metrics.BackendHealth{Name: "s0/qpu0", State: metrics.HealthQuarantined, Score: 4.25, Observations: 900,
			ChainBreakEWMA: 0.31, EnergyEWMA: 12.5, FailureEWMA: 0.05, ReadsPerSolve: 48,
			CanaryPass: 2, CanaryFail: 7}.Samples(),
		metrics.BackendHealth{Name: "s0/qpu1", State: metrics.HealthDegraded, Score: 1.5, Observations: 850,
			ChainBreakEWMA: 0.11, EnergyEWMA: 14.0, ReadsPerSolve: 50}.Samples(),
		metrics.BackendHealth{Name: "s0/sa", State: metrics.HealthHealthy, Observations: 400, EnergyEWMA: 13.9}.Samples(),
		metrics.ShardBurn{FastMissRate: 0.2, SlowMissRate: 0.08, FastBERRate: 0.12, SlowBERRate: 0.11,
			Observed: 640, Alerting: true}.Samples(0),
		metrics.ShardBurn{SlowMissRate: 0.002, Observed: 500}.Samples(1),
	}
	resp := &StatsResponse{ID: 14, Samples: metrics.Collect(sets...)}
	for i := range resp.Samples {
		resp.Samples[i].Help = ""
	}
	return resp
}

// fuzzSeedFrames seeds the fuzzer with the real v11 grammar instead of random
// bytes: a solve request for every flag combination, the rejected
// soft|precode pair, zero-length and non-finite vectors, the register frames,
// every response shape (including a truncated and a non-canonical empty LLR
// block), the stats frames (a full sample set, a pool-only one, one whose
// histograms are all empty, and every way a sample set can be malformed:
// unsorted or duplicated samples, unsorted label keys, an unknown kind byte,
// a truncated histogram, a sample, label or bucket count larger than the
// payload, trailing bytes), frame types of retired and unknown protocol
// generations, and whole pipelined streams.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	frame := func(msgType uint8, payload []byte, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return append([]byte{msgType}, payload...)
	}
	var seeds [][]byte

	// Solve requests: every flag combination, in a fixed order.
	reqs := codecRequests()
	names := make([]string, 0, len(reqs))
	for name := range reqs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		payload, err := encodeRequest(reqs[name])
		seeds = append(seeds, frame(msgDecodeRequest, payload, err))
	}
	keyed, err := encodeRequest(reqs["hard_handle"])
	if err != nil {
		tb.Fatal(err)
	}
	inline, err := encodeRequest(reqs["hard_inline"])
	if err != nil {
		tb.Fatal(err)
	}
	bothFlags := append([]byte(nil), keyed...)
	bothFlags[8] = reqByHandle | reqSoft | reqPrecode
	zeroVec := appendU32(append([]byte(nil), keyed[:8+1+8]...), 0)
	zeroVec = appendF64(appendF64(zeroVec, 0), 0)
	register, err := encodeRegisterChannel(&RegisterChannelRequest{ID: 2, Mod: modulation.QPSK, H: reqs["hard_inline"].H})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds,
		frame(msgDecodeRequest, bothFlags, nil),
		frame(msgDecodeRequest, zeroVec, nil),
		frame(msgDecodeRequest, putF64(keyed, 8+1, 0), nil),                  // handle 0
		frame(msgDecodeRequest, putF64(inline, 8+1+5, math.NaN()), nil),      // NaN in H
		frame(msgDecodeRequest, putF64(keyed, 8+1+8+4+8, math.Inf(-1)), nil), // -Inf in y
		frame(msgDecodeRequest, putF64(keyed, -8, math.NaN()), nil),          // NaN target BER
		frame(msgRegisterChannel, register, nil),
		frame(msgRegisterChannel, putF64(register, -16, math.Inf(1)), nil), // Inf in H
		frame(msgRegisterResponse, encodeRegisterResponse(&RegisterChannelResponse{ID: 8, Handle: 4}), nil),
	)

	// Solve responses.
	softResp := encodeResponse(&DecodeResponse{ID: 12, Bits: []byte{1, 0, 1, 1},
		Clamp: 24, LLR8: []int8{127, -127, 5, -9}, Saturated: 2,
		Energy: 0.5, ComputeMicros: 80, Backend: "qpu0", Batched: 2})
	bareResp := encodeResponse(&DecodeResponse{ID: 7, Err: "boom"})
	// An error text past the u16 count's range, as the encoder clips it.
	seeds = append(seeds, frame(msgDecodeResponse, encodeResponse(&DecodeResponse{ID: 8, Err: strings.Repeat("e", 70_000)}), nil))
	emptyLLR := append(bareResp[:len(bareResp)-1:len(bareResp)-1], respLLR)
	emptyLLR = appendU32(appendU32(appendF64(emptyLLR, 24), 0), 0)
	seeds = append(seeds,
		frame(msgDecodeResponse, encodeResponse(&DecodeResponse{ID: 6, Bits: []byte{1, 0, 1, 1},
			Energy: 2.5, ComputeMicros: 12, Backend: "qpu0", Batched: 2}), nil),
		frame(msgDecodeResponse, bareResp, nil),
		frame(msgDecodeResponse, softResp, nil),
		// Truncated inside its LLR block, and a flagged block with no LLRs.
		frame(msgDecodeResponse, softResp[:len(softResp)-2], nil),
		frame(msgDecodeResponse, emptyLLR, nil),
	)
	// Answers that fill a client call's inline arrays exactly, and that
	// overflow them by one and by a multiple.
	for _, n := range []int{inlineBits, inlineBits + 1, 3 * inlineBits} {
		seeds = append(seeds, frame(msgDecodeResponse, encodeResponse(sizedResponse(20, n, true)), nil))
	}

	// The stats grammar: the poll, a full sample set, a pool-only one, and a
	// telemetry snapshot whose histograms are all empty.
	statsFull, err := encodeStatsResponse(fuzzStatsResponse())
	if err != nil {
		tb.Fatal(err)
	}
	statsBare, err := encodeStatsResponse(&StatsResponse{ID: 15, Samples: metrics.Collect(metrics.PoolStats{
		Submitted: 3, Completed: 3,
		Backends: []metrics.BackendStats{{Name: "qpu0", Solved: 3, BusyMicros: 900, Utilization: 0.4}},
	}.Samples())})
	if err != nil {
		tb.Fatal(err)
	}
	statsEmptyHists, err := encodeStatsResponse(&StatsResponse{ID: 16,
		Samples: metrics.Collect((&telemetry.Snapshot{}).Samples())})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds,
		frame(msgStatsRequest, encodeStatsRequest(&StatsRequest{ID: 14}), nil),
		frame(msgStatsResponse, statsFull, nil),
		frame(msgStatsResponse, statsBare, nil),
		frame(msgStatsResponse, statsEmptyHists, nil),
		// A stats response with a declared sample but no sample bytes.
		[]byte{msgStatsResponse, 0, 0, 0},
		// Malformed shapes the decoders must reject without panicking.
		[]byte{msgDecodeRequest},
		[]byte{msgDecodeRequest, 0, 0, 0},
		[]byte{msgDecodeResponse, 0, 0},
		append([]byte{msgDecodeRequest}, bytes.Repeat([]byte{0xff}, 40)...),
		// Frame types no decoder owns: garbage, and a retired generation's
		// decode request (type 1). The framing layer must surface them, not
		// crash on them.
		frame(99, []byte{1, 2, 3}, nil),
		frame(1, inline, nil),
	)
	// Every way a sample set can be malformed (malformedStats): each is
	// rejected, never repaired.
	for _, m := range malformedStats(tb) {
		seeds = append(seeds, frame(msgStatsResponse, m.payload, nil))
	}
	// Pipelined streams: a connection's read loop sees many frames back to
	// back, responses returning out of order and interleaved across request
	// classes, and teardown can truncate the stream mid-frame. These seeds
	// exercise the whole-stream drain at the end of the fuzz body.
	wire := func(msgType uint8, payload []byte) []byte {
		var b []byte
		b = appendU32(b, uint32(len(payload)))
		b = append(b, msgType)
		return append(b, payload...)
	}
	respFrame := func(id uint64) []byte {
		return wire(msgDecodeResponse, encodeResponse(&DecodeResponse{ID: id, Bits: []byte{1, 0},
			Energy: 1, ComputeMicros: 5, Backend: "qpu0"}))
	}
	outOfOrder := append(append(respFrame(3), respFrame(1)...), respFrame(2)...)
	interleaved := append(append(append(respFrame(2),
		wire(msgDecodeResponse, softResp)...),
		wire(msgRegisterResponse, encodeRegisterResponse(&RegisterChannelResponse{ID: 4, Handle: 7}))...),
		wire(msgStatsResponse, statsBare)...)
	truncatedMid := append(append(respFrame(1), respFrame(2)...), respFrame(3)[:7]...)
	forgedLen := append(respFrame(1), wire(msgDecodeResponse, nil)...)
	forgedLen[len(forgedLen)-2] = 0xff // second frame claims a ~4GB payload
	return append(seeds, outOfOrder, interleaved, truncatedMid, forgedLen)
}

// FuzzDecodeFrame fuzzes the wire grammar: the first byte selects the frame
// type, the rest is the payload handed to that type's decoder (the exact
// situation of a server or client read loop after readFrame). No input may
// panic, and every grammar is canonical: any payload a decoder accepts must
// re-encode to exactly the bytes it was decoded from.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		msgType, payload := data[0], data[1:]
		canonical := func(re []byte, err error) {
			if err != nil {
				t.Fatalf("accepted frame type %d does not re-encode: %v", msgType, err)
			}
			if !bytes.Equal(re, payload) {
				t.Fatalf("frame type %d re-encode is not byte-identical", msgType)
			}
		}
		switch msgType {
		case msgDecodeRequest:
			if req, err := decodeRequest(payload); err == nil {
				canonical(encodeRequest(req))
			}
		case msgDecodeResponse:
			resp, err := decodeResponse(payload)
			if err == nil {
				canonical(encodeResponse(resp), nil)
			}
			// Decoded into a client call's inline arrays, as the demux does,
			// the answer is the same whether it fits them or overflows them.
			// The two decodes are compared by their encodings: the codec
			// round-trips every float bit-exactly, NaN included, which a
			// field-by-field comparison would call unequal to itself.
			var k call
			if inErr := k.resp.decode(payload, new(backendNames), k.bits[:0], k.llr8[:0]); (inErr == nil) != (err == nil) ||
				err == nil && !bytes.Equal(encodeResponse(&k.resp), encodeResponse(resp)) {
				t.Fatalf("decoding into a call's arrays: %v, fresh storage: %v", inErr, err)
			}
		case msgRegisterChannel:
			if req, err := decodeRegisterChannel(payload, new(linalg.Mat)); err == nil {
				canonical(encodeRegisterChannel(&req))
			}
		case msgRegisterResponse:
			if resp, err := decodeRegisterResponse(payload); err == nil {
				canonical(encodeRegisterResponse(resp), nil)
			}
		case msgStatsRequest:
			if req, err := decodeStatsRequest(payload); err == nil {
				canonical(encodeStatsRequest(req), nil)
			}
		case msgStatsResponse:
			// The sample-set grammar is canonical too (strictly ascending
			// samples, label keys and bucket indexes; no zero counts).
			if resp, err := decodeStatsResponse(payload); err == nil {
				canonical(encodeStatsResponse(resp))
			}
		}
		// Whatever the type, the framing layer itself must stay panic-free on
		// the raw bytes read as a pipelined stream: many frames back to back
		// (out-of-order responses, interleaved classes), truncated mid-frame,
		// or with forged lengths. Drain until the first framing error, the
		// exact loop a connection's read side runs.
		fr := newFrameReader(bytes.NewReader(data))
		for {
			if _, _, err := fr.next(); err != nil {
				break
			}
		}
	})
}

// FuzzClientDemux drives a live Client's per-connection demux with a
// fuzz-chosen response script: each script byte answers one request ID in
// [0,5), so responses arrive out of order, duplicated (an already-answered
// ID), or for requests never issued, with an answer size it also picks (b/5
// mod 4: 2 bits, a call's inline arrays filled, overflowed by one, or by a
// multiple; with LLRs when b/20 is odd). The invariants: no delivery may panic
// or wedge, an unmatched ID must tear the connection down with the typed
// *ResponseIDError, every in-flight call must return — a matched response, the
// ID error, or the teardown tag — once the peer goes away, and a matched
// response is the one its first delivery carried.
func FuzzClientDemux(f *testing.F) {
	f.Add([]byte{1, 2, 3})       // in order
	f.Add([]byte{3, 1, 2})       // out of order, all matched
	f.Add([]byte{2})             // partial delivery, then peer close
	f.Add([]byte{1, 1, 2})       // duplicate ID: second delivery collides
	f.Add([]byte{0})             // ID never allocated by this client
	f.Add([]byte{4, 1})          // ID above every issued request
	f.Add([]byte{})              // peer closes without answering
	f.Add([]byte{6, 12, 18})     // inline-sized, overflowing by one, by a multiple
	f.Add([]byte{26, 37, 33, 1}) // the same with LLRs, then ID 1 again (collides)
	f.Fuzz(func(t *testing.T, script []byte) {
		h := linalg.MatFromRows([][]complex128{{1, 0}, {0, 1}})
		y := []complex128{1, -1}
		cliConn, srvConn := net.Pipe()
		c := NewClient(cliConn)
		defer c.Close()
		// Peer harness: swallow the request frames so submits never block on
		// the synchronous pipe.
		go func() {
			for {
				if _, _, err := readFrame(srvConn); err != nil {
					return
				}
			}
		}()
		// Three in-flight pipelined decodes: IDs 1, 2, 3.
		var calls []*DecodeCall
		for i := 0; i < 3; i++ {
			dc, err := c.SubmitDecodeQoS(modulation.BPSK, h, y, 0, 0)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			calls = append(calls, dc)
		}
		sized := func(b byte) *DecodeResponse {
			n := []int{2, inlineBits, inlineBits + 1, 3 * inlineBits}[b/5%4]
			return sizedResponse(uint64(b%5), n, b/20%2 == 1)
		}
		first := map[uint64]*DecodeResponse{}
		for _, b := range script {
			id := uint64(b % 5)
			if first[id] == nil {
				first[id] = sized(b)
			}
			err := writeFrame(srvConn, msgDecodeResponse, encodeResponse(sized(b)))
			if err != nil {
				// The demux tore the connection down mid-script (collision);
				// that is the expected path, not a failure.
				break
			}
		}
		srvConn.Close()
		for i, dc := range calls {
			resp, err := dc.Await()
			if err == nil {
				want := first[uint64(i+1)]
				if want == nil || !bytes.Equal(resp.Bits, want.Bits) || !slices.Equal(resp.LLR8, want.LLR8) {
					t.Fatalf("call %d delivered %d bits and %d LLRs, not its first answer", i, len(resp.Bits), len(resp.LLR8))
				}
				continue
			}
			var ide *ResponseIDError
			if errors.As(err, &ide) {
				// The teardown error names the colliding ID, which must be
				// either never issued (0 or > 3) or an in-range ID the script
				// answered more than once.
				if ide.MsgType != msgDecodeResponse ||
					(ide.ID >= 1 && ide.ID <= 3 && !duplicated(script, ide.ID)) {
					t.Fatalf("call %d: ID error for %d which was neither unknown nor duplicated (script %v)", i, ide.ID, script)
				}
				continue
			}
			// Otherwise the peer closed or Close drained the call — both are
			// tagged teardown paths, never a hang.
			if !errors.Is(err, ErrClientClosed) && !strings.Contains(err.Error(), "connection lost") {
				t.Fatalf("call %d: untyped teardown error %v", i, err)
			}
		}
	})
}

// sizedResponse is a response to id with n bits and, when soft, n LLRs, a
// pattern that tells the entries apart.
func sizedResponse(id uint64, n int, soft bool) *DecodeResponse {
	resp := &DecodeResponse{ID: id, Bits: make([]byte, n), Backend: "qpu0"}
	for i := range resp.Bits {
		resp.Bits[i] = byte(i % 2)
	}
	if soft {
		resp.Clamp, resp.LLR8 = 8, make([]int8, n)
		for i := range resp.LLR8 {
			resp.LLR8[i] = int8(i%200 - 100)
		}
	}
	return resp
}

// duplicated reports whether id is answered more than once by script.
func duplicated(script []byte, id uint64) bool {
	n := 0
	for _, b := range script {
		if uint64(b%5) == id {
			n++
		}
	}
	return n > 1
}
